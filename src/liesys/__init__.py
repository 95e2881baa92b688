"""Lie systems: structure-constant algebras, group charts, the generalized
Wei-Norman method, superposition rules, the Riccati transformation toolbox,
subgroup reduction, and a catalog of control systems and solvable potential
families."""

from .algebra import (
    AlgebraVector,
    LieAlgebra,
    ad_matrix,
    bracket,
    catalog_algebra,
    exp_ad,
    jacobi_residual,
    load_algebra_file,
    span_is_subalgebra,
)
from .catalog import CatalogEntry, get_system, list_systems
from .groups import (
    GroupChart,
    GroupElement,
    chart_convert,
    compose,
    element_from_dict,
    element_to_dict,
    exp_algebra,
    exp_chart,
    get_chart,
    group_adjoint,
    inverse,
    left_log_derivative,
    right_log_derivative,
)
from .numerics import TimeGrid, Trajectory, integrate_rk4, linsolve
from .reduction import (
    ReductionSetup,
    catalog_reduction,
    list_reductions,
    reconstruct_full,
    reduce_to_subgroup,
    run_catalog_reduction,
    run_reduction,
    solve_on_subgroup,
)
from .riccati import (
    RiccatiCoeffs,
    SL2Curve,
    backlund_fd,
    darboux_riccati,
    darboux_wavefunction,
    general_from_particular,
    reduce_known,
    transform_coeffs,
    transform_solution,
)
from .systems import (
    LieSystemRealization,
    SuperpositionRule,
    cross_ratio,
    field_eval,
    solve_direct,
    solve_via_group,
    superpose,
)
from .quantum import (
    SuperpotentialFamily,
    eigenfunction_fixture,
    eval_superpotential,
    example_fixture,
    partner_potentials,
    shape_invariance_residual,
    solve_yz,
)
from .weinorman import (
    ControlSignal,
    GroupCurve,
    WNProblem,
    flatness_residual,
    wn_matrix,
    wn_reconstruct,
    wn_solve,
)

__version__ = "0.1.0"
