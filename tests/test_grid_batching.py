"""Grid-batched solves against the per-call loops they replace.

Each reference below is the loop the library ran before it sampled the
controls once per solve: RK4 calling the controls at every stage, the
Wei-Norman quadrature building M(v) node by node, and the reconstruction
composing one-parameter subgroups node by node.
"""

import zlib

import numpy as np
import pytest

import liesys.groups as G
from liesys.algebra import _expm_taylor, wn_matrix
from liesys.catalog import get_system
from liesys.errors import ChartError
from liesys.numerics import TimeGrid, Trajectory, cumulative_quadrature_samples
from liesys.reduction import (
    catalog_reduction,
    reduce_to_subgroup,
    right_invariant_derivative,
    solve_on_subgroup,
)
from liesys.systems import field_eval, solve_direct
from liesys.weinorman import (
    WNProblem,
    _is_unit_triangular,
    _wn_solve_quadrature,
    wn_reconstruct,
    wn_solve,
)
from conftest import smooth_controls

GRID = TimeGrid.uniform(0.0, 1.0, 800)

# acceptance criterion 1: (system, parameters, control channels, amplitude)
LIE_SYSTEMS = [
    ("brockett", {}, 2, 1.0), ("brockett_variant", {}, 2, 1.0),
    ("hopping_robot_lin", {}, 2, 1.0), ("rb_two_oscillators", {}, 2, 1.0),
    ("brockett_deg2", {}, 2, 1.0), ("unicycle", {}, 2, 1.0),
    ("unicycle_feedback", {}, 2, 0.45), ("kinematic_car_chained", {}, 2, 1.0),
    ("martinet", {}, 2, 1.0), ("elastic_euler", {"eps": 1}, 3, 1.0),
    ("elastic_euler", {"eps": 0}, 3, 1.0), ("elastic_euler", {"eps": -1}, 3, 0.8),
    ("so3_kinematics", {}, 3, 1.0),
]


def controls(name, nch, amp):
    return smooth_controls(nch, amp=amp, seed=zlib.crc32(name.encode()) % 997)


def rk4_per_call(f, x0, nodes):
    """Classical RK4 whose right-hand side evaluates its inputs itself."""
    x = np.array(x0, dtype=float)
    out = [x]
    for k in range(len(nodes) - 1):
        t, dt = nodes[k], nodes[k + 1] - nodes[k]
        k1 = f(t, x)
        k2 = f(t + 0.5 * dt, x + 0.5 * dt * k1)
        k3 = f(t + 0.5 * dt, x + 0.5 * dt * k2)
        k4 = f(t + dt, x + dt * k3)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(x)
    return np.array(out)


@pytest.mark.parametrize("name,kw,nch,amp", [LIE_SYSTEMS[i] for i in (0, 5, 9, 12)],
                         ids=["brockett", "unicycle", "elastic_euler+1", "so3_kinematics"])
def test_solve_direct_stage_table_matches_per_call_rk4(name, kw, nch, amp):
    entry = get_system(name, **kw)
    b = entry.pad_controls(controls(name, nch, amp))
    x0 = np.full(entry.realization.state_dim, 0.1)
    got = solve_direct(entry.realization, b, x0, GRID).states
    ref = rk4_per_call(lambda t, x: field_eval(entry.realization, b, t, x), x0, GRID.nodes)
    assert np.max(np.abs(got - ref)) <= 1e-13


@pytest.mark.parametrize("name,kw,nch,amp", [LIE_SYSTEMS[i] for i in (5, 9, 11, 12)],
                         ids=["unicycle", "elastic_euler+1", "elastic_euler-1", "so3_kinematics"])
def test_wn_rk4_stage_table_matches_per_call_rk4(name, kw, nch, amp):
    entry = get_system(name, **kw)
    prob = WNProblem(entry.algebra, entry.pad_controls(controls(name, nch, amp)), GRID,
                     entry.ordering())
    got = wn_solve(prob, method="rk4").states
    ref = rk4_per_call(
        lambda t, v: np.linalg.solve(wn_matrix(prob.algebra, prob.ordering, v), prob.controls(t)),
        np.zeros(prob.algebra.dim), GRID.nodes)
    assert np.max(np.abs(got - ref)) <= 1e-13


@pytest.mark.parametrize("name", ["se2/a2a3", "g5/center", "su2/a1", "se3/r3"])
def test_subgroup_and_homogeneous_stage_tables_match_per_call_rk4(name):
    case = catalog_reduction(name)
    b = controls(name, len(case.used_channels), 1.0)
    bp = case.pad_controls(b)
    hom = case.solve_homogeneous(b, GRID)
    ref = rk4_per_call(lambda t, y: case.hom_rhs(t, y, bp(t)), case.hom_x0, GRID.nodes)
    assert np.max(np.abs(hom.states - ref)) <= 1e-13

    setup, _ = case.setup(b, GRID)
    coeffs, _ = reduce_to_subgroup(setup)
    h = solve_on_subgroup(setup, coeffs)
    S, nodes = setup.span_matrix, GRID.nodes

    def f(t, hc):
        # midpoint stages interpolate the node coefficients linearly
        c = np.array([np.interp(t, nodes, coeffs[:, j]) for j in range(coeffs.shape[1])])
        return right_invariant_derivative(setup.chart, -(S @ c), hc)

    ref = rk4_per_call(f, setup.chart.identity_coords, nodes)
    assert np.max(np.abs(h.coords - ref)) <= 1e-13


def quadrature_per_node(problem):
    alg, ordering = problem.algebra, problem.ordering
    nodes = problem.grid.nodes
    perm = [idx - 1 for idx in ordering]
    b = np.array([problem.controls(t) for t in nodes])
    v = np.zeros((len(nodes), alg.dim))
    vdot = np.zeros((len(nodes), alg.dim))
    for i in range(alg.dim):
        rhs = b[:, perm[i]].copy()
        if i > 0:
            for k in range(len(nodes)):
                M = wn_matrix(alg, ordering, v[k])
                rhs[k] -= float(M[perm[i], :i] @ vdot[k, :i])
        vdot[:, i] = rhs
        v[:, i] = cumulative_quadrature_samples(rhs, problem.grid)
    return v


def test_batched_quadrature_matches_per_node_loop_on_nilpotent_systems():
    grid = TimeGrid.uniform(0.0, 1.0, 400)
    checked = []
    for name, kw, nch, amp in LIE_SYSTEMS:
        entry = get_system(name, **kw)
        prob = WNProblem(entry.algebra, entry.pad_controls(controls(name, nch, amp)), grid,
                         entry.ordering())
        if entry.algebra.nilpotency_index is None or not _is_unit_triangular(
                prob.algebra, prob.ordering):
            continue
        got = _wn_solve_quadrature(prob).states
        assert np.max(np.abs(got - quadrature_per_node(prob))) <= 1e-14, name
        checked.append(name)
    assert len(checked) == 8


def reference_exp(chart, index, s):
    """exp(s a_index) as the node-by-node loop built it: a Taylor matrix
    exponential of the representation on matrix charts; the first column of
    the 4x4 representation's exponential on quaternion charts."""
    if chart.chart_kind == "matrix":
        return chart.element(_expm_taylor(s * chart.algebra_rep[index]).reshape(-1))
    if chart.chart_kind == "quaternion":
        return chart.element(_expm_taylor(s * chart.algebra_rep[index])[:, 0])
    return G.exp_chart(chart, index, s)


def reconstruct_per_node(v, ordering, chart):
    rows = []
    for row in v.states:
        g = chart.identity()
        for i, idx in enumerate(ordering):
            g = G.compose(g, reference_exp(chart, idx - 1, -row[i]))
        rows.append(g.coords)
    return np.array(rows)


@pytest.mark.parametrize("key", sorted(G._CHARTS, key=str), ids=lambda key: "/".join(
    str(k) for k in key if k is not None))
def test_batched_reconstruction_matches_per_node_composition(key):
    chart = G._CHARTS[key]
    r = chart.algebra.dim
    grid = TimeGrid.uniform(0.0, 1.0, 24)
    rng = np.random.default_rng(zlib.crc32(repr(key).encode()))
    # matrix charts run |v| up to 9, so the exponentials scale and square
    amp = 9.0 if chart.chart_kind == "matrix" else 1.5
    v = Trajectory(grid, rng.uniform(-amp, amp, (len(grid.nodes), r)))
    v.states[0] = 0.0
    for ordering in (tuple(range(1, r + 1)), tuple(range(r, 0, -1))):
        got = wn_reconstruct(v, ordering, chart).coords
        ref = reconstruct_per_node(v, ordering, chart)
        scale = max(1.0, float(np.max(np.abs(ref))))
        assert np.max(np.abs(got - ref)) <= 1e-12 * scale, ordering


def test_reconstruction_names_a_non_finite_node():
    chart = G.get_chart("SO3", "matrix")
    grid = TimeGrid.uniform(0.0, 1.0, 20)
    v = Trajectory(grid, np.zeros((21, 3)))
    v.states[13, 1] = np.nan
    with pytest.raises(ChartError, match=r"reconstruction violates the chart constraint "
                                         r"at node 13 \(t=0\.65\): error nan"):
        wn_reconstruct(v, (1, 2, 3), chart)
