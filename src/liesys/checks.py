"""Named invariant suites behind `liesys check`.

Each check returns (passed, measured value); the CLI prints one line per
check and exits 0 iff all pass.  The full pytest suite covers much more;
these are the fast structural invariants.
"""

from __future__ import annotations

import numpy as np

from .algebra import (
    ad_matrix,
    bracket_coords,
    catalog_algebra,
    catalog_names,
    exp_ad,
    jacobi_residual,
)
from .catalog import get_system, list_systems
from .errors import UnknownNameError
from .groups import _CHARTS, compose, exp_chart, group_adjoint
from .numerics import TimeGrid
from .reduction import catalog_reduction, run_catalog_reduction
from .systems import generator_bracket_residual, solve_direct, solve_via_group
from .weinorman import ControlSignal


def _rng():
    return np.random.default_rng(20200515)


def check_algebra():
    rng = _rng()
    out = {}
    worst_j, worst_h, worst_e = 0.0, 0.0, 0.0
    for name in catalog_names():
        if name == "gbar":
            algs = [catalog_algebra(name, n=n) for n in (3, 5, 8)]
        elif name == "g_eps":
            algs = [catalog_algebra(name, eps=e) for e in (-1, 0, 1)]
        else:
            algs = [catalog_algebra(name)]
        for alg in algs:
            worst_j = max(worst_j, jacobi_residual(alg))
            for _ in range(20):
                x = rng.standard_normal(alg.dim)
                y = rng.standard_normal(alg.dim)
                lhs = ad_matrix(alg, bracket_coords(alg, x, y))
                rhs = ad_matrix(alg, x) @ ad_matrix(alg, y) - ad_matrix(alg, y) @ ad_matrix(alg, x)
                worst_h = max(worst_h, float(np.max(np.abs(lhs - rhs))))
            for _ in range(5):
                a = rng.standard_normal(alg.dim)
                s, t = rng.uniform(-2, 2, 2)
                gap = exp_ad(alg, a, s) @ exp_ad(alg, a, t) - exp_ad(alg, a, s + t)
                worst_e = max(worst_e, float(np.max(np.abs(gap))))
    out["algebra/jacobi"] = (worst_j <= 1e-12, worst_j)
    out["algebra/ad-homomorphism"] = (worst_h <= 1e-12, worst_h)
    out["algebra/exp-one-parameter"] = (worst_e <= 1e-10, worst_e)
    return out


def check_groups():
    rng = _rng()
    worst_assoc, worst_ad = 0.0, 0.0
    for key, ch in _CHARTS.items():
        def rand_el():
            g = ch.identity()
            for i in range(ch.algebra.dim):
                g = compose(g, exp_chart(ch, i, 0.6 * rng.standard_normal()))
            return g
        for _ in range(5):
            g, h, k = rand_el(), rand_el(), rand_el()
            gap = compose(compose(g, h), k).coords - compose(g, compose(h, k)).coords
            worst_assoc = max(worst_assoc, float(np.max(np.abs(gap))))
            gap = group_adjoint(compose(g, h)) - group_adjoint(g) @ group_adjoint(h)
            worst_ad = max(worst_ad, float(np.max(np.abs(gap))))
        for i in range(ch.algebra.dim):
            gap = group_adjoint(exp_chart(ch, i, 0.8)) - exp_ad(
                ch.algebra, ch.algebra.basis_vector(i), 0.8)
            worst_ad = max(worst_ad, float(np.max(np.abs(gap))))
    return {
        "groups/associativity": (worst_assoc <= 1e-9, worst_assoc),
        "groups/adjoint-consistency": (worst_ad <= 1e-9, worst_ad),
    }


def check_catalog():
    rng = _rng()
    worst = 0.0
    for name in list_systems():
        sysr = get_system(name).realization
        pts = rng.uniform(-0.4, 0.4, (6, sysr.state_dim))
        worst = max(worst, generator_bracket_residual(sysr, pts))
    return {"catalog/generator-brackets": (worst <= 2e-4, worst)}


def check_lie_theorem():
    grid = TimeGrid.uniform(0, 1, 2000)
    worst = 0.0
    for name in ("brockett", "unicycle", "kinematic_car_chained"):
        entry = get_system(name)
        b = ControlSignal([lambda t: 0.8 + 0.4 * np.sin(4 * t),
                           lambda t: 0.5 * np.cos(3 * t)])
        x0 = np.full(entry.realization.state_dim, 0.2)
        direct = solve_direct(entry.realization, entry.pad_controls(b), x0, grid)
        via = solve_via_group(entry.realization, entry.wn_group_curve(b, grid), x0)
        worst = max(worst, float(np.max(np.abs(direct.states - via.states))))
    return {"weinorman/lie-theorem-oracle": (worst <= 1e-5, worst)}


def check_riccati():
    from .riccati import RiccatiCoeffs, SL2Curve, riccati_residual, transform_coeffs, transform_solution

    grid = TimeGrid.uniform(0, 1, 2000)
    c = RiccatiCoeffs(lambda t: np.sin(t), lambda t: np.cos(t), lambda t: 1.0)
    x = c.solve(0.1, grid)
    A = SL2Curve(lambda t: np.exp(0.2 * np.sin(t)), lambda t: 0.3 * t,
                 lambda t: 0.1 * np.cos(t),
                 lambda t: (1 + 0.03 * t * np.cos(t)) * np.exp(-0.2 * np.sin(t)))
    y = transform_solution(A, x)
    res = riccati_residual(y, transform_coeffs(A, c))
    return {"riccati/affine-action-compatibility": (res <= 1e-5, res)}


def check_quantum():
    from .quantum import SuperpotentialFamily, shape_invariance_residual

    rng = _rng()
    worst = 0.0
    x = np.linspace(0.3, 5.0, 1501)
    for a in (1.5, 0.0):
        for _ in range(10):
            fam = SuperpotentialFamily(
                "linear_in_m", a=a, b=rng.uniform(-1, 1), A=rng.uniform(-0.2, 0.2),
                B=rng.uniform(1.2, 3.0), D=rng.uniform(-1, 1))
            worst = max(worst, shape_invariance_residual(fam, 2.0, x))
    return {"quantum/shape-invariance": (worst <= 1e-9, worst)}


def check_reduction():
    grid = TimeGrid.uniform(0, 1, 1000)
    worst, worst_rec = 0.0, 0.0
    for name in ("h3/a1", "se2/a2a3", "se3/so3"):
        case = catalog_reduction(name)
        b = ControlSignal([lambda t: 0.7 + 0.3 * np.sin(3 * t)] * len(case.used_channels))
        out = run_catalog_reduction(case, b, grid)
        fix = case.fixture_coeffs(b, out["homogeneous"])
        worst = max(worst, float(np.max(np.abs(out["coefficients"] - fix))))
        worst_rec = max(worst_rec, case.reconstruction_gap(b, out["reconstruction"]))
    return {"reduction/fixtures": (worst <= 1e-6, worst),
            "reduction/reconstruction": (worst_rec <= 1e-5, worst_rec)}


_SUITES = {
    "algebra": check_algebra,
    "groups": check_groups,
    "catalog": check_catalog,
    "weinorman": check_lie_theorem,
    "riccati": check_riccati,
    "quantum": check_quantum,
    "reduction": check_reduction,
}


def run_suite(which="all"):
    if which != "all" and which not in _SUITES:
        raise UnknownNameError(f"unknown suite {which!r}; known: all, {', '.join(_SUITES)}")
    out = {}
    names = list(_SUITES) if which == "all" else [which]
    for n in names:
        out.update(_SUITES[n]())
    return out
