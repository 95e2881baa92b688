import math

import numpy as np
import pytest

import liesys.groups as G
from liesys.algebra import catalog_algebra
from liesys.errors import WNBreakdownError
from liesys.numerics import TimeGrid, Trajectory
from liesys.weinorman import (
    ControlSignal,
    WNProblem,
    flatness_residual,
    wn_matrix,
    wn_reconstruct,
    wn_solve,
)
from conftest import smooth_controls


def test_wn_matrix_identity_at_zero():
    for name in ("h3", "se2", "sl2", "g5"):
        alg = catalog_algebra(name)
        M = wn_matrix(alg, tuple(range(1, alg.dim + 1)), np.zeros(alg.dim))
        assert np.allclose(M, np.eye(alg.dim))


def test_wn_matrix_h3_system():
    # natural ordering: v1' = b1, v2' = b2, v3' = b2 v1
    h3 = catalog_algebra("h3")
    v = np.array([0.8, -0.3, 0.1])
    b = np.array([1.4, -2.0, 0.0])
    rhs = np.linalg.solve(wn_matrix(h3, (1, 2, 3), v), b)
    assert np.allclose(rhs, [1.4, -2.0, -2.0 * 0.8])


def test_wn_matrix_se2_table_row_one():
    se2 = catalog_algebra("se2")
    v = np.array([0.9, 0.2, -0.4])
    b = np.array([0.5, 1.1, 0.0])
    rhs = np.linalg.solve(wn_matrix(se2, (1, 2, 3), v), b)
    assert np.allclose(rhs, [0.5, 1.1 * math.cos(0.9), 1.1 * math.sin(0.9)])


def test_wn_solve_zero_controls(unit_grid):
    h3 = catalog_algebra("h3")
    sol = wn_solve(WNProblem(h3, ControlSignal.constant([0, 0, 0]), unit_grid))
    assert np.all(sol.states == 0.0)


def test_wn_solve_h3_closed_form(unit_grid):
    h3 = catalog_algebra("h3")
    sol = wn_solve(WNProblem(h3, ControlSignal.constant([1, 1, 0]), unit_grid))
    t = unit_grid.nodes
    expected = np.column_stack([t, t, t**2 / 2])
    assert np.max(np.abs(sol.states - expected)) < 1e-12


def test_wn_solve_se2_closed_form(unit_grid):
    se2 = catalog_algebra("se2")
    sol = wn_solve(WNProblem(se2, ControlSignal.constant([1, 1, 0]), unit_grid))
    t = unit_grid.nodes
    expected = np.column_stack([t, np.sin(t), 1 - np.cos(t)])
    assert np.max(np.abs(sol.states - expected)) < 1e-10


def test_fast_path_matches_rk4(unit_grid):
    for name, n in (("h3", None), ("g4", None), ("g5", None),
                    ("gbar", 4), ("gbar", 5), ("gbar", 6)):
        alg = catalog_algebra(name, n=n) if n else catalog_algebra(name)
        b = smooth_controls(alg.dim, seed=alg.dim)
        prob = WNProblem(alg, b, unit_grid)
        quad = wn_solve(prob, method="quadrature")
        rk4 = wn_solve(prob, method="rk4")
        assert np.max(np.abs(quad.states - rk4.states)) < 1e-10, (name, n)


def test_reconstruct_identity(unit_grid):
    h3 = catalog_algebra("h3")
    chart = G.get_chart("H3", "canonical_second", (1, 2, 3))
    sol = wn_solve(WNProblem(h3, ControlSignal.constant([0, 0, 0]), unit_grid))
    curve = wn_reconstruct(sol, (1, 2, 3), chart)
    assert np.all(curve.coords == 0.0)


def test_reconstruct_h3_fixture(unit_grid):
    # b1 = b2 = 1 at t = 1: second-kind coordinates (-1, -1, -1/2)
    h3 = catalog_algebra("h3")
    chart = G.get_chart("H3", "canonical_second", (1, 2, 3))
    sol = wn_solve(WNProblem(h3, ControlSignal.constant([1, 1, 0]), unit_grid))
    curve = wn_reconstruct(sol, (1, 2, 3), chart)
    assert np.allclose(curve.coords[-1], [-1, -1, -0.5], atol=1e-12)


def _reconstruct_by_composition(v, ordering, chart):
    rows = []
    for row in v.states:
        g = chart.identity()
        for i, idx in enumerate(ordering):
            g = G.compose(g, G.exp_chart(chart, idx - 1, -row[i]))
        rows.append(g.coords)
    return np.array(rows)


@pytest.mark.parametrize("key", [
    ("SE2", "canonical_second", (1, 2, 3)), ("H3", "canonical_second", (1, 2, 3)),
    ("G4", "canonical_second", (1, 2, 3, 4)), ("Gbar5", "canonical_second", (1, 2, 3, 4, 5)),
], ids=lambda key: key[0])
def test_second_kind_reconstruct_matches_composition(key, rng):
    # v_1 runs past pi, so the SE2 angle must wrap as the composition does
    chart = G._CHARTS[key]
    grid = TimeGrid.uniform(0.0, 1.0, 8)
    v = Trajectory(grid, rng.uniform(-1.5, 1.5, (9, chart.coord_dim)))
    v.states[:, 0] = np.linspace(0.0, 9.0, 9)
    curve = wn_reconstruct(v, key[2], chart)
    ref = _reconstruct_by_composition(v, key[2], chart)
    assert np.max(np.abs(curve.coords - ref)) < 1e-12
    if key[0] == "SE2":
        assert np.all(np.abs(curve.coords[:, 0]) <= math.pi)
        assert np.any(np.abs(curve.coords[:, 0] + v.states[:, 0]) > 1.0)


@pytest.mark.parametrize("case", [
    ("h3", ("H3", "canonical_second", (1, 2, 3))),
    ("se2", ("SE2", "canonical_second", (1, 2, 3))),
    ("sl2", ("SL2", "matrix", None)),
    ("so3", ("SO3", "matrix", None)),
    ("g5", ("G5", "canonical_second", (1, 2, 3, 4, 5))),
])
def test_defining_residual(case, unit_grid):
    # right log-derivative of the reconstruction equals -sum b_a a_a
    name, key = case
    alg = catalog_algebra(name)
    chart = G._CHARTS[key]
    b = smooth_controls(alg.dim, amp=0.7, seed=len(name))
    prob = WNProblem(alg, b, unit_grid)
    curve = wn_reconstruct(wn_solve(prob), prob.ordering, chart)
    dt = unit_grid.uniform_dt
    worst = 0.0
    for k in range(5, 1995, 77):
        t = unit_grid.nodes[k]
        r = G.right_log_derivative(curve, t, h=dt, order=4)
        worst = max(worst, np.max(np.abs(r + b(t))))
    assert worst < 1e-6, (name, worst)


def test_ordering_independence_of_group_solution(unit_grid):
    # different orderings give different exponents but the same group element
    se2 = catalog_algebra("se2")
    chart = G.get_chart("SE2", "canonical_second", (1, 2, 3))
    b = smooth_controls(3, amp=0.8, seed=5)
    curves = []
    for ordering in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        sol = wn_solve(WNProblem(se2, b, unit_grid, ordering), method="rk4")
        curves.append(wn_reconstruct(sol, ordering, chart))
    for k in range(0, 2001, 100):
        for other in curves[1:]:
            assert np.max(np.abs(curves[0].coords[k] - other.coords[k])) < 1e-6


def test_chained_and_power_identification(rng):
    # ordering (n..1) gives the chained form up to a sign map; (1..n) the power form
    for n in range(3, 7):
        alg = catalog_algebra("gbar", n=n)
        for _ in range(100):
            v = rng.standard_normal(n)
            b = np.zeros(n)
            b[:2] = rng.standard_normal(2)
            rev = tuple(range(n, 0, -1))
            rhs = np.linalg.solve(wn_matrix(alg, rev, v), b)
            # position of a_k in the reversed ordering is n - k
            vd = np.array([rhs[n - k] for k in range(1, n + 1)])
            vv = np.array([v[n - k] for k in range(1, n + 1)])
            expected = np.concatenate([[b[0], b[1]], -b[0] * vv[1:-1]])
            assert np.max(np.abs(vd - expected)) < 1e-12
            rhs = np.linalg.solve(wn_matrix(alg, tuple(range(1, n + 1)), v), b)
            fact = 1.0
            expected = [b[0], b[1]]
            for k in range(3, n + 1):
                fact *= (k - 2)
                expected.append(b[1] * v[0] ** (k - 2) / fact)
            assert np.max(np.abs(rhs - np.array(expected))) < 1e-12


def test_breakdown_is_loud():
    # drive the SL(2) exponent into the chart singularity at v2 ~ pi/2-ish:
    # strong constant b3 with ordering (3, 2, 1) blows up the Riccati exponent
    sl2 = catalog_algebra("sl2")
    grid = TimeGrid.uniform(0, 6.0, 2000)
    b = ControlSignal.constant([4.0, 0.0, 4.0])
    with pytest.raises(WNBreakdownError) as exc:
        wn_solve(WNProblem(sl2, b, grid), method="rk4")
    assert 0 < exc.value.t <= 6.0


def test_breakdown_is_caught_at_the_stage_where_it_happens():
    # reference scan: the unchecked per-call RK4 loop, recording the 1-norm
    # condition number of M(v) at every stage until it first exceeds 1e10
    sl2 = catalog_algebra("sl2")
    grid = TimeGrid.uniform(0, 6.0, 2000)
    b = np.array([4.0, 0.0, 4.0])
    with pytest.raises(WNBreakdownError) as exc:
        wn_solve(WNProblem(sl2, ControlSignal.constant(b), grid), method="rk4")
    first = []

    def f(t, v):
        M = wn_matrix(sl2, (1, 2, 3), v)
        if not first and not np.linalg.cond(M, 1) <= 1e10:
            first.append(t)
        return np.linalg.solve(M, b)

    nodes, v = grid.nodes, np.zeros(3)
    with np.errstate(all="ignore"):
        for k in range(len(nodes) - 1):
            t, dt = nodes[k], nodes[k + 1] - nodes[k]
            k1 = f(t, v)
            k2 = f(t + 0.5 * dt, v + 0.5 * dt * k1)
            k3 = f(t + 0.5 * dt, v + 0.5 * dt * k2)
            v = v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + f(t + dt, v + dt * k3))
            if first:
                break
    assert first, "the reference scan never crossed the bound"
    assert abs(exc.value.t - first[0]) <= grid.uniform_dt
    # the guard reports the condition it measured, not a stand-in
    assert np.isfinite(exc.value.cond) and exc.value.cond > 1e10
    assert f"t={exc.value.t}" in str(exc.value)


# --- the closed-form Wei-Norman tables --------------------------------------------


def _check_table_row(alg, ordering, rhs_fn, rng, b3_zero=False):
    worst = 0.0
    for _ in range(40):
        w = rng.uniform(-0.8, 0.8, 3)
        b = rng.uniform(-1, 1, 3)
        if b3_zero:
            b[2] = 0.0
        got = np.linalg.solve(wn_matrix(alg, ordering, w), b)
        v = np.empty(3)
        for pos, idx in enumerate(ordering):
            v[idx - 1] = w[pos]
        vd = rhs_fn(b, v)
        expect = np.array([vd[idx - 1] for idx in ordering])
        worst = max(worst, float(np.max(np.abs(got - expect))))
    return worst


def test_sl2_wei_norman_table(rng):
    sl2 = catalog_algebra("sl2")
    e = np.exp
    rows = [
        ((1, 2, 3), lambda b, v: [b[0] + b[1] * v[0] + b[2] * v[0] ** 2,
                                  b[1] + 2 * b[2] * v[0], b[2] * e(v[1])]),
        ((3, 2, 1), lambda b, v: [b[0] * e(-v[1]), b[1] - 2 * b[0] * v[2],
                                  b[2] - b[1] * v[2] + b[0] * v[2] ** 2]),
        ((1, 3, 2), lambda b, v: [b[0] + b[1] * v[0] + b[2] * v[0] ** 2,
                                  b[1] + 2 * b[2] * v[0],
                                  b[2] - v[2] * (b[1] + 2 * b[2] * v[0])]),
        ((3, 1, 2), lambda b, v: [b[0] + v[0] * (b[1] - 2 * b[0] * v[2]),
                                  b[1] - 2 * b[0] * v[2],
                                  b[2] - b[1] * v[2] + b[0] * v[2] ** 2]),
        ((2, 3, 1), lambda b, v: [b[0] * e(-v[1]),
                                  b[1] - 2 * b[0] * e(-v[1]) * v[2],
                                  b[2] * e(v[1]) - b[0] * e(-v[1]) * v[2] ** 2]),
        ((2, 1, 3), lambda b, v: [b[0] * e(-v[1]) - b[2] * e(v[1]) * v[0] ** 2,
                                  b[1] + 2 * b[2] * e(v[1]) * v[0], b[2] * e(v[1])]),
    ]
    for ordering, rhs in rows:
        assert _check_table_row(sl2, ordering, rhs, rng) < 1e-12, ordering


def test_so3_wei_norman_table(rng):
    so3 = catalog_algebra("so3")
    c, s, tn = np.cos, np.sin, np.tan
    rows = [
        ((1, 2, 3), lambda b, v: [b[0] + (b[2] * c(v[0]) + b[1] * s(v[0])) * tn(v[1]),
                                  b[1] * c(v[0]) - b[2] * s(v[0]),
                                  (b[2] * c(v[0]) + b[1] * s(v[0])) / c(v[1])]),
        ((2, 3, 1), lambda b, v: [(b[0] * c(v[1]) + b[2] * s(v[1])) / c(v[2]),
                                  b[1] + (b[0] * c(v[1]) + b[2] * s(v[1])) * tn(v[2]),
                                  b[2] * c(v[1]) - b[0] * s(v[1])]),
        ((3, 1, 2), lambda b, v: [b[0] * c(v[2]) - b[1] * s(v[2]),
                                  (b[1] * c(v[2]) + b[0] * s(v[2])) / c(v[0]),
                                  b[2] + (b[1] * c(v[2]) + b[0] * s(v[2])) * tn(v[0])]),
        ((1, 3, 2), lambda b, v: [b[0] + (b[2] * s(v[0]) - b[1] * c(v[0])) * tn(v[2]),
                                  (b[1] * c(v[0]) - b[2] * s(v[0])) / c(v[2]),
                                  b[2] * c(v[0]) + b[1] * s(v[0])]),
        ((2, 1, 3), lambda b, v: [b[0] * c(v[1]) + b[2] * s(v[1]),
                                  b[1] + (b[0] * s(v[1]) - b[2] * c(v[1])) * tn(v[0]),
                                  (b[2] * c(v[1]) - b[0] * s(v[1])) / c(v[0])]),
        ((3, 2, 1), lambda b, v: [(b[0] * c(v[2]) - b[1] * s(v[2])) / c(v[1]),
                                  b[1] * c(v[2]) + b[0] * s(v[2]),
                                  b[2] + (b[1] * s(v[2]) - b[0] * c(v[2])) * tn(v[1])]),
    ]
    for ordering, rhs in rows:
        assert _check_table_row(so3, ordering, rhs, rng) < 1e-12, ordering


@pytest.mark.parametrize("eps", [-1, 0, 1])
def test_geps_wei_norman_table(eps, rng):
    from liesys.groups import Ceps, Seps

    ge = catalog_algebra("g_eps", eps=eps)
    C = lambda x: Ceps(eps, x)
    S = lambda x: Seps(eps, x)
    T = lambda x: S(x) / C(x) if eps else x
    c, s, tn = np.cos, np.sin, np.tan
    rows = [
        ((1, 2, 3), lambda b, v: [b[0] + eps * (b[2] * c(v[0]) + b[1] * s(v[0])) * T(v[1]),
                                  b[1] * c(v[0]) - b[2] * s(v[0]),
                                  (b[2] * c(v[0]) + b[1] * s(v[0])) / C(v[1])]),
        ((2, 3, 1), lambda b, v: [(b[0] * C(v[1]) + eps * b[2] * S(v[1])) / C(v[2]),
                                  b[1] + (b[0] * C(v[1]) + eps * b[2] * S(v[1])) * T(v[2]),
                                  b[2] * C(v[1]) - b[0] * S(v[1])]),
        ((3, 1, 2), lambda b, v: [b[0] * C(v[2]) - eps * b[1] * S(v[2]),
                                  (b[1] * C(v[2]) + b[0] * S(v[2])) / c(v[0]),
                                  b[2] + (b[1] * C(v[2]) + b[0] * S(v[2])) * tn(v[0])]),
        ((1, 3, 2), lambda b, v: [b[0] + eps * (b[2] * s(v[0]) - b[1] * c(v[0])) * T(v[2]),
                                  (b[1] * c(v[0]) - b[2] * s(v[0])) / C(v[2]),
                                  b[2] * c(v[0]) + b[1] * s(v[0])]),
        ((2, 1, 3), lambda b, v: [b[0] * C(v[1]) + eps * b[2] * S(v[1]),
                                  b[1] + (b[0] * S(v[1]) - b[2] * C(v[1])) * tn(v[0]),
                                  (b[2] * C(v[1]) - b[0] * S(v[1])) / c(v[0])]),
        ((3, 2, 1), lambda b, v: [(b[0] * C(v[2]) - eps * b[1] * S(v[2])) / C(v[1]),
                                  b[1] * C(v[2]) + b[0] * S(v[2]),
                                  b[2] + (eps * b[1] * S(v[2]) - b[0] * C(v[2])) * T(v[1])]),
    ]
    for ordering, rhs in rows:
        assert _check_table_row(ge, ordering, rhs, rng) < 1e-12, (eps, ordering)


def test_se2_wei_norman_table(rng):
    # the two-control table; row 3 as printed carries v2 where direct
    # evaluation of the fundamental expression gives v3 (reconciled here)
    se2 = catalog_algebra("se2")
    c, s, tn = np.cos, np.sin, np.tan
    rows = [
        ((1, 2, 3), lambda b, v: [b[0], b[1] * c(v[0]), b[1] * s(v[0])]),
        ((2, 3, 1), lambda b, v: [b[0], b[1] + b[0] * v[2], -b[0] * v[1]]),
        ((3, 1, 2), lambda b, v: [b[0], (b[1] + b[0] * v[2]) / c(v[0]),
                                  (b[1] + b[0] * v[2]) * tn(v[0])]),
        ((2, 1, 3), lambda b, v: [b[0], b[1] + b[0] * v[1] * tn(v[0]),
                                  -b[0] * v[1] / c(v[0])]),
    ]
    for ordering, rhs in rows:
        assert _check_table_row(se2, ordering, rhs, rng, b3_zero=True) < 1e-12, ordering


# --- flatness -------------------------------------------------------------------


def test_flatness_constant_commuting_fields():
    alg = catalog_algebra("h3")

    def bf(x1, x2):
        return np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -2.0]])  # central directions

    assert flatness_residual(bf, alg, (0, 1), (0, 1), n=6) < 1e-12


def _h3_pure_gauge_field():
    # right log-derivative of a smooth map into H(3) (first-kind coordinates)
    def f(x1, x2):
        return np.array([0.3 * np.sin(x1) + 0.1 * x2,
                         0.2 * x1 * x2,
                         0.1 * np.cos(x1 + x2)])

    def df(x1, x2):
        d1 = np.array([0.3 * np.cos(x1), 0.2 * x2, -0.1 * np.sin(x1 + x2)])
        d2 = np.array([0.1, 0.2 * x1, -0.1 * np.sin(x1 + x2)])
        return d1, d2

    def bf(x1, x2):
        a, b, c = f(x1, x2)
        out = []
        for d in df(x1, x2):
            out.append([d[0], d[1], d[2] - 0.5 * (b * d[0] - a * d[1])])
        return np.array(out)

    return bf


def test_flatness_pure_gauge_h3():
    alg = catalog_algebra("h3")
    assert flatness_residual(_h3_pure_gauge_field(), alg, (0, 1), (0, 1),
                             n=11, h=1e-3) < 1e-6


def test_flatness_nonflat_hand_value():
    # b1 = a1, b2 = x1 a2: residual field a2 - x1 a3, sup over the patch = 2
    alg = catalog_algebra("h3")

    def bf(x1, x2):
        return np.array([[1.0, 0.0, 0.0], [0.0, x1, 0.0]])

    res = flatness_residual(bf, alg, (0, 2), (0, 1), n=11, h=1e-3)
    assert abs(res - 2.0) / 2.0 < 0.05
