import os
import subprocess
import sys

import numpy as np
import pytest

import liesys.groups as G
from liesys.algebra import catalog_algebra
from liesys.catalog import get_system, list_systems
from liesys.errors import UnknownNameError
from liesys.numerics import TimeGrid, integrate_rk4, interp_columns
from liesys.systems import (
    action_property_residual,
    generator_bracket_residual,
    solve_direct,
    solve_via_group,
)
from liesys.weinorman import ControlSignal, WNProblem, wn_matrix, wn_solve
from conftest import smooth_controls
from hand_laws import CLOSED_FLOWS, FIELDS, WN_CLOSED

GRID = TimeGrid.uniform(0.0, 1.0, 2000)

ALL_ENTRIES = [(n, {"eps": 1} if n == "elastic_euler" else {}) for n in list_systems()]


@pytest.mark.parametrize("name,kw", ALL_ENTRIES, ids=[n for n, _ in ALL_ENTRIES])
def test_generator_bracket_consistency(name, kw, rng):
    entry = get_system(name, **kw)
    sysr = entry.realization
    pts = rng.uniform(-0.5, 0.5, (20, sysr.state_dim))
    assert generator_bracket_residual(sysr, pts) < 2e-4


@pytest.mark.parametrize("name,kw", ALL_ENTRIES, ids=[n for n, _ in ALL_ENTRIES])
def test_action_properties(name, kw, rng):
    entry = get_system(name, **kw)
    sysr = entry.realization
    if sysr.action is None:
        pytest.skip("no action cataloged")
    chart = sysr.action_chart
    els = []
    from liesys.groups import compose, exp_chart

    for k in range(8):
        g = chart.identity()
        for i in range(chart.algebra.dim):
            g = compose(g, exp_chart(chart, i, 0.3 * rng.standard_normal()))
        els.append(g.coords)
    pts = rng.uniform(-0.3, 0.3, (5, sysr.state_dim))
    assert action_property_residual(sysr, np.array(els), pts) < 1e-8
    # (..., d) coordinates give (..., state_dim) states, point by point
    coords = G.exp_algebra(chart, 0.4 * rng.standard_normal((3, 7, chart.algebra.dim)))
    whole = sysr.action(coords, pts[0])
    single = np.array([[sysr.action(c, pts[0]) for c in row] for row in coords])
    assert whole.shape == (3, 7, sysr.state_dim)
    assert np.max(np.abs(whole - single)) <= 1e-15 * max(1.0, np.max(np.abs(single)))


@pytest.mark.parametrize("name,eps", sorted(FIELDS, key=str), ids=str)
def test_representation_fields_match_hand_rows(name, eps, rng):
    entry = get_system(name, **({} if eps is None else {"eps": eps}))
    fields = entry.realization.fields
    for x in rng.uniform(-3.0, 3.0, (50, entry.realization.state_dim)):
        assert np.max(np.abs(fields(x) - FIELDS[name, eps](x))) <= 1e-15


def test_brockett_bracket_is_two_dz(rng):
    entry = get_system("brockett")
    for _ in range(20):
        x = rng.uniform(-1, 1, 3)
        assert np.allclose(entry.realization.fields(x)[2], [0, 0, 2])


def test_chained3_equals_brockett_variant_up_to_sign(rng):
    chained = get_system("chained_n", n=3).realization
    variant = get_system("brockett_variant").realization
    # documented sign map: (x1, x2, x3) -> (x, y, -z)
    flip = np.array([1.0, 1.0, -1.0])
    for _ in range(25):
        x = rng.uniform(-1, 1, 3)
        for i in range(3):
            lhs = chained.fields(x)[i] * flip
            rhs = variant.fields(x * flip)[i]
            assert np.allclose(lhs, rhs), i


def test_elastic_eps0_recovers_unicycle_wn(rng):
    geps0 = get_system("elastic_euler", eps=0).algebra
    se2 = get_system("unicycle").algebra
    for _ in range(25):
        v = rng.standard_normal(3)
        b = np.array([rng.standard_normal(), rng.standard_normal(), 0.0])
        lhs = np.linalg.solve(wn_matrix(geps0, (1, 2, 3), v), b)
        rhs = np.linalg.solve(wn_matrix(se2, (1, 2, 3), v), b)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_unicycle_feedback_equivalence(rng):
    # Y1 = cos^2(x3) X1, Y2 = X2 / cos(x3) pointwise
    uni = get_system("unicycle").realization
    fb = get_system("unicycle_feedback").realization
    for _ in range(20):
        x = rng.uniform(-0.5, 0.5, 3)
        c = np.cos(x[2])
        assert np.max(np.abs(fb.fields(x)[0] - c**2 * uni.fields(x)[0])) < 1e-10
        assert np.max(np.abs(fb.fields(x)[1] - uni.fields(x)[1] / c)) < 1e-10


@pytest.mark.parametrize("name", sorted(WN_CLOSED))
def test_wn_closed_forms_match_solver(name):
    entry = get_system(name)
    bp = entry.pad_controls(smooth_controls(2, seed=len(name)))
    v = wn_solve(WNProblem(entry.algebra, bp, GRID, entry.ordering()))
    assert np.max(np.abs(v.states - WN_CLOSED[name](bp, GRID))) < 1e-12


CLOSED_FLOW_X0 = {"unicycle": [0.2, -0.1, 0.3], "brockett": [0.1, 0.2, -0.3],
                  "affine_scalar": [0.7], "driven_oscillator": [0.4, -0.2],
                  "td_linear_potential_classical": [0.3, 0.8]}


@pytest.mark.parametrize("name", sorted(CLOSED_FLOWS))
def test_closed_form_solutions(name):
    entry = get_system(name)
    x0 = CLOSED_FLOW_X0[name]
    bp = entry.pad_controls(smooth_controls(2, seed=3 * len(name)))
    direct = solve_direct(entry.realization, bp, x0, GRID)
    assert np.max(np.abs(direct.states - CLOSED_FLOWS[name](bp, GRID, x0))) < 1e-6


def test_closed_form_zero_controls():
    b = get_system("unicycle").pad_controls(ControlSignal.constant([0.0, 0.0]))
    closed = CLOSED_FLOWS["unicycle"](b, GRID, [0.4, 0.5, -0.2])
    assert np.max(np.abs(closed - [0.4, 0.5, -0.2])) < 1e-12


def test_td_linear_potential_fixture():
    # f = 1, m = 1: p = p0 - t, q = q0 + p0 t - t^2/2
    name = "td_linear_potential_classical"
    b = get_system(name).pad_controls(ControlSignal.constant([1.0, -1.0]))
    closed = CLOSED_FLOWS[name](b, GRID, [0.5, 0.25])
    t = GRID.nodes
    assert np.max(np.abs(closed[:, 1] - (0.25 - t))) < 1e-10
    assert np.max(np.abs(closed[:, 0] - (0.5 + 0.25 * t - t**2 / 2))) < 1e-10


def test_controllability_smoke(rng):
    full_rank = ["brockett", "rb_two_oscillators", "brockett_deg2", "unicycle",
                 "kinematic_car_chained", "martinet", "murray_nonsinusoid"]
    for name in full_rank:
        entry = get_system(name)
        sysr = entry.realization
        for _ in range(10):
            x = rng.uniform(-0.6, 0.6, sysr.state_dim)
            # use the catalog generators directly: they span the orbit
            vals = sysr.fields(x).T
            sv = np.linalg.svd(vals, compute_uv=False)
            rank = int(np.sum(sv > 1e-8 * sv[0]))
            assert rank == sysr.state_dim, (name, rank)


def test_brockett_deg3_orbit_rank(rng):
    entry = get_system("brockett_deg3")
    sysr = entry.realization
    for _ in range(10):
        x = rng.uniform(-0.6, 0.6, 8)
        vals = sysr.fields(x).T
        sv = np.linalg.svd(vals, compute_uv=False)
        rank = int(np.sum(sv > 1e-8 * sv[0]))
        assert rank == 7        # orbit dimension, not the full space


def _function_space_rank(fields, pts):
    """Rank of vector fields as functions: stack samples at many points."""
    rows = [np.concatenate([np.asarray(F(x), float) for x in pts]) for F in fields]
    sv = np.linalg.svd(np.stack(rows), compute_uv=False)
    return int(np.sum(sv > 1e-5 * sv[0]))


def _nested_brackets(Y1, Y2, dim, levels, h=1e-3):
    def jac(F, x):
        J = np.empty((dim, dim))
        for j in range(dim):
            e = np.zeros(dim)
            e[j] = h
            J[:, j] = (np.asarray(F(x + e), float) - np.asarray(F(x - e), float)) / (2 * h)
        return J

    def bracket(F, G):
        return lambda x: jac(G, x) @ np.asarray(F(x), float) - jac(F, x) @ np.asarray(G(x), float)

    out = [Y1, Y2]
    current = bracket(Y1, Y2)
    out.append(current)
    for _ in range(levels - 1):
        current = bracket(Y1, current)
        out.append(current)
    return out


def test_trailer_not_a_lie_system(rng):
    # the original trailer realization: brackets iterated against Y1 keep
    # producing functionally independent fields, so no finite-dimensional
    # algebra closes; the unicycle for contrast stalls at dimension 3
    l = d = 1.0

    def Y1(x):
        return np.array([
            np.cos(x[2]) * np.cos(x[3]),
            np.cos(x[2]) * np.sin(x[3]),
            0.0,
            np.sin(x[2]) / l,
            np.sin(x[3] - x[4]) * np.cos(x[2]) / d,
        ])

    def Y2(x):
        return np.array([0.0, 0.0, 1.0, 0.0, 0.0])

    pts = rng.uniform(-0.5, 0.5, (12, 5))
    fields = _nested_brackets(Y1, Y2, 5, levels=3)
    assert _function_space_rank(fields, pts) == len(fields) == 5

    uni = get_system("unicycle").realization
    upts = rng.uniform(-0.5, 0.5, (12, 3))
    ufields = _nested_brackets(lambda x: uni.fields(x)[0], lambda x: uni.fields(x)[1], 3,
                               levels=3)
    assert _function_space_rank(ufields, upts) == 3


def test_quadratic_hamiltonian_wn_system(rng):
    # five-coordinate Wei-Norman system for the ordering (4, 5, 1, 2, 3)
    alg = get_system("quadratic_hamiltonian_classical").algebra
    for _ in range(25):
        w = rng.uniform(-0.7, 0.7, 5)
        b = rng.uniform(-1, 1, 5)
        got = np.linalg.solve(wn_matrix(alg, (4, 5, 1, 2, 3), w), b)
        v = np.empty(5)
        for pos, idx in enumerate((4, 5, 1, 2, 3)):
            v[idx - 1] = w[pos]
        expected_basis = [
            b[0] + b[1] * v[0] + b[2] * v[0] ** 2,
            b[1] + 2 * b[2] * v[0],
            np.exp(v[1]) * b[2],
            b[3] + 0.5 * b[1] * v[3] + b[0] * v[4],
            b[4] - b[2] * v[3] - 0.5 * b[1] * v[4],
        ]
        expected = np.array([expected_basis[idx - 1] for idx in (4, 5, 1, 2, 3)])
        assert np.max(np.abs(got - expected)) < 1e-12


def test_sl3_matrix_riccati_reduction_chain():
    # known particular solutions strip the matrix Riccati equation down to a
    # traceless linear block; the same change of variables reduces the
    # linear realization on R^3
    rng = np.random.default_rng(17)
    co = rng.uniform(-0.4, 0.4, (8, 2))
    b = ControlSignal([
        (lambda t, c=co[i]: c[0] + c[1] * np.sin(3 * t)) for i in range(8)])
    entry = get_system("sl3_matrix_riccati")
    grid = TimeGrid.uniform(0, 1, 2000)
    Y1 = solve_direct(entry.realization, b, [0.1, -0.2], grid)   # particular solution
    nodes = grid.nodes

    def Mfun(t):
        bv = b(t)
        return np.array([[0.5 * (bv[1] + bv[3]), bv[0]],
                         [-bv[2], 0.5 * (bv[3] - bv[1])]])

    def M1fun(t):
        y = interp_columns(t, nodes, Y1.states)
        C = np.array([b(t)[6], b(t)[7]])
        return Mfun(t) + float(y @ C) * np.eye(2) + np.outer(y, C)

    U1 = integrate_rk4(
        lambda t, u: -np.array([b(t)[6], b(t)[7]]) - M1fun(t).T @ u,
        [0.0, 0.0], grid)
    afun = integrate_rk4(
        lambda t, a: np.array([a[0] * np.trace(M1fun(t))]), [1.0], grid)

    # reduced coefficients: b1' = b1 + b8 y11, b2' = b2 + b7 y11 - b8 y12,
    # b3' = b3 - b7 y12, all others zero
    lin = get_system("sl3_linear")
    y0 = np.array([0.3, -0.1, 0.8])
    traj = solve_direct(lin.realization, b, y0, grid)

    def change(k):
        y = traj.states[k]
        y1 = Y1.states[k]
        u = U1.states[k]
        a = afun.states[k, 0]
        out = np.empty(3)
        out[0] = (y[0] - y1[0] * y[2]) * a ** (-1 / 6)
        out[1] = (y[1] - y1[1] * y[2]) * a ** (-1 / 6)
        out[2] = ((1 + y1[0] * u[0] + y1[1] * u[1]) * y[2]
                  - u[0] * y[0] - u[1] * y[1]) * a ** (1 / 3)
        return out

    changed = np.stack([change(k) for k in range(len(nodes))])

    def reduced_rhs(t, y):
        bv = b(t)
        y11, y12 = interp_columns(t, nodes, Y1.states)
        b1p = bv[0] + bv[7] * y11
        b2p = bv[1] + bv[6] * y11 - bv[7] * y12
        b3p = bv[2] - bv[6] * y12
        M2 = np.array([[0.5 * b2p, b1p, 0.0], [-b3p, -0.5 * b2p, 0.0],
                       [0.0, 0.0, 0.0]])
        return M2 @ y

    check = integrate_rk4(reduced_rhs, changed[0], grid)
    assert np.max(np.abs(check.states - changed)) < 1e-6


def test_unknown_system():
    with pytest.raises(UnknownNameError):
        get_system("does_not_exist")
    with pytest.raises(UnknownNameError):
        get_system("chained_n", n=99)


def test_family_parameter_cap():
    assert get_system("chained_n", n=10).algebra.dim == 10
    assert get_system("power_n", n=10).realization.state_dim == 10


def test_a_float_family_parameter_names_the_integral_member_in_a_fresh_process():
    # the caches are keyed after the one normalising rule: gbar's n = 6.0
    # raised TypeError until n = 6 had been built and then returned gbar6,
    # n = 5.5 raised TypeError, and chained_n's default n = 4 was cached
    # apart from n = 4; a fresh process has built no gbar6 yet
    import liesys

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(liesys.__file__)))
    code = """if True:
        from liesys.algebra import catalog_algebra
        from liesys.catalog import get_system
        from liesys.errors import UnknownNameError
        before = catalog_algebra("gbar", n=6.0)
        assert before is catalog_algebra("gbar", n=6) is catalog_algebra("gbar", n=6.0)
        assert before.name == "gbar6" and before.dim == 6
        for bad in (5.5, 1, None, float("inf")):
            try:
                catalog_algebra("gbar", n=bad)
                raise SystemExit(f"gbar n={bad!r} was accepted")
            except UnknownNameError as exc:
                assert str(exc) == f"gbar requires an integral n >= 2, got {bad!r}", exc
        entry = get_system("chained_n")
        assert entry is get_system("chained_n", n=4) is get_system("chained_n", n=4.0)
        assert get_system("power_n", n=5.0) is get_system("power_n", n=5)
        print("ok")
    """
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0 and out.stdout.split() == ["ok"], out.stderr


def test_geps_family_takes_integral_floats():
    # f"{eps:+d}" rejected 1.0 with a ValueError from the format code
    for eps in (-1.0, 0.0, 1.0):
        assert G.get_chart("Geps", "matrix", eps=eps) is G.get_chart("Geps", "matrix", eps=int(eps))
        entry = get_system("elastic_euler", eps=eps)
        assert entry.algebra is get_system("elastic_euler", eps=int(eps)).algebra
        assert entry.realization.name == f"elastic_euler(eps={int(eps):+d})"
    for bad in (0.5, 2, "1", float("nan")):
        for build in (lambda: G.get_chart("Geps", "matrix", eps=bad),
                      lambda: get_system("elastic_euler", eps=bad),
                      lambda: catalog_algebra("g_eps", eps=bad)):
            with pytest.raises(UnknownNameError, match=r"eps in \{-1, 0, 1\}"):
                build()
