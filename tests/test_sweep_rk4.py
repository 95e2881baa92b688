"""The windowed Picard sweeps of `numerics.sweep_rk4` against the
step-by-step loop they replace: `integrate_rk4` with the right-hand side
evaluated one state at a time.

Where the batched right-hand side rounds like the single-state one, the two
are bitwise equal; the Wei-Norman rates solve stacked matrices, so they are
held to 1e-13.  The batch guard of realizations and reductions, and the
batched bracket residual, are checked here too.
"""

import zlib

import numpy as np
import pytest

import liesys.numerics as N
from liesys.algebra import LieAlgebra, wn_matrix
from liesys.catalog import get_system, list_systems
from liesys.errors import LieSysError, NumericsError
from liesys.groups import get_chart
from liesys.numerics import TimeGrid, integrate_rk4, linsolve, rk4_stage_times, sweep_rk4
from liesys.reduction import ReductionCase, catalog_reduction, list_reductions
from liesys.riccati import RiccatiCoeffs
from liesys.systems import LieSystemRealization, generator_bracket_residual, solve_direct
from liesys.weinorman import ControlSignal, WNProblem, wn_solve
from conftest import smooth_controls

GRID = TimeGrid.uniform(0.0, 1.0, 2000)

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
ALL_ENTRIES = [(n, {"eps": 1} if n == "elastic_euler" else {}) for n in list_systems()]
# reductions whose hom_rhs squares a component: on one state y.T[0] is a
# numpy scalar, whose ** calls pow, while a batch squares by multiplication
SQUARING = {"geps/a1", "su2/a1", "sl2/a1a2", "sl2/a2a3"}


def controls(name, nch, amp):
    return smooth_controls(nch, amp=amp, seed=zlib.crc32(name.encode()) % 997)


def counting_loop(monkeypatch):
    """Record the start of every step the step-by-step loop takes."""
    starts, step = [], N.rk4_step
    monkeypatch.setattr(N, "rk4_step", lambda f, t, *a: starts.append(t) or step(f, t, *a))
    return starts


@pytest.mark.parametrize("name,kw,nch,amp", LIE_SYSTEMS,
                         ids=[n + "".join(f"{v:+d}" for v in kw.values())
                              for n, kw, _, _ in LIE_SYSTEMS])
def test_solve_direct_equals_the_single_state_loop(name, kw, nch, amp, monkeypatch):
    entry = get_system(name, **kw)
    sysr, b = entry.realization, entry.pad_controls(controls(name, nch, amp))
    x0 = np.full(sysr.state_dim, 0.1)

    def stage(t, x, u):
        sysr.check_domain(t, x)
        return u @ sysr.fields(x)

    ref = integrate_rk4(stage, x0, GRID, table=b(rk4_stage_times(GRID))).states
    starts = counting_loop(monkeypatch)
    got = solve_direct(sysr, b, x0, GRID).states
    assert starts == []            # no window fell back to the loop
    assert np.array_equal(got, ref)


@pytest.mark.parametrize("name", list_reductions())
def test_homogeneous_solve_equals_the_single_state_loop(name):
    case = catalog_reduction(name)
    b = controls(name, len(case.used_channels), 1.0)
    table = case.pad_controls(b)(rk4_stage_times(GRID))
    got = case.solve_homogeneous(b, GRID).states
    ref = integrate_rk4(case.hom_rhs, case.hom_x0, GRID, table=table).states
    assert np.max(np.abs(got - ref)) <= (1e-13 if name in SQUARING else 0.0)


def test_riccati_solve_equals_the_single_state_loop():
    c = RiccatiCoeffs(lambda t: np.sin(3 * t), lambda t: np.cos(t), lambda t: 0.8)
    got = c.solve([0.3], GRID).states
    ref = integrate_rk4(lambda t, x, u: u[2] * x * x + u[1] * x + u[0], [0.3], GRID,
                        table=c(rk4_stage_times(GRID))).states
    assert np.array_equal(got, ref)


def test_wei_norman_rk4_equals_the_single_state_loop():
    entry = get_system("so3_kinematics")
    prob = WNProblem(entry.algebra, entry.pad_controls(controls("so3", 3, 1.0)), GRID,
                     entry.ordering())
    got = wn_solve(prob, method="rk4").states
    ref = integrate_rk4(
        lambda t, v, u: linsolve(wn_matrix(prob.algebra, prob.ordering, v), u, 1e10),
        np.zeros(3), GRID, table=prob.controls(rk4_stage_times(GRID))).states
    assert np.max(np.abs(got - ref)) <= 1e-13


def _relax(t, x, u):
    # x' = k (cos t - x), with u = (k, k cos t)
    return u[..., 1:] - u[..., :1] * x


def test_a_stiff_window_falls_back_and_equals_the_loop(monkeypatch):
    # k dt = 1 is inside RK4's stability interval, but k = 2000 over a
    # window of 128 steps makes every window's sweeps diverge
    k, grid = 2000.0, TimeGrid.uniform(0.0, 1.0, 2000)
    s = rk4_stage_times(grid)
    table = np.stack([np.full_like(s, k), k * np.cos(s)], axis=-1)
    ref = integrate_rk4(_relax, [0.0], grid, table=table).states
    starts = counting_loop(monkeypatch)
    got = sweep_rk4(_relax, [0.0], grid, table).states
    assert starts == grid.nodes[:-1].tolist()
    assert np.array_equal(got, ref)


def test_a_non_finite_stage_mid_window_raises_as_the_loop_does():
    grid = TimeGrid.uniform(0, 1, 100)
    table = rk4_stage_times(grid)[:, None]

    def f(t, x, u):
        return np.where(u >= 0.5, np.inf, 1.0)

    with pytest.raises(NumericsError) as loop:
        integrate_rk4(f, [0.0], grid, table=table)
    with pytest.raises(NumericsError) as sweep:
        sweep_rk4(f, [0.0], grid, table)
    assert str(sweep.value) == str(loop.value) == "non-finite RK4 step from t=0.49"
    assert sweep.value.t == loop.value.t == grid.nodes[49]
    assert np.array_equal(sweep.value.state, loop.value.state)


def test_an_unconverged_iterate_outside_the_domain_is_not_an_exit(monkeypatch):
    # x' = -1.5 x from 1 stays above 0.22; the first Picard iterate,
    # 1 - 1.5 t, falls below -0.25 before t = 1
    seen_outside = []

    def domain(x):
        inside = x[..., 0] > -0.25
        seen_outside.append(not inside.all())
        return inside

    decay = LieSystemRealization(LieAlgebra(1, np.zeros((1, 1, 1))), 1,
                                 lambda x: -np.asarray(x)[..., None, :], domain=domain,
                                 name="decay")
    grid, b = TimeGrid.uniform(0.0, 1.0, 128), ControlSignal.constant([1.5])
    table = b(rk4_stage_times(grid))

    def stage(t, x, u):
        decay.check_domain(t, x)
        return u @ decay.fields(x)

    ref = integrate_rk4(stage, [1.0], grid, table=table).states
    seen_outside.clear()
    starts = counting_loop(monkeypatch)
    got = solve_direct(decay, b, [1.0], grid).states
    assert any(seen_outside) and len(starts) == 128
    assert np.array_equal(got, ref)
    assert got.min() > 0.2


@pytest.mark.parametrize("name,kw", ALL_ENTRIES, ids=[n for n, _ in ALL_ENTRIES])
def test_batched_fields_equal_the_single_state_calls(name, kw):
    sysr = get_system(name, **kw).realization
    X = np.random.default_rng(zlib.crc32(name.encode())).uniform(-0.5, 0.5, (7, sysr.state_dim))
    F = sysr.fields(X)
    assert F.shape == (7, sysr.algebra.dim, sysr.state_dim)
    for i, x in enumerate(X):
        assert np.array_equal(F[i], sysr.fields(x))
    if sysr.domain is not None:
        inside = sysr.domain(X)
        assert inside.shape == (7,) and inside.all()
        assert [bool(sysr.domain(x)) for x in X] == inside.tolist()


def _line(**kw):
    spec = dict(fields=lambda x: np.ones(np.shape(x)[:-1] + (1, 1)), name="line")
    spec.update(kw)
    return LieSystemRealization(LieAlgebra(1, np.zeros((1, 1, 1))), 1, **spec)


def test_single_state_fields_and_domains_are_refused():
    _line()
    with pytest.raises(LieSysError, match=r"^line: fields: a batch of 2 states gives \(1, 1\)"):
        _line(fields=lambda x: np.ones((1, 1)))
    with pytest.raises(LieSysError, match=r"^line: domain: a batch of 2 states gives \(\)"):
        _line(domain=lambda x: not 0.54 < x[0] < 0.56)
    # a batch that mixes up its rows differs from the single calls
    with pytest.raises(LieSysError, match=r"^line: fields: a batch of 2 states differs"):
        _line(fields=lambda x: np.full(np.shape(x)[:-1] + (1, 1), np.mean(x)))


def test_a_single_state_hom_rhs_is_refused():
    def single(t, y, b):
        return np.array([-b[0], -b[1]])

    with pytest.raises(LieSysError, match=r"^h3/single: hom_rhs: a batch of 4 states"):
        ReductionCase("h3/single", get_chart("H3", "canonical_first"), (3,), (1, 2), 2,
                      single, np.zeros(2), None, None)


@pytest.mark.parametrize("name,kw", ALL_ENTRIES, ids=[n for n, _ in ALL_ENTRIES])
def test_bracket_residual_equals_the_per_point_loop(name, kw):
    sysr = get_system(name, **kw).realization
    pts = np.random.default_rng(zlib.crc32(name.encode())).uniform(-0.5, 0.5, (6, sysr.state_dim))
    h, worst = 1e-5, 0.0
    for x in pts:
        V = sysr.fields(x)
        J = np.stack([N.central_diff(lambda s: sysr.fields(x + s * e), 0.0, h)
                      for e in np.eye(sysr.state_dim)], axis=-1)
        lb = np.einsum("bij,aj->abi", J, V) - np.einsum("aij,bj->abi", J, V)
        expect = np.einsum("abg,gi->abi", sysr.algebra.structure, V)
        worst = max(worst, float(np.max(np.abs(lb - expect))))
    assert abs(generator_bracket_residual(sysr, pts, h) - worst) <= 1e-15
