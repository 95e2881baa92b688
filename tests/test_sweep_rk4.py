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
import liesys.reduction as R
import liesys.systems as S
from liesys.algebra import LieAlgebra, wn_matrix
from liesys.catalog import get_system, list_systems
from liesys.errors import LieSysError, NumericsError
from liesys.groups import get_chart
from liesys.numerics import TimeGrid, integrate_rk4, linsolve, rk4_stage_times, sweep_rk4
from liesys.reduction import ReductionCase, catalog_reduction, list_reductions
from liesys.riccati import RiccatiCoeffs
from liesys.systems import LieSystemRealization, generator_bracket_residual, solve_direct
from liesys.weinorman import ControlSignal, WNProblem, _wn_solve_rk4
from conftest import LIE_SYSTEMS, smooth_controls
from hand_laws import magnus_loop

GRID = TimeGrid.uniform(0.0, 1.0, 2000)

# the other realizations whose fields are one GEMM (`systems.MatrixField`):
# a one-state GEMM must give the bits of its row in a 512-state one
MATRIX_FIELD_SYSTEMS = [
    ("se3_kinematics", {}, 6, 1.0), ("quadratic_hamiltonian_classical", {}, 5, 1.0),
    ("td_linear_potential_classical", {}, 2, 1.0), ("sl2_linear", {}, 3, 1.0),
    ("sl3_linear", {}, 8, 1.0),
]
DIRECT_SYSTEMS = LIE_SYSTEMS + MATRIX_FIELD_SYSTEMS
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


def counting_sweeps(monkeypatch):
    """Record the first node of the window of every Picard sweep."""
    starts, once = [], N._sweep_once
    monkeypatch.setattr(N, "_sweep_once", lambda *a: starts.append(a[1]) or once(*a))
    return starts


def loop_states(sysr, b, x0, grid):
    """`solve_direct`'s result as the step-by-step loop computes it."""
    def stage(t, x, u):
        sysr.check_domain(t, x)
        return u @ sysr.fields(x)

    return integrate_rk4(stage, x0, grid, table=b(rk4_stage_times(grid))).states


@pytest.mark.parametrize("name,kw,nch,amp", DIRECT_SYSTEMS,
                         ids=[n + "".join(f"{v:+d}" for v in kw.values())
                              for n, kw, _, _ in DIRECT_SYSTEMS])
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


# without a first iterate these took 41, 42, 42, 34 and 40 sweeps
SEEDED = [("so3_kinematics", {}, 3, 1.0), ("elastic_euler", {"eps": 1}, 3, 1.0),
          ("elastic_euler", {"eps": -1}, 3, 0.8), ("sl2_linear", {}, 3, 1.0),
          ("se3_kinematics", {}, 6, 1.0)]


def sweep_count(name, kw, nch, amp, monkeypatch):
    entry = get_system(name, **kw)
    sysr, b = entry.realization, entry.pad_controls(controls(name, nch, amp))
    sweeps = counting_sweeps(monkeypatch)
    solve_direct(sysr, b, np.full(sysr.state_dim, 0.1), GRID)
    return len(sweeps)


@pytest.mark.parametrize("name,kw,nch,amp", SEEDED,
                         ids=[n + "".join(f"{v:+d}" for v in kw.values())
                              for n, kw, _, _ in SEEDED])
def test_matrix_fields_seed_the_sweeps_with_their_step_matrices(name, kw, nch, amp,
                                                                  monkeypatch):
    assert sweep_count(name, kw, nch, amp, monkeypatch) <= 16


# L dependency levels settle in L + 1 sweeps: one window over the whole grid
# for brockett (2 levels) and kinematic_car_chained (3), where 512-step
# windows took 12 and 16; unicycle_feedback's angle feeds back on itself, so
# it has no levels and keeps its 512-step windows
@pytest.mark.parametrize("name,amp,sweeps", [("brockett", 1.0, 3),
                                             ("kinematic_car_chained", 1.0, 4),
                                             ("unicycle_feedback", 0.45, 29)])
def test_levelled_fields_sweep_the_whole_grid_as_one_window(name, amp, sweeps, monkeypatch):
    assert sweep_count(name, {}, 2, amp, monkeypatch) == sweeps


@pytest.mark.parametrize("wrong", ["shifted", "zero", "nan"])
def test_the_first_iterate_changes_only_the_sweep_count(wrong, monkeypatch):
    entry = get_system("so3_kinematics")
    sysr, b = entry.realization, entry.pad_controls(controls("so3_kinematics", 3, 1.0))
    table, x0 = b(rk4_stage_times(GRID)), np.full(3, 0.1)
    first = sysr.fields.rk4_states(table, x0, GRID)
    first = {"shifted": first + 1e-3, "zero": np.zeros_like(first),
             "nan": np.full_like(first, np.nan)}[wrong]

    def stage(t, x, u):
        return (u[:, None, :] @ sysr.fields(x))[:, 0]

    ref = loop_states(sysr, b, x0, GRID)
    sweeps = counting_sweeps(monkeypatch)
    flat = sweep_rk4(stage, x0, GRID, table).states
    flat_sweeps = len(sweeps)
    sweeps.clear()
    starts = counting_loop(monkeypatch)
    got = sweep_rk4(stage, x0, GRID, table, first=first).states
    assert np.array_equal(got, ref) and np.array_equal(flat, ref)
    if wrong == "nan":
        # a non-finite first iterate falls back to the flat windows
        assert starts == [] and len(sweeps) == flat_sweeps


def test_an_overflowing_solve_raises_where_the_loop_does():
    # at eps = -1 the control on a2 drives a hyperbolic flow: the states pass
    # 1e308 near t = 1.76, where the step matrices' products overflow too
    sysr = get_system("elastic_euler", eps=-1).realization
    b, grid = ControlSignal.constant([0.0, 400.0, 0.0]), TimeGrid.uniform(0, 2, 4000)
    x0 = [0.1, 0.2, 0.3]
    first = sysr.fields.rk4_states(b(rk4_stage_times(grid)), x0, grid)
    assert not np.isfinite(first[-1]).all()
    with pytest.raises(NumericsError) as loop, np.errstate(over="ignore", invalid="ignore"):
        loop_states(sysr, b, x0, grid)
    with pytest.raises(NumericsError) as sweep, np.errstate(over="ignore", invalid="ignore"):
        solve_direct(sysr, b, x0, grid)
    assert str(sweep.value) == str(loop.value) == "non-finite RK4 step from t=1.759"
    assert sweep.value.t == loop.value.t
    assert np.array_equal(sweep.value.state, loop.value.state)


@pytest.mark.parametrize("name", list_reductions())
def test_homogeneous_solve_equals_the_single_state_loop(name):
    case = catalog_reduction(name)
    b = controls(name, len(case.used_channels), 1.0)
    table = case.pad_controls(b)(rk4_stage_times(GRID))
    got = case.solve_homogeneous(b, GRID).states
    if case.hom_chart is None:
        ref = integrate_rk4(case.hom_rhs, case.hom_x0, GRID, table=table).states
    else:
        # the Magnus scan against its step-by-step loop on the same table:
        # the scan's log-depth product tree reorders the products
        A = -table[:, case.quotient_indices]
        ref = magnus_loop(case.hom_chart, A[::2], A[1::2], GRID.nodes)
    exact = name not in SQUARING and case.hom_chart is None
    assert np.max(np.abs(got - ref)) <= (0.0 if exact else 1e-13)


# the Geps family's homogeneous solves, seeded with the projection of the
# group's Magnus curve: 41, 42, 36 and 37 sweeps flat, 19, 19, 17 and 15
# seeded
GEPS_CASES = [("su2/a1", {}), ("geps/a1", {"eps": 1}), ("geps/a1", {"eps": 0}),
              ("geps/a1", {"eps": -1})]


def geps_flat_solve(name, kw, monkeypatch):
    """The case, its controls, its homogeneous states from flat windows,
    and the list that records each sweep's first node, holding the flat
    solve's sweeps."""
    case = catalog_reduction(name, **kw)
    b = controls(name + str(kw), 3, 0.8 if kw.get("eps") == -1 else 1.0)
    sweeps = counting_sweeps(monkeypatch)
    flat = sweep_rk4(case.hom_rhs, case.hom_x0, GRID,
                     case.pad_controls(b)(rk4_stage_times(GRID))).states
    return case, b, flat, sweeps


@pytest.mark.parametrize("name,kw", GEPS_CASES, ids=["su2/a1", "geps+1", "geps+0", "geps-1"])
def test_geps_homogeneous_solves_are_seeded_from_the_group(name, kw, monkeypatch):
    case, b, flat, sweeps = geps_flat_solve(name, kw, monkeypatch)
    flat_sweeps = len(sweeps)
    sweeps.clear()
    assert np.array_equal(case.solve_homogeneous(b, GRID).states, flat)
    assert flat_sweeps >= 35 and len(sweeps) <= 20


@pytest.mark.parametrize("wrong", ["shifted", "nan"])
def test_a_wrong_group_seed_changes_only_the_sweep_count(wrong, monkeypatch):
    case, b, flat, _ = geps_flat_solve("su2/a1", {}, monkeypatch)
    project = case.project

    def corrupt(q):
        out = project(q)
        if wrong == "shifted":
            return out + 1e-3
        out[700:900] = np.nan
        return out

    case.project = corrupt
    starts = counting_loop(monkeypatch)
    assert np.array_equal(case.solve_homogeneous(b, GRID).states, flat)
    assert starts == []


# window edges: a remainder of fewer than two steps joins the window
EDGE_GRIDS = [TimeGrid.uniform(0.0, n / 2000, n) for n in (1, 2, 127, 128, 129, 130, 257, 511,
                                                            512, 513, 514, 1023, 1024, 1025, 2000)]
EDGE_GRIDS.append(TimeGrid.from_nodes(np.linspace(0.0, 0.2, 301) ** 1.5))


EDGE_IDS = [f"n{g.n_steps}" for g in EDGE_GRIDS[:-1]] + ["nonuniform"]


@pytest.mark.parametrize("name", ["so3_kinematics", "se3_kinematics"])
@pytest.mark.parametrize("grid", EDGE_GRIDS, ids=EDGE_IDS)
def test_seeded_solves_equal_the_single_state_loop_on_every_edge_grid(grid, name, monkeypatch):
    # the step matrices take each grid's own steps, and a last block of the
    # prefix product shorter than the others pads with the identity
    entry = get_system(name)
    sysr = entry.realization
    b = entry.pad_controls(controls(name, 6 if name == "se3_kinematics" else 3, 1.0))
    x0 = np.full(sysr.state_dim, 0.1)
    ref = loop_states(sysr, b, x0, grid)
    starts = counting_loop(monkeypatch)
    assert np.array_equal(solve_direct(sysr, b, x0, grid).states, ref)
    assert starts == []


LEVELLED_GRIDS = EDGE_GRIDS + [TimeGrid.uniform(0.0, 1.0, 20000)]


@pytest.mark.parametrize("name", ["brockett", "kinematic_car_chained"])
@pytest.mark.parametrize("grid", LEVELLED_GRIDS, ids=EDGE_IDS + ["n20000"])
def test_levelled_solves_equal_the_single_state_loop_on_every_edge_grid(grid, name,
                                                                         monkeypatch):
    entry = get_system(name)
    sysr, b = entry.realization, entry.pad_controls(controls(name, 2, 1.0))
    assert sysr.levels is not None
    x0 = np.full(sysr.state_dim, 0.1)
    ref = loop_states(sysr, b, x0, grid)
    starts = counting_loop(monkeypatch)
    assert np.array_equal(solve_direct(sysr, b, x0, grid).states, ref)
    assert starts == []


def test_a_long_levelled_window_that_fails_restarts_at_the_usual_width(monkeypatch):
    # over ten time units the updates of kinematic_car_chained's first
    # sweeps grow, which fails the whole-grid window at its third sweep; the
    # solve goes on from that frontier in 512-step windows, as it would
    # without levels (156 sweeps), and never runs the loop
    entry = get_system("kinematic_car_chained")
    sysr, b = entry.realization, entry.pad_controls(controls("kinematic_car_chained", 2, 1.0))
    grid, x0 = TimeGrid.uniform(0.0, 10.0, 20000), np.full(4, 0.1)
    ref = loop_states(sysr, b, x0, grid)
    windows, once = [], N._sweep_once
    monkeypatch.setattr(N, "_sweep_once", lambda *a: windows.append(a[1:3]) or once(*a))
    starts = counting_loop(monkeypatch)
    assert np.array_equal(solve_direct(sysr, b, x0, grid).states, ref)
    assert starts == [] and windows[0] == (0, 20000)
    wide = [w for w in windows if w[1] - w[0] > N._WINDOW]
    assert len(wide) == 3 and windows[3][0] == wide[-1][0] and len(windows) == 159
    assert all(e - a == N._WINDOW or e == 20000 for a, e in windows[len(wide):])


# levels that the cyclic so3_kinematics and unicycle_feedback do not have:
# all components in one level, and one level per component
WRONG_LEVELS = [((0, 1, 2),), ((0,), (1,), (2,))]


@pytest.mark.parametrize("name,nch,amp", [("so3_kinematics", 3, 1.0),
                                          ("unicycle_feedback", 2, 0.45)])
@pytest.mark.parametrize("levels", WRONG_LEVELS, ids=["one", "three"])
def test_wrong_levels_change_only_the_sweep_count(name, nch, amp, levels, monkeypatch):
    entry = get_system(name)
    sysr, b = entry.realization, entry.pad_controls(controls(name, nch, amp))
    assert sysr.levels is None
    x0 = np.full(sysr.state_dim, 0.1)
    ref = loop_states(sysr, b, x0, GRID)
    monkeypatch.setattr(sysr, "levels", levels)
    starts = counting_loop(monkeypatch)
    assert np.array_equal(solve_direct(sysr, b, x0, GRID).states, ref)
    assert starts == []


def test_missed_levels_change_only_the_sweep_count(monkeypatch):
    entry = get_system("brockett")
    sysr, b = entry.realization, entry.pad_controls(controls("brockett", 2, 1.0))
    x0 = np.full(3, 0.1)
    levelled = solve_direct(sysr, b, x0, GRID).states
    monkeypatch.setattr(sysr, "levels", None)
    sweeps = counting_sweeps(monkeypatch)
    assert np.array_equal(solve_direct(sysr, b, x0, GRID).states, levelled)
    assert len(sweeps) == 12


# the probe's levels of every catalog realization (elastic_euler at each
# eps) and every catalog reduction; None keeps the 512-step windows
REALIZATION_LEVELS = {
    "brockett": ((0, 1), (2,)), "brockett_variant": ((0, 1), (2,)),
    "brockett_deg2": ((0, 1), (2, 3, 4)), "brockett_deg3": ((0, 1), (2, 3, 4, 5, 6, 7)),
    "chained_n": ((0, 1), (2,), (3,)), "hopping_robot_lin": ((0, 1), (2,)),
    "kinematic_car_chained": ((0, 1), (2,), (3,)), "martinet": ((0, 1), (2, 3)),
    "murray_nonsinusoid": ((0, 1), (2,), (3, 4), (5, 6, 7)),
    "nikolaev_deg2": ((0, 1), (2, 3, 4)), "nikolaev_deg8": ((0, 1), (2, 3, 4, 5, 6)),
    "power_n": ((0, 1), (2, 3)), "rb_two_oscillators": ((0, 1), (2,)),
    "td_linear_potential_classical": ((1,), (0,)), "trailer_power5": ((0, 1), (2, 3, 4)),
    "unicycle": ((2,), (0, 1)),
}
REDUCTION_LEVELS = {
    "g5/center": ((0, 1), (2,)), "g7/ideal": ((0, 1), (2,)), "g8/ideal": ((0, 1), (2,)),
    "gbar4/center": ((0, 1), (2,)), "gbar5/ideal": ((0, 1), (2,)), "h3/a1": ((0,), (1,)),
    "h3/a2": ((0,), (1,)), "h3/a3": ((0, 1),), "se2/a2": ((0,), (1,)), "se2/a2a3": ((0,),),
    "se2/a3": ((0,), (1,)),
}


@pytest.mark.parametrize("name,kw", ALL_ENTRIES + [("elastic_euler", {"eps": e}) for e in (0, -1)],
                         ids=[n for n, _ in ALL_ENTRIES] + ["elastic_euler+0", "elastic_euler-1"])
def test_the_probe_levels_of_every_catalog_realization(name, kw):
    assert get_system(name, **kw).realization.levels == REALIZATION_LEVELS.get(name)


@pytest.mark.parametrize("name,kw", [(n, {}) for n in list_reductions()]
                         + [("geps/a1", {"eps": e}) for e in (0, -1)],
                         ids=list_reductions() + ["geps+0", "geps-1"])
def test_the_probe_levels_of_every_catalog_reduction(name, kw):
    assert catalog_reduction(name, **kw).levels == REDUCTION_LEVELS.get(name)


@pytest.mark.parametrize("grid", EDGE_GRIDS, ids=EDGE_IDS)
def test_riccati_solve_equals_the_single_state_loop(grid):
    c = RiccatiCoeffs(lambda t: np.sin(3 * t), lambda t: np.cos(t), lambda t: 0.8)
    got = c.solve([0.3], grid).states
    ref = integrate_rk4(lambda t, x, u: u[2] * x * x + u[1] * x + u[0], [0.3], grid,
                        table=c(rk4_stage_times(grid))).states
    assert np.array_equal(got, ref)


def test_wei_norman_rk4_equals_the_single_state_loop():
    entry = get_system("so3_kinematics")
    prob = WNProblem(entry.algebra, entry.pad_controls(controls("so3", 3, 1.0)), GRID,
                     entry.ordering())
    got = _wn_solve_rk4(prob, np.zeros(prob.algebra.dim), GRID).states
    ref = integrate_rk4(
        lambda t, v, u: linsolve(wn_matrix(prob.algebra, prob.ordering, v), u),
        np.zeros(3), GRID, table=prob.controls(rk4_stage_times(GRID))).states
    assert np.max(np.abs(got - ref)) <= 1e-13


def _relax(t, x, u):
    # x' = k (cos t - x), with u = (k, k cos t)
    return u[..., 1:] - u[..., :1] * x


def batched_starts(f):
    """f, and the first time of each of its batched calls (the step-by-step
    loop calls it on one state)."""
    starts = []

    def counted(t, x, u):
        if len(t) > 1:
            starts.append(t[0])
        return f(t, x, u)

    return counted, starts


@pytest.mark.parametrize("scale", [1.0, 2.0**-70], ids=["1", "2^-70"])
def test_a_stiff_window_falls_back_and_equals_the_loop(scale, monkeypatch):
    # k dt = 1 is inside RK4's stability interval, but k = 2000 over a
    # window of 512 steps makes the sweeps diverge.  In each of the four
    # windows the first sweep, from the constant state, settles one step,
    # the second one's update grows, and the loop runs the window's other
    # steps.  The roundoff floor is relative to the window's scale, so a
    # forcing of 2^-70 takes the same sweeps
    k, grid = 2000.0, TimeGrid.uniform(0.0, 1.0, 2000)
    s = rk4_stage_times(grid)
    table = np.stack([np.full_like(s, k), scale * k * np.cos(s)], axis=-1)
    ref = integrate_rk4(_relax, [0.0], grid, table=table).states
    f, batched = batched_starts(_relax)
    starts = counting_loop(monkeypatch)
    got = sweep_rk4(f, [0.0], grid, table).states
    assert starts == np.delete(grid.nodes[:-1], [0, 513, 1026, 1539]).tolist()
    assert np.array_equal(got, ref)
    assert len(batched) == 4 * 2 * 4


def test_a_decayed_state_stops_sweeping_within_a_few_sweeps():
    # x' = -2000 x from 1: the sweeps of the first two windows diverge and
    # fall back, the later windows hold a state decayed far below 1 (and
    # then 0), and the relative floor stops each window within two sweeps
    grid = TimeGrid.uniform(0.0, 1.0, 2000)
    table = np.full((4001, 1), 2000.0)

    def decay(t, x, u):
        return -u * x

    ref = integrate_rk4(decay, [1.0], grid, table=table).states
    f, batched = batched_starts(decay)
    got = sweep_rk4(f, [1.0], grid, table).states
    assert np.array_equal(got, ref)
    # each sweep makes four stage calls; 2000 steps take four windows
    assert len(batched) / 4 <= 4 * 2


def stage_calls(module, monkeypatch):
    """Record the batch size of every stage call of the `sweep_rk4` solves
    that `module` runs."""
    calls, sweep = [], module.sweep_rk4
    monkeypatch.setattr(module, "sweep_rk4", lambda f, *a, **kw: sweep(
        lambda t, x, u: calls.append(len(t)) or f(t, x, u), *a, **kw))
    return calls


def test_sweeps_commit_their_settled_rows(monkeypatch):
    # each sweep commits the rows it leaves unchanged and slides on; sweeping
    # every window until all of its rows settle took 648 and 548 stage calls
    starts = counting_loop(monkeypatch)
    direct, homogeneous = stage_calls(S, monkeypatch), stage_calls(R, monkeypatch)
    entry = get_system("so3_kinematics")
    solve_direct(entry.realization, entry.pad_controls(controls("so3_kinematics", 3, 1.0)),
                 np.full(3, 0.1), GRID)
    case = catalog_reduction("su2/a1")
    case.solve_homogeneous(controls("su2/a1", len(case.used_channels), 1.0), GRID)
    assert starts == []
    assert len(direct) <= 164 and len(homogeneous) <= 140


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


def test_a_non_finite_first_step_raises_as_the_loop_does():
    # the first sweep's first changed row is its only committed one, and it
    # is not finite: the loop runs from the start and names step 0
    grid = TimeGrid.uniform(0, 1, 100)
    table = rk4_stage_times(grid)[:, None]

    def f(t, x, u):
        return np.where(u >= 0.0, np.inf, 1.0)

    with pytest.raises(NumericsError) as loop:
        integrate_rk4(f, [0.0], grid, table=table)
    with pytest.raises(NumericsError) as sweep:
        sweep_rk4(f, [0.0], grid, table)
    assert str(sweep.value) == str(loop.value) == "non-finite RK4 step from t=0"
    assert sweep.value.t == loop.value.t == 0.0


def test_an_unconverged_iterate_outside_the_domain_is_not_an_exit(monkeypatch):
    # x' = -1.5 x from 1 stays above 0.22; the first Picard iterate,
    # 1 - 1.5 t, falls below -0.25 before t = 1
    seen_outside = []

    def domain(x):
        inside = x[..., 0] > -0.25
        seen_outside.append(not inside.all())
        return inside

    decay = LieSystemRealization(LieAlgebra(np.zeros((1, 1, 1))), 1,
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
    # the first sweep settles step 0, the second leaves the domain, and the
    # loop runs the other 127 steps
    assert any(seen_outside) and starts == grid.nodes[1:-1].tolist()
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
    return LieSystemRealization(LieAlgebra(np.zeros((1, 1, 1))), 1, **spec)


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
        ReductionCase("h3/single", get_chart("H3", "canonical_first"), (3,), (1, 2),
                      lift_coords=None, expected_coeffs=None, hom_rhs=single, hom_x0=np.zeros(2))


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
