import itertools
import json
import math
import os
import subprocess
import sys
import zlib

import numpy as np
import pytest

import liesys.groups as G
import liesys.numerics as N
import liesys.weinorman as W
from liesys.algebra import LieAlgebra, catalog_algebra, catalog_names, exp_ad_basis
from liesys.catalog import get_system, list_systems
from liesys.errors import NumericsError, WNBreakdownError
from liesys.numerics import TimeGrid, Trajectory
from liesys.systems import solve_direct, solve_via_group
from liesys.weinorman import (
    ControlSignal,
    WNProblem,
    flatness_residual,
    wn_matrix,
    wn_reconstruct,
    wn_solve,
)
from conftest import LIE_SYSTEMS, smooth_controls
from hand_laws import WN_CLOSED


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


def _dense_wn_matrix(alg, ordering, v):
    """The reference M(v): each factor's full matrix from `exp_ad_basis`,
    their prefix products formed left to right, and column i read off the
    product of the factors before it."""
    r = alg.dim
    minus_v = -np.asarray(v, dtype=float)
    M = np.empty(minus_v.shape[:-1] + (r, r))
    P = np.eye(r)
    for i, idx in enumerate(ordering):
        M[..., i] = P[..., idx - 1]
        if i < r - 1:
            F = exp_ad_basis(alg, idx - 1, minus_v[..., i])
            P = F if i == 0 else P @ F
    return M


def _catalog_orderings():
    """(algebra, ordering) pairs: every catalog algebra in each ordering a
    catalog system solves it in (its natural ordering where none does), and
    each of those reversed."""
    entries = ([get_system(name) for name in list_systems()]
               + [get_system("elastic_euler", eps=e) for e in (-1, 0)]
               + [get_system(f, n=n) for f in ("chained_n", "power_n") for n in range(3, 11)])
    algebras = ([catalog_algebra(name) for name in catalog_names() if name not in ("gbar", "g_eps")]
                + [catalog_algebra("g_eps", eps=e) for e in (-1, 0, 1)]
                + [catalog_algebra("gbar", n=n) for n in range(2, 11)])
    cases = []
    for alg in algebras:
        natural = (tuple(range(1, alg.dim + 1)),)
        orderings = sorted({e.ordering() for e in entries if e.algebra is alg}) or natural
        cases += [(alg, o) for ordering in orderings for o in (ordering, ordering[::-1])]
    return cases


@pytest.mark.parametrize("alg, ordering", _catalog_orderings(), ids=lambda x: (
    x.name if isinstance(x, LieAlgebra) else ",".join(map(str, x))))
def test_wn_matrix_matches_the_dense_product(alg, ordering):
    # every leading shape of the callers: one vector, a grid of them and the
    # dependency probe's (3, r + 1); each matrix within 4 eps of its largest
    # entry, a batch its single calls bit for bit, and the result writable
    r = alg.dim
    rng = np.random.default_rng(zlib.crc32(f"{alg.name}{ordering}".encode()))
    for shape in ((), (40,), (3, r + 1)):
        v = rng.standard_normal(shape + (r,))
        M = wn_matrix(alg, ordering, v)
        ref = _dense_wn_matrix(alg, ordering, v)
        assert M.shape == shape + (r, r) and M.flags.writeable
        scale = np.abs(ref).max(axis=(-2, -1), keepdims=True)
        assert (np.abs(M - ref) <= 4 * np.finfo(float).eps * scale).all()
        single = [wn_matrix(alg, ordering, x) for x in v.reshape(-1, r)]
        assert np.array_equal(M, np.reshape(single, M.shape))


def test_no_wn_plan_is_built_at_import():
    # the benchmark times import and catalog set-up, so plans wait for the
    # first wn_matrix call
    import liesys

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(liesys.__file__)))
    code = ("from liesys.algebra import _cache; "
            "from liesys.catalog import get_system, list_systems; "
            "[get_system(s) for s in list_systems()]; "
            "print(len(_cache), sum(len(a._wn_plans) for a in _cache.values()))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    algebras, plans = out.stdout.split()
    assert int(algebras) > 10 and plans == "0"


def test_wn_matrix_plans_once_per_ordering():
    alg = LieAlgebra(catalog_algebra("so3").structure, "so3-copy")
    assert alg._wn_plans == {}
    wn_matrix(alg, (1, 2, 3), np.zeros(3))
    plan = alg._wn_plans[(1, 2, 3)]
    wn_matrix(alg, [1, 2, 3], np.ones((4, 3)))
    assert alg._wn_plans == {(1, 2, 3): plan}
    # every factor, each with its 5 nonzero entries: the rotation's fixed 1
    # and the four of its plane
    assert [len(entries) for _, entries in plan] == [5, 5, 5]


def test_a_problem_refuses_a_bad_ordering_or_channel_count(unit_grid):
    # malformed input, so ValueError (the CLI's parse error), naming r
    so3 = catalog_algebra("so3")
    with pytest.raises(ValueError, match=r"^ordering must be a permutation of 1\.\.3, "
                                         r"got \(1, 2\)$"):
        WNProblem(so3, ControlSignal.constant([1, 1, 1]), unit_grid, (1, 2))
    with pytest.raises(ValueError, match=r"^controls give 2 channels; need one per basis "
                                         r"element \(3\)$"):
        WNProblem(so3, ControlSignal.constant([1, 1]), unit_grid)


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


def test_fast_path_matches_rk4(unit_grid, monkeypatch):
    for name, kw, ordering in (("h3", {}, None), ("g4", {}, None), ("g5", {}, None),
                               ("gbar", {"n": 4}, None), ("gbar", {"n": 5}, None),
                               ("gbar", {"n": 6}, None), ("se2", {}, None),
                               ("g_eps", {"eps": 0}, None), ("aff", {}, (2, 1))):
        alg = catalog_algebra(name, **kw)
        b = smooth_controls(alg.dim, seed=alg.dim)
        prob = WNProblem(alg, b, unit_grid, ordering)
        rk4 = _rk4(prob)
        with monkeypatch.context() as patch:
            patch.setattr(N, "rk4_step", lambda *a: pytest.fail("rk4_step ran"))
            quad = wn_solve(prob)
        assert np.max(np.abs(quad.states - rk4.states)) < 1e-10, (name, kw)


def test_levelled_unicycle_matches_its_closed_form(unit_grid):
    entry = get_system("unicycle")
    b = entry.pad_controls(smooth_controls(2, seed=7))
    v = wn_solve(WNProblem(entry.algebra, b, unit_grid, entry.ordering()))
    assert np.max(np.abs(v.states - WN_CLOSED["unicycle"](b, unit_grid))) <= 1e-15


@pytest.mark.parametrize("name,kw,ordering,levels,cycle", [
    ("se2", {}, (1, 2, 3), ((0,), (1, 2)), ()),
    ("g_eps", {"eps": 0}, (1, 2, 3), ((0,), (1, 2)), ()),
    ("aff", {}, (2, 1), ((0,), (1,)), ()),
    ("h3", {}, (1, 2, 3), ((0, 1), (2,)), ()),
    ("aff", {}, (1, 2), None, (0,)),
    ("so3", {}, (1, 2, 3), None, (0, 1)),
    ("g_eps", {"eps": 1}, (1, 2, 3), None, (0, 1)),
    ("g_eps", {"eps": -1}, (1, 2, 3), None, (0, 1)),
])
def test_dependency_levels(name, kw, ordering, levels, cycle):
    # exponent positions: the rate of the a2 exponent of aff ordered (2, 1)
    # is b2 alone, that of the a1 exponent is e^{-v} b1.  A finite difference
    # of the rates at one point checks the claim: each level depends on no
    # later exponent, and each exponent of `cycle` on another of `cycle`, so
    # a dependency cycle runs through them
    alg = catalog_algebra(name, **kw)
    assert W._dependency_levels(alg, ordering) == levels
    rng = np.random.default_rng(7)
    v, b = rng.standard_normal(alg.dim), rng.standard_normal(alg.dim)

    def rates(v):
        return np.linalg.solve(wn_matrix(alg, ordering, v), b)

    depends = np.column_stack([np.abs(rates(v + 0.3 * e) - rates(v)) > 1e-8
                               for e in np.eye(alg.dim)])
    for depth, level in enumerate(levels or ()):
        later = [j for lv in levels[depth:] for j in lv]
        assert not depends[np.ix_(level, later)].any()
    assert bool(cycle) == (levels is None)
    assert depends[np.ix_(cycle, cycle)].any(axis=1).all()


def _single_call_levels(alg, ordering):
    """The levels as one probe call found them before the probe was shared:
    three random points and their r moved copies, with one b per point,
    through one np.linalg.solve, where a non-finite rate counted as not
    moved."""
    r = alg.dim
    rng = np.random.default_rng(12345)
    v = np.repeat(rng.standard_normal((3, 1, r)), r + 1, axis=1)
    v[:, np.arange(1, r + 1), np.arange(r)] = rng.standard_normal((3, r))
    b = rng.standard_normal((3, 1, r, 1))
    f = np.linalg.solve(wn_matrix(alg, ordering, v), b)[..., 0]
    depends = (np.abs(f[:, 1:] - f[:, :1]) > 1e-8 * np.maximum(1.0, np.abs(f[:, :1]))
               ).any(axis=0).T
    levels, placed = [], np.zeros(r, dtype=bool)
    while not placed.all():
        ready = ~placed & ~depends[:, ~placed].any(axis=1)
        if not ready.any():
            return None
        levels.append(tuple(np.flatnonzero(ready).tolist()))
        placed |= ready
    return tuple(levels)


def _wn_orderings():
    """Every catalog entry's algebra and ordering, and every ordering of the
    algebras of dimension 4 or less among them (`liesys wei-norman
    --ordering` reaches any)."""
    entries = [get_system(n) for n in list_systems()]
    entries += [get_system("elastic_euler", eps=e) for e in (0, -1)]
    out = {(e.algebra.name, e.ordering()): e.algebra for e in entries}
    for alg in {e.algebra.name: e.algebra for e in entries if e.algebra.dim <= 4}.values():
        out.update({(alg.name, p): alg for p in itertools.permutations(range(1, alg.dim + 1))})
    return out


def test_the_shared_probe_finds_the_levels_one_probe_call_found():
    orderings = _wn_orderings()
    assert len(orderings) == 131
    for (name, ordering), alg in orderings.items():
        fresh = LieAlgebra(alg.structure, alg.name)
        assert W._dependency_levels(fresh, ordering) == _single_call_levels(alg, ordering), \
            (name, ordering)


def test_auto_method_probes_dependency_levels_once_per_ordering(monkeypatch):
    # the probe is N._PROBES np.linalg.solve calls on (r + 1, r, r) stacks
    # (the sweeps and the guard never call it); fresh algebra instances
    # start with an empty cache and share it with no other
    grid = TimeGrid.uniform(0.0, 1.0, 40)
    probes = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda M, b: probes.append(M.shape) or solve(M, b))
    for name, orderings in (("h3", [(1, 2, 3)]), ("so3", [(1, 2, 3)]),
                            ("se2", [(1, 2, 3), (2, 1, 3)])):
        base = catalog_algebra(name)
        r = base.dim
        for copy in range(2):
            alg = LieAlgebra(base.structure, base.name)
            probes.clear()
            for ordering in orderings * 3:
                wn_solve(WNProblem(alg, smooth_controls(alg.dim, seed=3), grid, ordering))
            assert probes == [(r + 1, r, r)] * (N._PROBES * len(orderings)), (name, copy)


def _rk4(prob):
    """The RK4 route over the problem's grid from v = 0, the sweeps' reference."""
    return W._wn_solve_rk4(prob, np.zeros(prob.algebra.dim), prob.grid)


def _unregistered(prob):
    """The problem on a copy of its algebra, for which no chart is filed
    (`groups.second_kind_chart`), so that its cyclic sweeps start flat."""
    alg = LieAlgebra(prob.algebra.structure, prob.algebra.name)
    return WNProblem(alg, prob.controls, prob.grid, prob.ordering)


def _windows(monkeypatch):
    """Patch the sweep and the RK4 step: the grids of the windows swept, in
    order; an RK4 step fails the test."""
    windows = []
    sweep = W._sweep
    monkeypatch.setattr(W, "_sweep", lambda *a: windows.append(a[4]) or sweep(*a))
    monkeypatch.setattr(N, "rk4_step", lambda *a: pytest.fail("rk4_step ran"))
    return windows


def _sweeps_against_rk4(prob, monkeypatch):
    rk4 = _rk4(prob).states
    with monkeypatch.context() as patch:
        windows = _windows(patch)
        got = wn_solve(prob).states
    assert windows
    return float(np.max(np.abs(got - rk4)))


@pytest.mark.parametrize("name,kw,ordering", [
    ("so3", {}, None), ("sl2", {}, None), ("g_eps", {"eps": 1}, None),
    ("g_eps", {"eps": -1}, None), ("aff", {}, (1, 2))])
def test_sweeps_match_rk4_on_cyclic_orderings(name, kw, ordering, unit_grid, monkeypatch):
    alg = catalog_algebra(name, **kw)
    prob = WNProblem(alg, smooth_controls(alg.dim, seed=alg.dim), unit_grid, ordering)
    assert W._dependency_levels(alg, prob.ordering) is None
    assert _sweeps_against_rk4(prob, monkeypatch) < 1e-10


@pytest.mark.parametrize("name,kw,amp", [("so3_kinematics", {}, 1.0),
                                         ("elastic_euler", {"eps": 1}, 1.0),
                                         ("elastic_euler", {"eps": -1}, 0.8)])
def test_sweeps_match_rk4_on_cyclic_criterion_1_systems(name, kw, amp, unit_grid, monkeypatch):
    entry = get_system(name, **kw)
    label = name + "".join(f"[{k}={v}]" for k, v in kw.items())
    b = entry.pad_controls(_lie_oracle_controls(1, label, 3, amp))
    prob = WNProblem(entry.algebra, b, unit_grid, entry.ordering())
    assert _sweeps_against_rk4(prob, monkeypatch) < 1e-10


@pytest.mark.parametrize("n", [129, 130, 257, 513, 514, 1999, 2000])
def test_sweep_windows_at_the_grid_end(n, monkeypatch):
    # each sweep covers _WINDOW steps from the frontier, and a remainder of
    # fewer than two steps joins the window; every commit but the one that
    # reaches the grid end covers an even number of steps, so each window
    # starts on an even node and Simpson's pairs stay on the grid's
    grid = TimeGrid.uniform(0.0, n / 2000, n)
    prob = WNProblem(catalog_algebra("so3"), smooth_controls(3, seed=3), grid)
    rk4 = _rk4(prob).states
    windows = _windows(monkeypatch)
    got = wn_solve(prob).states
    spans = [(np.searchsorted(grid.nodes, w.t0), np.searchsorted(grid.nodes, w.t1))
             for w in windows]
    assert spans[0] == (0, n if n <= N._WINDOW + 1 else N._WINDOW)
    assert all(a % 2 == 0 for a, _ in spans)
    assert all(e == n or (e - a == N._WINDOW and n - e >= 2) for a, e in spans)
    assert np.max(np.abs(got - rk4)) < 1e-10


def test_sweep_windows_halve_and_grow_back(monkeypatch):
    # v1' = 3 cos t (1 - v1^2) on [0, 6]: windows of 512, 256 and 128 steps
    # do not contract, a 64-step one does, and the width doubles back to 512
    # as the frontier advances.  Both rules are fourth order at dt = 0.003;
    # against RK4 on 16000 steps the sweeps are off by 1.3e-9 and RK4 on
    # this grid by 1.5e-10
    grid = TimeGrid.uniform(0.0, 6.0, 2000)
    b = ControlSignal([lambda t: 3 * np.cos(t), lambda t: 0 * t, lambda t: -3 * np.cos(t)])
    prob = _unregistered(WNProblem(catalog_algebra("sl2"), b, grid))
    rk4 = _rk4(prob).states
    windows = _windows(monkeypatch)
    got = wn_solve(prob).states
    widths = [w.n_steps for w in windows]
    assert widths[0] == N._WINDOW and 64 in widths
    assert N._WINDOW in widths[widths.index(64):]
    assert np.max(np.abs(got - rk4)) < 1e-8


def test_cyclic_ordering_on_a_non_uniform_grid_runs_rk4():
    nodes = np.linspace(0.0, 1.0, 201) ** 1.5
    prob = WNProblem(catalog_algebra("so3"), smooth_controls(3, seed=3), TimeGrid.from_nodes(nodes))
    assert np.array_equal(wn_solve(prob).states, _rk4(prob).states)


def test_a_fast_rotation_is_no_breakdown_on_either_route():
    # v1 = 1e9 t about a1 keeps M(v) a rotation however large v1 grows; the
    # non-uniform grid runs the RK4 route, the uniform one the sweeps
    entry = get_system("so3_kinematics")
    b = ControlSignal.constant([1e9, 0.0, 0.0])
    for grid in (TimeGrid.from_nodes(np.linspace(0.0, 1.0, 2001) ** 1.5),
                 TimeGrid.uniform(0.0, 1.0, 2000)):
        v = wn_solve(WNProblem(entry.algebra, b, grid, entry.ordering())).states
        assert np.max(np.abs(v[:, 0] - 1e9 * grid.nodes)) <= 16 * np.finfo(float).eps * 1e9
        assert not v[:, 1:].any()


def _lie_oracle_controls(seed, label, n_channels, amp):
    """The benchmark's lie_oracle draw for one system (perfbench/workloads.py):
    seeded by crc32 of 'seed/lie_oracle/label'."""
    rng = np.random.default_rng(zlib.crc32(f"{seed}/lie_oracle/{label}".encode()))
    co = rng.uniform(-amp, amp, (n_channels, 3))
    fr = rng.uniform(0.5, 2.0, (n_channels, 2))
    return ControlSignal([
        (lambda t, c=co[i], f=fr[i]:
         c[0] + c[1] * np.sin(2 * np.pi * f[0] * t) + c[2] * np.cos(2 * np.pi * f[1] * t))
        for i in range(n_channels)])


def _curves(name, b):
    entry = get_system(name)
    return [entry.wn_group_curve(b, TimeGrid.uniform(0.0, 1.0, n)) for n in (2000, 4000)]


def test_curve_stays_on_so3_between_nodes():
    # interpolating the matrix entries linearly left SO(3) here by 1.33e-7
    coarse, fine = _curves("so3_kinematics", _lie_oracle_controls(1, "so3_kinematics", 3, 1.0))
    g = coarse(0.5 * (coarse.grid.nodes[0] + coarse.grid.nodes[1])).coords
    assert coarse.chart.constraint_fn(g) <= 1e-14
    assert np.max(np.abs(g - fine.coords[1])) <= 3e-7


def test_unicycle_curve_is_continuous_past_pi():
    # theta turns at rate 5, through 5 rad: the angle keeps growing past pi,
    # off-node points follow the finer curve there, and the group route
    # agrees with the direct solve on both unicycles
    b = ControlSignal.constant([5.0, 1.0])
    coarse, fine = _curves("unicycle", b)
    theta = np.abs(coarse.coords[:, 0])
    assert theta[-1] > 4.9 and np.max(np.abs(np.diff(coarse.coords[:, 0]))) <= 5.0 / 2000 + 1e-12
    k = int(np.argmax(theta > math.pi))
    for j in (k - 1, k, len(theta) - 2):
        g = coarse(0.5 * (coarse.grid.nodes[j] + coarse.grid.nodes[j + 1])).coords
        assert np.max(np.abs(g - fine.coords[2 * j + 1])) <= 1e-8, j
    for name in ("unicycle", "unicycle_y"):
        entry, x0 = get_system(name), np.array([0.1, 0.2, 0.3])
        direct = solve_direct(entry.realization, entry.pad_controls(b), x0, coarse.grid)
        via = solve_via_group(entry.realization, entry.wn_group_curve(b, coarse.grid), x0)
        assert np.max(np.abs(via.states - direct.states)) <= 1e-10, name


@pytest.mark.parametrize("key", [("SE2", "canonical_second", (1, 2, 3)), ("SL2", "matrix", None),
                                 ("Geps(-1)", "quaternion", None), ("G5", "canonical_first", None)],
                         ids=lambda key: key[0])
def test_curve_on_a_one_parameter_subgroup_off_nodes_and_beyond_the_ends(key):
    # g(t) = exp(t xi) g0 has the constant right log-derivative xi; the node
    # differences recover it to second order, and off-node points follow it
    chart = G._CHARTS[key]
    xi = np.array([7.0, 1.0, -0.5, 0.3, 0.2])[:chart.algebra.dim]
    g0 = G.exp_algebra(chart, np.linspace(0.4, -0.3, chart.algebra.dim))
    grid = TimeGrid.uniform(0.0, 1.0, 100)
    exact = lambda t: chart.compose_fn(G.exp_algebra(chart, np.multiply.outer(t, xi)), g0)
    curve = W.GroupCurve(chart, grid, G._on_chart(chart, exact(grid.nodes)))
    for t in (-0.013, 0.0049, 0.5051, 0.99, 1.02):
        got = curve(t).coords
        gap = got - exact(t)
        assert np.max(np.abs(gap)) <= 1e-4 * np.max(np.abs(got)), t


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


def _reconstruct_by_expm(v, ordering, chart):
    """The batched reconstruction with each factor from `exp_algebra` of
    one-hot vectors, which on a matrix chart is `expm` of the representation."""
    coords = None
    for i, idx in enumerate(ordering):
        xi = np.zeros(v.states.shape)
        xi[:, idx - 1] = -v.states[:, i]
        factor = G.exp_algebra(chart, xi)
        coords = factor if coords is None else chart.compose_fn(coords, factor)
    return coords


@pytest.mark.parametrize("name,kw,amp", [
    ("elastic_euler", {"eps": 1}, 1.0), ("elastic_euler", {"eps": 0}, 1.0),
    ("elastic_euler", {"eps": -1}, 0.8), ("so3_kinematics", {}, 1.0)])
def test_matrix_chart_reconstruction_matches_the_expm_route(name, kw, amp, unit_grid):
    # every factor is in closed form: rotations, and for eps = -1 also the
    # projector form of a2 and a3
    entry = get_system(name, **kw)
    label = name + "".join(f"[{k}={v}]" for k, v in kw.items())
    b = entry.pad_controls(_lie_oracle_controls(1, label, 3, amp))
    v = wn_solve(WNProblem(entry.algebra, b, unit_grid, entry.ordering()))
    chart = entry.realization.action_chart
    assert chart.chart_kind == "matrix"
    got = wn_reconstruct(v, entry.ordering(), chart).coords
    assert all(chart._exp_rules[i].closed_form for i in range(3))
    assert np.max(np.abs(got - _reconstruct_by_expm(v, entry.ordering(), chart))) <= 1e-14


def test_non_cubic_representation_falls_back_and_matches_the_expm_route():
    # SL(3)'s a4 = diag(-1, -1, 2) / 6 has three eigenvalues of different size
    chart = G.get_chart("SL3", "matrix")
    grid = TimeGrid.uniform(0.0, 1.0, 40)
    v = Trajectory(grid, np.random.default_rng(8).uniform(-1.5, 1.5, (41, 8)))
    ordering = tuple(range(1, 9))
    got = wn_reconstruct(v, ordering, chart).coords
    assert [i + 1 for i in range(8) if not chart._exp_rules[i].closed_form] == [4]
    ref = _reconstruct_by_expm(v, ordering, chart)
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("key", [
    ("SE2", "canonical_second", (1, 2, 3)), ("H3", "canonical_second", (1, 2, 3)),
    ("G4", "canonical_second", (1, 2, 3, 4)), ("Gbar5", "canonical_second", (1, 2, 3, 4, 5)),
], ids=lambda key: key[0])
def test_second_kind_reconstruct_matches_composition(key, rng):
    # v_1 runs past pi, and the SE2 angle follows it as the composition does
    chart = G._CHARTS[key]
    grid = TimeGrid.uniform(0.0, 1.0, 8)
    v = Trajectory(grid, rng.uniform(-1.5, 1.5, (9, chart.coord_dim)))
    v.states[:, 0] = np.linspace(0.0, 9.0, 9)
    curve = wn_reconstruct(v, key[2], chart)
    ref = _reconstruct_by_composition(v, key[2], chart)
    assert np.max(np.abs(curve.coords - ref)) < 1e-12
    if key[0] == "SE2":
        assert np.array_equal(curve.coords[:, 0], -v.states[:, 0])


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
        sol = _rk4(WNProblem(se2, b, unit_grid, ordering))
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
        _rk4(WNProblem(sl2, b, grid))
    assert 0 < exc.value.t <= 6.0


def test_breakdown_is_caught_at_the_stage_where_it_happens():
    # reference scan: the unchecked per-call RK4 loop, recording the 1-norm
    # condition number of M(v) at every stage until it first exceeds 1e10
    sl2 = catalog_algebra("sl2")
    grid = TimeGrid.uniform(0, 6.0, 2000)
    b = np.array([4.0, 0.0, 4.0])
    with pytest.raises(WNBreakdownError) as exc:
        _rk4(WNProblem(sl2, ControlSignal.constant(b), grid))
    first = []

    def f(t, v):
        M = wn_matrix(sl2, (1, 2, 3), v)
        if not first and not np.linalg.cond(M, 1) <= 1e10:
            first.append(t)
        # past the bound M(v) can be exactly singular (an entry e^{-v_2}
        # underflows to 0), and the scan stops after this step anyway
        return np.zeros(3) if first else np.linalg.solve(M, b)

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


def test_breakdown_on_the_sweep_path_is_caught_by_the_guard(monkeypatch):
    # the sl2 problem above: v(t) = (tan 4t, -2 ln cos 4t, tan 4t) blows up
    # at t = pi/8 = 0.3927.  The sweeps' two-step windows stop converging a
    # few steps before it and RK4 takes each over; its condition guard
    # fires where the RK4 route alone does
    sl2 = catalog_algebra("sl2")
    grid = TimeGrid.uniform(0, 6.0, 2000)
    prob = WNProblem(sl2, ControlSignal.constant([4.0, 0.0, 4.0]), grid)
    with pytest.raises(WNBreakdownError) as alone:
        _rk4(prob)
    windows, taken_over = [], []
    sweep, rk4 = W._sweep, W._wn_solve_rk4
    monkeypatch.setattr(W, "_sweep", lambda *a: windows.append(a[4]) or sweep(*a))
    monkeypatch.setattr(W, "_wn_solve_rk4",
                        lambda p, v0, g: taken_over.append(g) or rk4(p, v0, g))
    with pytest.raises(WNBreakdownError) as exc:
        wn_solve(prob)
    t, cond = exc.value.t, exc.value.cond
    assert 0.3795 <= t <= 0.3945
    assert abs(t - alone.value.t) <= grid.uniform_dt
    assert windows[-1].n_steps == 2
    assert taken_over and all(len(g.nodes) == 3 for g in taken_over)
    assert taken_over[-1].t0 <= t <= taken_over[-1].t1
    # the guard reports the condition it measured, not a stand-in
    assert math.isfinite(cond) and cond > 1e10
    assert f"near t={t}" in str(exc.value)


@pytest.mark.parametrize("name,kw,amp,n", [("so3_kinematics", {}, 1.0, 2000),
                                           ("so3_kinematics", {}, 1.0, 999),
                                           ("elastic_euler", {"eps": 1}, 1.0, 2000),
                                           ("elastic_euler", {"eps": -1}, 0.8, 2000)])
def test_stalled_sweep_windows_run_by_rk4(name, kw, amp, n, monkeypatch):
    # every sweep fails, so the windows halve to two steps (three at the end
    # of an odd grid) and RK4 takes each over from the last node solved: the
    # steps are the grid's, so the result is the RK4 route's to the last bit
    entry = get_system(name, **kw)
    label = name + "".join(f"[{k}={v}]" for k, v in kw.items())
    b = entry.pad_controls(_lie_oracle_controls(1, label, 3, amp))
    prob = WNProblem(entry.algebra, b, TimeGrid.uniform(0.0, n / 2000, n), entry.ordering())
    ref = _rk4(prob).states
    failed = []

    def fail(*a):
        failed.append(a[4])
        raise NumericsError("forced sweep failure")

    monkeypatch.setattr(W, "_sweep", fail)
    assert np.array_equal(wn_solve(prob).states, ref)
    assert len(failed) >= n // 2
    assert {w.n_steps for w in failed} >= {N._WINDOW, 2}


def test_breakdown_on_the_levelled_path_names_the_node(monkeypatch):
    # aff ordered (2, 1): v1 = 25 t, and M(v) has 1-norm condition e^{v1},
    # which first exceeds 1e10 at the node after t = ln(1e10) / 25 = 0.92103
    steps = []
    monkeypatch.setattr(N, "rk4_step", lambda *a: steps.append(a) or pytest.fail("rk4_step ran"))
    grid = TimeGrid.uniform(0.0, 1.0, 2000)
    prob = WNProblem(catalog_algebra("aff"), ControlSignal.constant([1.0, 25.0]), grid, (2, 1))
    with pytest.raises(WNBreakdownError) as exc:
        wn_solve(prob)
    assert exc.value.node == 1843 and exc.value.t == grid.nodes[1843] == 0.9215
    assert exc.value.cond == pytest.approx(math.exp(25 * 0.9215), rel=1e-9)
    assert exc.value.cond == pytest.approx(1.01e10, rel=3e-3)
    assert "at node 1843 near t=0.9215 (cond~1.01e+10)" in str(exc.value)
    assert not steps


def test_sweep_path_guards_each_node_once_at_the_solved_exponents(monkeypatch):
    # the cyclic sweeps solve unguarded, so a lower bound leaves the solution
    # as it is, and the guard over it names the first node past the bound
    entry = get_system("so3_kinematics")
    b = entry.pad_controls(_lie_oracle_controls(2101, "so3_kinematics", 3, 1.0))
    grid = TimeGrid.uniform(0.0, 1.0, 2000)
    prob = WNProblem(entry.algebra, b, grid, entry.ordering())
    v = wn_solve(prob).states
    # the guard's own condition, ||M||_1 ||M^-1||_1 from the inverse it solves by
    M = wn_matrix(entry.algebra, entry.ordering(), v)
    S = N._entries(M)
    cond = N._norm1(S) * N._norm1(N._inverse(M, S))
    bound = cond[1000]
    k = int(np.argmax(cond > bound))
    assert cond[k] > bound
    monkeypatch.setattr(N, "_BREAKDOWN_COND", bound)
    monkeypatch.setattr(N, "rk4_step", lambda *a: pytest.fail("rk4_step ran"))
    with pytest.raises(WNBreakdownError) as exc:
        wn_solve(prob)
    assert exc.value.node == k and exc.value.t == grid.nodes[k]
    assert exc.value.cond == cond[k]


def test_a_singular_matrix_in_a_sweep_fails_only_its_window(monkeypatch):
    # the third sweep's M(v) gets two equal rows at node 300: its solve
    # gives non-finite rates from there on instead of raising, that sweep's
    # window fails and halves, and the solve goes on to the same exponents
    entry = get_system("so3_kinematics")
    b = entry.pad_controls(_lie_oracle_controls(1, "so3_kinematics", 3, 1.0))
    prob = _unregistered(WNProblem(entry.algebra, b, TimeGrid.uniform(0.0, 1.0, 2000),
                                   entry.ordering()))
    ref = wn_solve(prob).states
    wn, sweep = W.wn_matrix, W._sweep
    stacks, windows, swept = [], [], []

    def singular(alg, ordering, v):
        M = wn(alg, ordering, v)
        stacks.append(M)
        if len(stacks) == 3:
            M[300, 2] = M[300, 1]
        return M

    def record(*a):
        windows.append((a[4].t0, a[4].n_steps))
        swept.append(sweep(*a))
        return swept[-1]

    monkeypatch.setattr(W, "wn_matrix", singular)
    monkeypatch.setattr(W, "_sweep", record)
    monkeypatch.setattr(N, "rk4_step", lambda *a: pytest.fail("rk4_step ran"))
    got = wn_solve(prob).states
    finite = np.isfinite(swept[2]).all(axis=1)
    assert finite[:299].all() and not finite[300:].any()
    assert windows[:4] == [(0.0, N._WINDOW)] * 3 + [(0.0, N._WINDOW // 2)]
    assert np.max(np.abs(got - ref)) <= 1e-14


# the cyclic orderings whose action charts map to Wei-Norman exponents in
# closed form: the three cyclic lie_oracle systems, the sl2 entries and
# affine_scalar (a second-kind chart of its own ordering)
CYCLIC_ORACLE = [(n, kw, nch, amp) for n, kw, nch, amp in LIE_SYSTEMS
                 if n == "so3_kinematics" or kw.get("eps") in (1, -1)]
SEEDED_WN = CYCLIC_ORACLE + [(n, {}, 3, 1.0) for n in ("sl2_linear", "sl2_riccati_pair",
                                                       "sl2_complex", "sl2_mixed_1", "sl2_mixed_2")]
SEEDED_WN.append(("affine_scalar", {}, 2, 1.0))


def _cyclic_problem(name, kw, nch, amp, seed):
    entry = get_system(name, **kw)
    label = name + "".join(f"[{k}={v}]" for k, v in kw.items())
    b = entry.pad_controls(_lie_oracle_controls(seed, label, nch, amp))
    return entry, b, WNProblem(entry.algebra, b, TimeGrid.uniform(0.0, 1.0, 2000), entry.ordering())


def _counting_sweeps(monkeypatch):
    sweeps, once = [], N._sweep_once
    monkeypatch.setattr(N, "_sweep_once", lambda *a: sweeps.append(a[1]) or once(*a))
    return sweeps


def _relative_gap(got, ref):
    return np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref)))


@pytest.mark.parametrize("seed", [2101, 7777])
@pytest.mark.parametrize("name,kw,nch,amp", SEEDED_WN,
                         ids=[n + "".join(f"{v:+d}" for v in kw.values())
                              for n, kw, _, _ in SEEDED_WN])
def test_cyclic_sweeps_are_seeded_from_the_group(name, kw, nch, amp, seed, monkeypatch):
    # the Magnus curve on the chart filed for the algebra and ordering,
    # mapped to exponents, is about 1e-12 from the answer: the sweeps fall
    # from 27-37 on an unregistered copy of the algebra to 10-16, and as the
    # commit rule still waits for roundoff the exponents move only in their
    # last bits
    entry, b, prob = _cyclic_problem(name, kw, nch, amp, seed)
    sweeps = _counting_sweeps(monkeypatch)
    flat = wn_solve(_unregistered(prob)).states
    flat_sweeps = len(sweeps)
    sweeps.clear()
    seeded = wn_solve(prob).states
    seeded_sweeps = len(sweeps)
    sweeps.clear()
    entry.wn_group_curve(b, prob.grid)
    assert flat_sweeps >= 27 and seeded_sweeps <= 16 and len(sweeps) == seeded_sweeps
    assert _relative_gap(seeded, flat) <= 1e-14


def test_the_wei_norman_command_is_seeded_from_the_group(monkeypatch, capsys):
    # the command passes the solver no chart: wn_solve finds so3's itself
    from liesys.cli import main

    sweeps = _counting_sweeps(monkeypatch)
    assert main(["wei-norman", "--system", "so3_kinematics", "--controls",
                 "sin:1,1,0;const:0.5;sin:0.7,2,1", "--grid", "0,1,2000"]) == 0
    assert json.loads(capsys.readouterr().out)["system"] == "so3_kinematics"
    assert 0 < len(sweeps) <= 16


@pytest.mark.parametrize("wrong", ["shifted", "nan"])
def test_a_wrong_wei_norman_seed_converges_to_the_same_exponents(wrong, monkeypatch):
    # a first iterate only sets where the sweeps start: one 1e-3 off, or with
    # non-finite rows whose windows start flat, ends at the same exponents,
    # and no window stalls into RK4
    entry, b, prob = _cyclic_problem("so3_kinematics", {}, 3, 1.0, 2101)
    flat = wn_solve(_unregistered(prob)).states
    seed = W._group_first_iterate

    def corrupt(*a):
        out = seed(*a)
        if wrong == "shifted":
            return out + 1e-3
        out[700:900] = np.nan
        return out

    monkeypatch.setattr(W, "_group_first_iterate", corrupt)
    monkeypatch.setattr(W, "_wn_solve_rk4", lambda *a: pytest.fail("a window ran by RK4"))
    assert _relative_gap(wn_solve(prob).states, flat) <= 1e-14


def test_a_grid_too_short_for_the_cubic_midpoints_starts_flat():
    # two steps give three nodes, one short of the cubic midpoint rule
    entry, b, _ = _cyclic_problem("so3_kinematics", {}, 3, 1.0, 2101)
    prob = WNProblem(entry.algebra, b, TimeGrid.uniform(0.0, 0.001, 2), entry.ordering())
    assert W._group_first_iterate(prob, b(prob.grid.nodes)) is None
    assert np.array_equal(wn_solve(prob).states, wn_solve(_unregistered(prob)).states)


def test_lie_oracle_solves_call_no_lapack(monkeypatch):
    # the 13 criterion-1 systems solve every M(v) stack by forward
    # substitution (h3, g4, g5, gbar4) or the adjugate (r = 3); only the
    # dependency probe, cached per algebra and ordering, calls LAPACK
    problems = []
    for name, kw, nch, amp in LIE_SYSTEMS:
        entry = get_system(name, **kw)
        label = name + "".join(f"[{k}={v}]" for k, v in kw.items())
        b = entry.pad_controls(_lie_oracle_controls(2101, label, nch, amp))
        problems.append(WNProblem(entry.algebra, b, TimeGrid.uniform(0.0, 1.0, 2000),
                                  entry.ordering()))
        W._dependency_levels(entry.algebra, entry.ordering())
    calls = []
    inv, solve = np.linalg.inv, np.linalg.solve
    monkeypatch.setattr(np.linalg, "inv", lambda *a: calls.append("inv") or inv(*a))
    monkeypatch.setattr(np.linalg, "solve", lambda *a: calls.append("solve") or solve(*a))
    for prob in problems:
        wn_solve(prob)
    assert len(problems) == 13 and calls == []


def test_se3_wn_matrices_still_reach_lapack(rng, monkeypatch):
    # r = 6 and not unit lower-triangular: the guard and the unguarded
    # sweep solve each invert the whole stack by one LAPACK call
    alg = catalog_algebra("se3")
    ordering = tuple(range(1, 7))
    v, b = 0.3 * rng.standard_normal((9, 6)), rng.standard_normal((9, 6))
    M = wn_matrix(alg, ordering, v)
    assert not N._unit_lower(N._entries(M))
    calls = []
    inv, solve = np.linalg.inv, np.linalg.solve
    monkeypatch.setattr(np.linalg, "inv", lambda a: calls.append(("inv", a.shape)) or inv(a))
    monkeypatch.setattr(np.linalg, "solve",
                        lambda a, x: calls.append(("solve", a.shape)) or solve(a, x))
    x = N.linsolve(M, b)
    assert calls == [("inv", (9, 6, 6))]
    W._sweep(alg, ordering, v, b, TimeGrid.uniform(0.0, 1.0, 8), slice(None), False)
    assert calls[1:] == [("inv", (9, 6, 6))]
    assert np.array_equal(N.stack_solve(M, b), x)
    assert np.max(np.abs(x - solve(M, b[..., None])[..., 0])) <= 1e-12


def test_levelled_path_names_a_non_finite_node():
    grid = TimeGrid.uniform(0.0, 1.0, 20)
    samples = np.ones((21, 3))
    samples[13, 1] = np.nan
    se2 = catalog_algebra("se2")
    with pytest.raises(NumericsError, match=r"non-finite control sample at node 13 \(t=0\.65\)"):
        wn_solve(WNProblem(se2, ControlSignal.sampled(grid, samples), grid))
    # a finite rate whose integral overflows
    with np.errstate(over="ignore"), pytest.raises(NumericsError, match=r"non-finite exponent at node 1 \(t=0\.05\)"):
        wn_solve(WNProblem(se2, ControlSignal.constant([1e308, 0.0, 0.0]), grid))


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
    from hand_laws import Ceps, Seps

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
