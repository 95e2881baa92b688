import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liesys.algebra import LieAlgebra
from liesys.catalog import get_system
from liesys.errors import (
    ChartError,
    CoincidenceError,
    DimensionError,
    DomainExitError,
    LieSysError,
)
from liesys.numerics import TimeGrid, Trajectory, diff_samples
from liesys.riccati import RiccatiCoeffs
from liesys.systems import (
    INFINITY,
    LieSystemRealization,
    SuperpositionRule,
    cross_ratio,
    field_eval,
    riccati_superposition,
    sl2_complex_superposition,
    solve_direct,
    solve_via_group,
    superpose,
)
from liesys.weinorman import ControlSignal, GroupCurve
from conftest import smooth_controls
from hand_laws import CLOSED_FLOWS


def test_field_eval_zero_controls():
    entry = get_system("brockett")
    b = ControlSignal.constant([0, 0, 0])
    assert np.all(field_eval(entry.realization, b, 0.3, [1, 2, 3]) == 0.0)


def test_field_eval_brockett():
    entry = get_system("brockett")
    b = ControlSignal.constant([1.5, -0.5, 0.0])
    out = field_eval(entry.realization, b, 0.0, [2.0, 3.0, 0.0])
    # (b1, b2, b2 x - b1 y)
    assert np.allclose(out, [1.5, -0.5, -0.5 * 2.0 - 1.5 * 3.0])


def test_field_eval_unicycle():
    entry = get_system("unicycle")
    b = ControlSignal.constant([0.7, 1.2, 0.0])
    x = np.array([0.0, 0.0, 0.4])
    out = field_eval(entry.realization, b, 0.0, x)
    assert np.allclose(out, [1.2 * np.sin(0.4), 1.2 * np.cos(0.4), 0.7])


def test_solve_direct_constant(unit_grid):
    entry = get_system("brockett")
    b = ControlSignal.constant([0, 0, 0])
    traj = solve_direct(entry.realization, b, [1, 2, 3], unit_grid)
    assert np.all(traj.states == traj.states[0])


def test_solve_direct_brockett_hand_integration(unit_grid):
    entry = get_system("brockett")
    b = entry.pad_controls(ControlSignal.constant([1, 1]))
    traj = solve_direct(entry.realization, b, [0, 0, 0], unit_grid)
    assert np.max(np.abs(traj.states[-1] - [1, 1, 0])) < 1e-10


def test_unicycle_closed_form_matches_direct(unit_grid):
    entry = get_system("unicycle")
    b = smooth_controls(2, seed=3)
    direct = solve_direct(entry.realization, entry.pad_controls(b), [0.2, -0.1, 0.3], unit_grid)
    closed = CLOSED_FLOWS["unicycle"](entry.pad_controls(b), unit_grid, [0.2, -0.1, 0.3])
    assert np.max(np.abs(direct.states - closed)) < 1e-6


def test_solve_via_group_identity_curve(unit_grid):
    from liesys.weinorman import GroupCurve

    entry = get_system("brockett")
    chart = entry.realization.action_chart
    coords = np.zeros((len(unit_grid.nodes), 3))
    curve = GroupCurve(chart, unit_grid, coords)
    traj = solve_via_group(entry.realization, curve, [1.0, 2.0, 3.0])
    assert np.all(traj.states == [1.0, 2.0, 3.0])


def test_solve_via_group_missing_action(unit_grid):
    entry = get_system("nikolaev_deg2")
    with pytest.raises(LieSysError):
        solve_via_group(entry.realization, None, np.zeros(5))


def test_solve_direct_refuses_an_x0_of_the_wrong_length(unit_grid):
    # brockett's fields unpacked the two components and raised a bare
    # ValueError ("not enough values to unpack")
    entry = get_system("brockett")
    b = entry.pad_controls(smooth_controls(2, seed=5))
    with pytest.raises(DimensionError, match=r"^brockett: x0 needs 3 components, got 2$"):
        solve_direct(entry.realization, b, [0.1, 0.2], unit_grid)


def test_solve_via_group_refuses_an_x0_of_the_wrong_length(unit_grid):
    entry = get_system("brockett")
    curve = GroupCurve(entry.realization.action_chart, unit_grid,
                       np.zeros((len(unit_grid.nodes), 3)))
    with pytest.raises(DimensionError, match=r"^brockett: x0 needs 3 components, got 4$"):
        solve_via_group(entry.realization, curve, [0.1, 0.2, 0.3, 0.4])


def test_h3_action_display():
    entry = get_system("brockett")
    chart = entry.realization.action_chart
    v1, v2, v3 = 0.4, -0.8, 0.3
    x0, y0, z0 = 0.5, 1.5, -2.0
    g = chart.element([-v1, -v2, -v3])
    out = entry.realization.action(g.coords, [x0, y0, z0])
    expected = [x0 + v1, y0 + v2, z0 + x0 * v2 - y0 * v1 - v1 * v2 + 2 * v3]
    assert np.allclose(out, expected)


def test_group_equals_direct_for_actions(unit_grid):
    for name in ("brockett_variant", "martinet", "sl2_linear"):
        entry = get_system(name)
        b = smooth_controls(len(entry.used_channels), amp=0.7, seed=len(name))
        x0 = np.full(entry.realization.state_dim, 0.15)
        direct = solve_direct(entry.realization, entry.pad_controls(b), x0, unit_grid)
        via = solve_via_group(entry.realization, entry.wn_group_curve(b, unit_grid), x0)
        assert np.max(np.abs(direct.states - via.states)) < 1e-6, name


def test_solve_via_group_rejects_another_chart(unit_grid):
    # an H(3) curve cannot drive the unicycle's SE(2) action
    curve = get_system("brockett").wn_group_curve(smooth_controls(2, seed=5), unit_grid)
    with pytest.raises(ChartError, match="chart mismatch: H3/canonical_second vs SE2"):
        solve_via_group(get_system("unicycle").realization, curve, [0.1, 0.2, 0.3])


def test_solve_via_group_names_an_off_group_node(unit_grid):
    # one SO(3) node scaled by 1.01 leaves the group; the whole-curve check
    # names that node and its time
    entry = get_system("so3_kinematics")
    b = smooth_controls(3, amp=0.7, seed=11)
    curve = entry.wn_group_curve(b, unit_grid)
    coords = curve.coords.copy()
    coords[700] *= 1.01
    bad = GroupCurve(curve.chart, unit_grid, coords)
    with pytest.raises(ChartError, match=r"at node 700 \(t=0\.35\)"):
        solve_via_group(entry.realization, bad, [0.1, 0.2, 0.3])


def test_domain_exit_is_loud():
    # cos(x3) = 0 is outside the feedback-unicycle chart
    entry = get_system("unicycle_feedback")
    grid = TimeGrid.uniform(0, 1, 500)
    b = entry.pad_controls(ControlSignal.constant([1.0, 0.5]))
    with pytest.raises(DomainExitError) as exc:
        solve_direct(entry.realization, b, [0.0, 0.0, 1.58], grid)
    assert 0 <= exc.value.t <= 1.0


def test_domain_exit_at_an_intermediate_stage_is_loud():
    # x' = 1 from x = 0 in steps of 0.1: no node lies in (0.54, 0.56), but
    # the step from t = 0.5 evaluates its midpoint stages at x = 0.55
    line = LieSystemRealization(LieAlgebra(np.zeros((1, 1, 1))), 1,
                                lambda x: np.ones(np.shape(x)[:-1] + (1, 1)),
                                domain=lambda x: ~((0.54 < x[..., 0]) & (x[..., 0] < 0.56)),
                                name="line")
    grid = TimeGrid.uniform(0, 1, 10)
    assert all(line.domain(x) for x in grid.nodes[:, None])
    with pytest.raises(DomainExitError) as exc:
        solve_direct(line, ControlSignal.constant([1.0]), [0.0], grid)
    assert exc.value.t == pytest.approx(0.55)
    assert exc.value.state == pytest.approx([0.55])


# --- superposition rules ---------------------------------------------------------


def test_riccati_superposition_special_constants():
    x1, x2, x3 = 0.3, 1.7, -0.9
    assert riccati_superposition(x1, x2, x3, 0.0) == pytest.approx(x1)
    assert riccati_superposition(x1, x2, x3, INFINITY) == pytest.approx(x2)
    assert riccati_superposition(x1, x2, x3, 1.0) == pytest.approx(x3)


def test_affine_rule_k_zero():
    rule = SuperpositionRule.affine(2)
    parts = [np.array([1.0, 2.0]), np.array([3.0, 1.0]), np.array([0.0, 5.0])]
    assert np.allclose(superpose(rule, parts, [0.0, 0.0]), parts[0])


@given(st.floats(-3, 3), st.floats(-3, 3))
@settings(max_examples=30, deadline=None)
def test_linear_rule_is_linear(k1, k2):
    rule = SuperpositionRule.linear(2)
    p = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    assert np.allclose(superpose(rule, p, [k1, k2]), [k1, k2])


def test_sl2_complex_special_constants():
    p1, p2, p3 = np.array([0.1, 0.2]), np.array([1.0, -0.5]), np.array([-0.3, 0.8])
    assert np.allclose(sl2_complex_superposition(p1, p2, p3, 0.0, 0.0), p1)
    assert np.allclose(sl2_complex_superposition(p1, p2, p3, INFINITY, 0.0), p2)
    assert np.allclose(sl2_complex_superposition(p1, p2, p3, 1.0, 0.0), p3)


def test_sl2_complex_rule_solves_coupled_system(unit_grid):
    # superpositions of three solutions of the coupled system solve it too
    entry = get_system("sl2_complex")
    b = smooth_controls(3, amp=0.5, seed=9)
    bp = entry.pad_controls(b)
    sols = [solve_direct(entry.realization, bp, x0, unit_grid)
            for x0 in ([0.1, 0.3], [-0.4, 0.5], [0.5, -0.2])]
    rule = SuperpositionRule.sl2_complex()
    mixed = superpose(rule, sols, [0.7, -0.4])
    check = solve_direct(entry.realization, bp, mixed.states[0], unit_grid)
    assert np.max(np.abs(mixed.states - check.states)) < 1e-6


def test_riccati_closure_random_constants(unit_grid, rng):
    # k drawn from the band where the superposed solution stays finite on
    # the interval: trajectories through the projective point at infinity
    # are out of scope by design
    c = RiccatiCoeffs(lambda t: np.sin(t), lambda t: np.cos(t), lambda t: 1.0)
    sols = [c.solve(x0, unit_grid) for x0 in (0.0, -1.0, -0.5)]
    dt = unit_grid.uniform_dt
    for _ in range(10):
        k = rng.uniform(0.05, 2.0)
        y = riccati_superposition(sols[0].states[:, 0], sols[1].states[:, 0],
                                  sols[2].states[:, 0], k)
        dy = diff_samples(y, dt)
        res = [abs(dy[j] - c.rhs(t, y[j]))
               for j, t in enumerate(unit_grid.nodes)][1:-1]
        assert max(res) < 1e-5


def test_cross_ratio_normalization():
    x1 = np.array([0.1, 0.2])
    x2 = np.array([1.0, 1.5])
    x3 = np.array([-1.0, -0.4])
    assert np.allclose(cross_ratio(x1, x1, x2, x3), 0.0)
    assert np.allclose(cross_ratio(x3, x1, x2, x3), 1.0)


def test_cross_ratio_constant_along_solutions():
    grid = TimeGrid.uniform(0, 1, 2000)
    c = RiccatiCoeffs(lambda t: np.sin(t), lambda t: np.cos(t), lambda t: 1.0)
    sols = [c.solve(x0, grid).states[:, 0]
            for x0 in (0.0, -1.0, -0.5, -0.2)]
    k = cross_ratio(sols[3], sols[0], sols[1], sols[2])
    assert np.std(k) < 1e-8


def test_cross_ratio_coincidence_raises():
    x = np.array([0.5, 0.5])
    with pytest.raises(CoincidenceError):
        cross_ratio(x, np.array([0.1, 0.1]), x, np.array([0.9, 0.9]))


def _superposition_cases(unit_grid):
    t = unit_grid.nodes[:, None]
    wave = [np.hstack([np.sin(t + s), np.cos(2 * t - s)]) for s in (0.1, 0.9, 1.7)]
    ric = [0.3 * np.sin(t + s) + c for s, c in ((0.2, -1.0), (0.5, 0.0), (1.1, 1.0))]
    return [
        (SuperpositionRule.linear(3), wave, [0.7, -1.3, 2.1]),
        (SuperpositionRule.affine(2), wave, [0.4, -2.5]),
        (SuperpositionRule.riccati(), ric, [0.6]),
        (SuperpositionRule.sl2_complex(), wave, [0.7, -0.4]),
    ]


def test_superpose_on_trajectories_equals_per_node_calls(unit_grid):
    for rule, states, consts in _superposition_cases(unit_grid):
        trajs = [Trajectory(unit_grid, st) for st in states]
        whole = superpose(rule, trajs, consts)
        per_node = np.array([superpose(rule, [st[k] for st in states], consts)
                             for k in range(len(unit_grid.nodes))])
        assert whole.states.shape == per_node.shape, rule.kind
        assert np.max(np.abs(whole.states - per_node)) <= 1e-15, rule.kind


def test_superpose_rejects_a_wrong_constant_count(unit_grid):
    for rule, states, consts in _superposition_cases(unit_grid):
        for wrong in (consts[:-1], consts + [0.5]):
            with pytest.raises(LieSysError) as exc:
                superpose(rule, [st[0] for st in states], wrong)
            msg = str(exc.value)
            assert f"takes {rule.constant_dim} constants, got {len(wrong)}" in msg, rule.kind


@pytest.mark.parametrize("kind", ["riccati", "sl2_complex"])
def test_superpose_coincidence_names_its_node(unit_grid, kind):
    rule, states, consts = next(c for c in _superposition_cases(unit_grid) if c[0].kind == kind)
    states = [st.copy() for st in states]
    states[0][1234] = states[1][1234] = states[2][1234]    # all three meet at node 1234
    with pytest.raises(CoincidenceError) as exc:
        superpose(rule, [Trajectory(unit_grid, st) for st in states], consts)
    assert exc.value.node == 1234
