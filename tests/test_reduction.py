import re
import zlib

import numpy as np
import pytest

import liesys.groups as G
import liesys.reduction as R
from liesys.errors import ChartError, DimensionError, LieSysError, NumericsError
from liesys.numerics import TimeGrid, diff_samples4
from liesys.reduction import (
    ReductionSetup,
    catalog_reduction,
    list_reductions,
    reconstruct_full,
    reduce_to_subgroup,
    run_catalog_reduction,
    run_reduction,
    solve_on_subgroup,
)
from liesys.weinorman import ControlSignal, GroupCurve, WNProblem, wn_reconstruct, wn_solve
from conftest import smooth_controls

GRID = TimeGrid.uniform(0.0, 1.0, 2000)

ALL_CASES = [("h3/a1", {}), ("h3/a2", {}), ("h3/a3", {}),
             ("se2/a1", {}), ("se2/a2", {}), ("se2/a3", {}), ("se2/a2a3", {}),
             ("sl2/a2a3", {}), ("sl2/a1a2", {}),
             ("g5/center", {}), ("g7/ideal", {}), ("g8/ideal", {}),
             ("gbar4/center", {}), ("gbar5/ideal", {}),
             ("su2/a1", {}), ("geps/a1", {"eps": 0}), ("geps/a1", {"eps": -1}),
             ("se3/so3", {}), ("se3/r3", {})]


def controls_for(case, name, kw):
    amp = 0.6 if name.startswith("sl2") else 1.0
    return smooth_controls(len(case.used_channels), amp=amp,
                           seed=zlib.crc32((name + str(kw)).encode()) % 997)


def _subgroup_solve(name, n_steps, monkeypatch):
    """solve_on_subgroup on a catalog case, and the step exponentials it
    took, recorded through the exp_algebra of `groups`, whose magnus_scan
    takes them."""
    case = catalog_reduction(name)
    setup, _ = case.setup(controls_for(case, name, {}), TimeGrid.uniform(0.0, 1.0, n_steps))
    coeffs, _ = reduce_to_subgroup(setup)
    steps, exp = [], G.exp_algebra
    monkeypatch.setattr(G, "exp_algebra",
                        lambda chart, omega: steps.append(exp(chart, omega)) or steps[-1])
    return setup, solve_on_subgroup(setup, coeffs).coords, steps


@pytest.mark.parametrize("name", ["h3/a3", "se2/a2a3", "su2/a1", "se3/r3", "gbar5/ideal",
                                  "se3/so3", "sl2/a1a2"])
def test_subgroup_prefix_product_equals_sequential_product(name, monkeypatch):
    # the reference multiplies the same step exponentials node by node,
    # h_{k+1} = exp(Omega_k) h_k, as the solve did before it took the
    # products as a log-depth scan; SO(3) and the affine subgroup of SL(2)
    # are not abelian, so they also fix the order of each product; all
    # 4000 step exponentials come from one exp_algebra call
    setup, got, steps = _subgroup_solve(name, 4000, monkeypatch)
    assert [len(step) for step in steps] == [4000]
    chart = setup.chart
    ref = [chart.identity_coords]
    for step in steps[0]:
        ref.append(chart.compose_fn(step, ref[-1]))
    assert len(ref) == len(got)
    assert np.max(np.abs(got - np.array(ref))) <= 1e-13


@pytest.mark.parametrize("name,kw", ALL_CASES, ids=[f"{n}{k or ''}" for n, k in ALL_CASES])
def test_catalog_reduction_roundtrip(name, kw):
    case = catalog_reduction(name, **kw)
    b = controls_for(case, name, kw)
    out = run_catalog_reduction(case, b, GRID)
    # reduced coefficients match the closed-form fixtures
    fix = case.fixture_coeffs(b, out["homogeneous"])
    assert np.max(np.abs(out["coefficients"] - fix)) < 1e-6
    # the reconstruction solves the original right-invariant equation
    bp = case.pad_controls(b)
    g = out["reconstruction"]
    worst = 0.0
    for k in range(4, 1997, 31):
        t = GRID.nodes[k]
        r = G.right_log_derivative(g, t, h=GRID.uniform_dt, order=4)
        worst = max(worst, float(np.max(np.abs(r + bp(t)))))
    assert worst < 1e-5
    # and at every node, from the node coordinates alone
    assert case.reconstruction_gap(b, g) < 1e-5


@pytest.mark.parametrize("name", ["h3/a1", "se2/a2a3", "se3/so3", "g7/ideal"])
def test_reconstruction_gap_sees_a_missing_subgroup_factor(name):
    # the lift alone projects to the homogeneous solution but does not solve
    # the full system; its gap is the size of the reduced coefficients
    case = catalog_reduction(name)
    b = controls_for(case, name, {})
    out = run_catalog_reduction(case, b, GRID)
    lift = case.make_lift(out["homogeneous"])
    assert case.reconstruction_gap(b, out["reconstruction"]) < 1e-5
    assert case.reconstruction_gap(b, lift) > 1e-2


def test_spec_fixture_h3_a3():
    # homogeneous y' = -b1, z' = -b2; reduced c = (b2 y - b1 z)/2 sign-adjusted
    case = catalog_reduction("h3/a3")
    b = ControlSignal.constant([0.8, -0.4])
    out = run_catalog_reduction(case, b, GRID)
    hom = out["homogeneous"]
    t = GRID.nodes
    assert np.max(np.abs(hom.states[:, 0] + 0.8 * t)) < 1e-9
    assert np.max(np.abs(hom.states[:, 1] + (-0.4) * t)) < 1e-9
    expected = 0.5 * ((-0.4) * hom.states[:, 0] - 0.8 * hom.states[:, 1])
    assert np.max(np.abs(out["coefficients"][:, 0] - expected)) < 1e-8


def test_spec_fixture_su2():
    # reduced equation v' = -b1 + b3 z1 - b2 z2 in the subgroup coordinate
    case = catalog_reduction("su2/a1")
    b = smooth_controls(3, seed=42)
    out = run_catalog_reduction(case, b, GRID)
    hom = out["homogeneous"]
    # catalog convention: c1 = -v' = b1 - b3 z1 + b2 z2
    expected = np.array([
        b(t)[0] - b(t)[2] * z[0] + b(t)[1] * z[1]
        for t, z in zip(GRID.nodes, hom.states)])
    assert np.max(np.abs(out["coefficients"][:, 0] - expected)) < 1e-6


def test_spec_fixture_sl2_a2a3():
    # reduced pair: u' = (b2/2 + b3 y)u, v' = -(b2/2 + b3 y)v - b3 u
    case = catalog_reduction("sl2/a2a3")
    b = smooth_controls(3, amp=0.6, seed=11)
    out = run_catalog_reduction(case, b, GRID)
    h = out["subgroup_curve"]
    worst = 0.0
    y = out["homogeneous"].states[:, 0]
    for k in range(10, 1990, 200):
        t = GRID.nodes[k]
        M = h.at_node(k).matrix()
        u, v = M[0, 0], M[1, 0]
        assert abs(M[0, 1]) < 1e-9          # h stays in the subgroup
        dt = GRID.uniform_dt
        du = (h.at_node(k + 1).matrix()[0, 0] - h.at_node(k - 1).matrix()[0, 0]) / (2 * dt)
        dv = (h.at_node(k + 1).matrix()[1, 0] - h.at_node(k - 1).matrix()[1, 0]) / (2 * dt)
        coef = b(t)[1] / 2 + b(t)[2] * y[k]
        worst = max(worst, abs(du - coef * u), abs(dv + coef * v + b(t)[2] * u))
    assert worst < 1e-5


def test_trivial_subgroup_reduces_to_original():
    # H = G with the identity lift: reduced coefficients are the controls
    chart = G.get_chart("H3", "canonical_first")
    b = smooth_controls(3, seed=3)
    coords = np.zeros((len(GRID.nodes), 3))
    lift = GroupCurve(chart, GRID, coords)
    span = [v for v in np.eye(3)]
    setup = ReductionSetup(span, lift, b)
    coeffs, report = reduce_to_subgroup(setup)
    expected = np.array([b(t) for t in GRID.nodes])
    assert np.max(np.abs(coeffs - expected)) < 1e-9


def test_reconstruct_identity_subgroup_curve():
    case = catalog_reduction("h3/a1")
    b = smooth_controls(2, seed=8)
    setup, hom = case.setup(b, GRID)
    h_id = GroupCurve(case.chart, GRID, np.zeros((len(GRID.nodes), 3)))
    g = reconstruct_full(setup.lift, h_id)
    assert np.max(np.abs(g.coords - setup.lift.coords)) < 1e-12


def test_g5_reconstruction_matches_wei_norman():
    # the reduced pipeline and the direct Wei-Norman solution agree in G5
    case = catalog_reduction("g5/center")
    b = smooth_controls(2, seed=21)
    out = run_catalog_reduction(case, b, GRID)
    chart = G.get_chart("G5", "canonical_first")
    prob = WNProblem(case.chart.algebra, case.pad_controls(b), GRID)
    wn_curve = wn_reconstruct(wn_solve(prob), prob.ordering, chart)
    assert np.max(np.abs(out["reconstruction"].coords - wn_curve.coords)) < 1e-5


def test_normal_subgroup_lift_independence():
    # two lifts of the same projected solution: reconstructions differ by a
    # constant right factor in H
    case = catalog_reduction("se2/a2a3")
    b = smooth_controls(2, seed=13)
    fine = TimeGrid.uniform(0, 1, 4000)
    setup1, hom = case.setup(b, fine)
    out1 = run_reduction(setup1)
    # second lift: same z(t), different representative in the coset
    shift = G.get_chart("SE2", "canonical_second", (1, 2, 3)).element([0.0, 0.3, -0.2])
    coords2 = np.stack([
        G.compose(setup1.lift.at_node(k), shift).coords
        for k in range(len(fine.nodes))])
    lift2 = GroupCurve(setup1.chart, fine, coords2)
    setup2 = ReductionSetup(setup1.span, lift2, setup1.controls)
    out2 = run_reduction(setup2)
    factors = []
    for k in range(0, 4001, 500):
        d = G.compose(G.inverse(out1["reconstruction"].at_node(k)),
                      out2["reconstruction"].at_node(k))
        factors.append(d.coords)
    factors = np.array(factors)
    assert np.max(np.abs(factors - factors[0])) < 1e-6


def test_bad_lift_is_loud():
    case = catalog_reduction("h3/a1")
    b = ControlSignal.constant([1.0, 0.5])
    grid = TimeGrid.uniform(0, 1, 500)
    # corrupt the homogeneous solution so the lift does not project to one
    hom = case.solve_homogeneous(b, grid)
    hom.states[:, 0] += 0.3 * grid.nodes**2
    lift = case.make_lift(hom)
    setup = ReductionSetup(case.span_vectors(), lift, case.pad_controls(b))
    with pytest.raises(LieSysError, match="does not project"):
        reduce_to_subgroup(setup)


def test_non_subalgebra_span_rejected():
    chart = G.get_chart("SL2", "matrix")
    lift = GroupCurve(chart, GRID, np.tile(np.eye(2).reshape(-1), (len(GRID.nodes), 1)))
    with pytest.raises(LieSysError):
        ReductionSetup([np.array([1.0, 0, 0]), np.array([0, 0, 1.0])],
                       lift, ControlSignal.constant([0, 0, 0]))


def test_list_reductions_contains_catalog():
    names = list_reductions()
    for expected in ("h3/a1", "se2/a2a3", "sl2/a2a3", "g5/center", "se3/so3", "su2/a1"):
        assert expected in names


@pytest.mark.parametrize("name", ["h3/a3", "se2/a2a3", "su2/a1", "se3/r3", "g5/center"])
def test_reduction_matches_per_node_scalar_laws(name):
    # reference: the nodewise formula through the single-point API, with the
    # lift's log-derivative from the curve's order-4 stencil; interior nodes
    # only, where both use the same central stencil
    case = catalog_reduction(name)
    grid = TimeGrid.uniform(0.0, 1.0, 400)
    setup, _ = case.setup(controls_for(case, name, {}), grid)
    coeffs, _ = reduce_to_subgroup(setup)
    Spinv = np.linalg.pinv(setup.span_matrix)
    for k in range(2, len(grid.nodes) - 2, 37):
        t = grid.nodes[k]
        g1 = setup.lift.at_node(k)
        xi = (-G.group_adjoint(G.inverse(g1)) @ setup.controls(t)
              - G.left_log_derivative(setup.lift, t, h=grid.uniform_dt, order=4))
        assert np.max(np.abs(coeffs[k] + Spinv @ xi)) <= 1e-9, k


@pytest.mark.parametrize("name,kw", ALL_CASES, ids=[f"{n}{k or ''}" for n, k in ALL_CASES])
def test_lift_and_fixture_take_the_whole_grid(name, kw):
    # one call over the (n, hom_dim) states against the per-node calls: the
    # lift bit for bit, the fixture to roundoff
    case = catalog_reduction(name, **kw)
    grid = TimeGrid.uniform(0.0, 1.0, 400)
    b = controls_for(case, name, kw)
    hom = case.solve_homogeneous(b, grid)
    per_node = np.stack([case.lift_coords(y) for y in hom.states])
    assert case.make_lift(hom).coords.tobytes() == per_node.tobytes()
    nodes = grid.nodes
    rows = np.stack([case.expected_coeffs(bv, t, y)
                     for bv, t, y in zip(case.pad_controls(b)(nodes), nodes, hom.states)])
    fix = case.fixture_coeffs(b, hom)
    assert fix.shape == rows.shape == (len(nodes), len(case.span_indices))
    assert np.max(np.abs(fix - rows)) <= 1e-15 * max(1.0, float(np.max(np.abs(rows))))


def test_reconstruction_matches_per_node_compose():
    case = catalog_reduction("se2/a2a3")
    setup, _ = case.setup(controls_for(case, "se2/a2a3", {}), GRID)
    h = solve_on_subgroup(setup, reduce_to_subgroup(setup)[0])
    g = reconstruct_full(setup.lift, h)
    for k in range(0, len(GRID.nodes), 97):
        expected = G.compose(setup.lift.at_node(k), h.at_node(k)).coords
        assert np.max(np.abs(g.coords[k] - expected)) <= 1e-14


def _se3_setup(n_steps=1000):
    case = catalog_reduction("se3/r3")
    grid = TimeGrid.uniform(0.0, 1.0, n_steps)
    setup, _ = case.setup(controls_for(case, "se3/r3", {}), grid)
    return setup, grid


def test_corrupt_lift_node_is_named():
    setup, grid = _se3_setup()
    k = 700                                   # inside the second block of nodes
    setup.lift.coords[k, 0] += 1e-3           # the rotation leaves SO(3)
    with pytest.raises(ChartError) as err:
        reduce_to_subgroup(setup)
    msg = str(err.value)
    assert f"lift violates the chart constraint at node {k} " in msg
    assert f"(t={grid.nodes[k]:.6g})" in msg
    assert f"error {setup.chart.constraint_fn(setup.lift.coords[k]):.3g} " in msg


def test_corrupt_reconstruction_node_is_named():
    # each factor stays within the constraint tolerance, their product does not
    setup, grid = _se3_setup()
    identity = np.tile(np.eye(4).reshape(-1), (len(grid.nodes), 1))
    k = 613
    scaled = identity.copy()
    scaled[k, [0, 5, 10]] = 1.0 + 4e-9        # error 8e-9 per factor, 1.6e-8 for the product
    g1 = GroupCurve(setup.chart, grid, scaled)
    with pytest.raises(ChartError, match=rf"reconstruction violates the chart constraint "
                                         rf"at node {k} \(t=0\.613\)"):
        reconstruct_full(g1, g1)
    off = identity.copy()
    off[k, 0] = 1.1
    with pytest.raises(ChartError, match=rf"subgroup curve violates .* at node {k} "):
        reconstruct_full(GroupCurve(setup.chart, grid, identity),
                         GroupCurve(setup.chart, grid, off))


def test_non_finite_reconstruction_node_is_named():
    setup, grid = _se3_setup()
    identity = np.tile(np.eye(4).reshape(-1), (len(grid.nodes), 1))
    k = 613
    h = identity.copy()
    h[k, 7] = np.nan                          # a translation entry: no constraint reads it
    with pytest.raises(ChartError, match=rf"subgroup curve violates the chart constraint "
                                         rf"at node {k} \(t=0\.613\): error nan"):
        reconstruct_full(GroupCurve(setup.chart, grid, identity),
                         GroupCurve(setup.chart, grid, h))
    h[k, 7] = 0.0
    h[k, 0] = np.nan
    with pytest.raises(ChartError, match=rf"at node {k} \(t=0\.613\)"):
        reconstruct_full(GroupCurve(setup.chart, grid, identity),
                         GroupCurve(setup.chart, grid, h))


def test_off_span_failure_names_node_and_time():
    case = catalog_reduction("h3/a1")
    b = ControlSignal.constant([1.0, 0.5])
    grid = TimeGrid.uniform(0, 1, 500)
    hom = case.solve_homogeneous(b, grid)
    hom.states[:, 0] += 0.3 * grid.nodes**2
    setup = ReductionSetup(case.span_vectors(), case.make_lift(hom), case.pad_controls(b))
    with pytest.raises(LieSysError) as err:
        reduce_to_subgroup(setup)
    msg = str(err.value)
    assert "does not project" in msg
    k = int(msg.split("at node ")[1].split()[0])
    assert f"(t={grid.nodes[k]:.6g})" in msg
    # the residual grows with t, so the worst node is the last
    assert k == len(grid.nodes) - 1


@pytest.mark.parametrize("name", ["se3/so3", "sl2/a2a3"])
def test_reconstruction_is_fourth_order_in_the_step(name):
    # halving the step must cut the gap about 16x; linear midpoints in the
    # subgroup solve cut it 4x, the mark of a second-order reduction
    # (at amplitude 1, so the gap at 2000 steps stays clear of roundoff)
    case = catalog_reduction(name)
    b = smooth_controls(len(case.used_channels), seed=zlib.crc32(name.encode()) % 991)
    gaps = [case.reconstruction_gap(b, run_catalog_reduction(
        case, b, TimeGrid.uniform(0.0, 1.0, n))["reconstruction"]) for n in (1000, 2000)]
    assert gaps[0] >= 12.0 * gaps[1]


def test_wrapped_lift_reduces_like_the_raw_lift():
    # the angle of se2 turns through 5 rad, so the wrapped lift jumps by
    # -2 pi at its cut; the reduction must follow it across as the curve's
    # own log-derivatives do
    case = catalog_reduction("se2/a2a3")
    b = ControlSignal([lambda t: -5.0, lambda t: 0.7 + 0.3 * np.sin(3.0 * t)])
    setup, _ = case.setup(b, TimeGrid.uniform(0.0, 1.0, 4000))
    raw, _ = reduce_to_subgroup(setup)
    lift = setup.lift
    wrapped_coords = case.chart.wrap_fn(lift.coords)
    assert np.max(np.abs(wrapped_coords - lift.coords)) > 6.0
    setup.lift = GroupCurve(case.chart, lift.grid, wrapped_coords)
    wrapped, _ = reduce_to_subgroup(setup)
    assert np.max(np.abs(wrapped - raw)) <= 1e-12


def test_explicit_node_grid_reduces_like_the_uniform_grid():
    # a grid read back from a CSV carries its nodes and no step count
    case = catalog_reduction("se2/a2a3")
    b = controls_for(case, "se2/a2a3", {})
    got = run_catalog_reduction(case, b, TimeGrid.from_nodes(np.linspace(0.0, 1.0, 2001)))
    ref = run_catalog_reduction(case, b, TimeGrid.uniform(0.0, 1.0, 2000))
    assert np.max(np.abs(got["coefficients"] - ref["coefficients"])) <= 1e-12
    assert np.max(np.abs(got["reconstruction"].coords - ref["reconstruction"].coords)) <= 1e-12


def _constant_setup(grid):
    case = catalog_reduction("h3/a3")
    b = ControlSignal.constant([0.8, -0.4])
    lift = case.make_lift(case.solve_homogeneous(b, grid))
    return ReductionSetup(case.span_vectors(), lift, case.pad_controls(b))


def test_setup_takes_its_chart_and_grid_from_the_lift():
    setup = _constant_setup(TimeGrid.uniform(0.0, 1.0, 20))
    assert setup.chart is setup.lift.chart and setup.grid is setup.lift.grid
    assert setup.chart is catalog_reduction("h3/a3").chart


def test_curve_coordinates_must_match_the_grid_and_the_chart():
    # a mis-shaped curve fails where it is built, naming both shapes, and
    # not later in reduce_to_subgroup on a numpy broadcast
    chart, grid = G.get_chart("H3", "canonical_first"), TimeGrid.uniform(0.0, 1.0, 10)
    GroupCurve(chart, grid, np.zeros((11, 3)))
    for shape in ((10, 3), (11, 4), (33,)):
        with pytest.raises(DimensionError, match=re.escape(f"shape {shape}, not (11, 3)")):
            GroupCurve(chart, grid, np.zeros(shape))


def test_subgroup_solve_needs_four_nodes():
    setup = _constant_setup(TimeGrid.uniform(0.0, 1.0, 2))
    with pytest.raises(NumericsError, match="need 4 nodes, got 3"):
        solve_on_subgroup(setup, np.zeros((3, 1)))


def test_subgroup_solve_needs_a_uniform_grid():
    setup = _constant_setup(TimeGrid.from_nodes([0.0, 0.1, 0.3, 0.6, 1.0]))
    with pytest.raises(NumericsError, match="uniform grid"):
        solve_on_subgroup(setup, np.zeros((5, 1)))


# the reductions on charts with a representation: matrix and quaternion
REPRESENTED = [("sl2/a2a3", {}), ("sl2/a1a2", {}), ("su2/a1", {}), ("geps/a1", {"eps": 0}),
               ("geps/a1", {"eps": -1}), ("se3/so3", {}), ("se3/r3", {})]


@pytest.mark.parametrize("name,kw", REPRESENTED, ids=[f"{n}{k or ''}" for n, k in REPRESENTED])
def test_pull_back_equals_adjoint_and_left_trivialization(name, kw):
    # one conjugation G^{-1} (B G + dG) against Ad(g^{-1}) b + g^{-1} dg
    # from the chart-kind rules, on the lift's nodes
    case = catalog_reduction(name, **kw)
    setup, _ = case.setup(controls_for(case, name, kw), GRID)
    chart, g = setup.chart, setup.lift.coords
    assert chart.rep_projector is not None
    g_inv = chart.inverse_fn(g)
    b, dg = setup.controls(GRID.nodes), setup.lift.coordinate_velocity(diff_samples4)
    ref = G._matvec(G._adjoint(chart, g_inv), b) + G._trivialize(chart, g, dg, left=True)
    gap = np.max(np.abs(G._pull_back(chart, g, g_inv, b, dg) - ref))
    assert gap <= 1e-13 * max(1.0, float(np.max(np.abs(b))))


def test_represented_reduction_inverts_the_lift_in_one_call(monkeypatch):
    # the lift inverse over all 2001 nodes is the one matrix inverse the
    # reduction takes; the rigid matrices of SE(3) invert in closed form,
    # with no matrix inverse at all
    shapes, inv = [], np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: shapes.append(a.shape) or inv(a))
    for name, expected in (("sl2/a2a3", [(2001, 2, 2)]), ("se3/r3", [])):
        case = catalog_reduction(name)
        setup, _ = case.setup(controls_for(case, name, {}), GRID)
        shapes.clear()
        reduce_to_subgroup(setup)
        assert shapes == expected, name


@pytest.mark.parametrize("name,bad", [("se3/r3", 1e-3), ("sl2/a2a3", 1e-3), ("su2/a1", 1e-3),
                                      ("h3/a3", np.nan)])
def test_corrupt_lift_fails_the_reconstruction_check(name, bad):
    # reconstruct_full leaves the lift to reduce_to_subgroup's check: a lift
    # node off its chart (orthogonal, unit determinant, unit norm) or not
    # finite takes its product with the subgroup curve off the chart too
    case = catalog_reduction(name)
    grid = TimeGrid.uniform(0.0, 1.0, 1000)
    setup, _ = case.setup(controls_for(case, name, {}), grid)
    h = solve_on_subgroup(setup, reduce_to_subgroup(setup)[0])
    k = 700
    setup.lift.coords[k, 0] += bad
    with pytest.raises(ChartError, match=rf"reconstruction violates the chart constraint "
                                         rf"at node {k} \(t=0\.7\)"):
        reconstruct_full(setup.lift, h)


def test_homogeneous_scan_is_fourth_order_in_the_step():
    # se3/r3's homogeneous solution, SO(3)'s right-invariant curve by the
    # Magnus scan, against a 16000-step reference: each halving of the step
    # cuts the error 16x; with the sign of the commutator term flipped it
    # cuts it 4x, though the error at 2000 steps stays far inside 1e-5
    case = catalog_reduction("se3/r3")
    b = controls_for(case, "se3/r3", {})
    ref = case.solve_homogeneous(b, TimeGrid.uniform(0.0, 1.0, 16000)).states
    errs = np.array([np.max(np.abs(case.solve_homogeneous(b, TimeGrid.uniform(0.0, 1.0, n)).states
                                   - ref[::16000 // n])) for n in (20, 40, 80, 160)])
    assert np.min(np.log2(errs[:-1] / errs[1:])) >= 3.8


def test_hom_chart_with_other_brackets_is_refused():
    # H(3) has the dimension of SO(3) but not its brackets
    with pytest.raises(LieSysError, match=r"^se3/h3: the brackets of hom_chart H3 differ "
                                          r"from those of the algebra indices \[1, 2, 3\]"):
        R.ReductionCase("se3/h3", G.get_chart("SE3", "matrix"), (4, 5, 6), (1, 2, 3, 4, 5, 6),
                        lift_coords=None, expected_coeffs=None,
                        hom_chart=G.get_chart("H3", "canonical_first"))


@pytest.mark.parametrize("eps", [1, 0, -1])
def test_geps_projection_inverts_the_lift_modulo_the_compact_generator(eps):
    # project(lift(z) exp(theta a1)) = z on the lift's domain, |z| < 1 at
    # eps = -1, and a batch equals its single calls bit for bit
    case = catalog_reduction("geps/a1", eps=eps)
    rng = np.random.default_rng(zlib.crc32(f"project{eps}".encode()))
    radius = np.sqrt(rng.uniform(0.0, 0.99, 200)) * (1.0 if eps == -1 else 3.0)
    angle = rng.uniform(-np.pi, np.pi, 200)
    z = np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=-1)
    lifted = case.lift_coords(z)
    turned = case.chart.compose_fn(lifted, G.exp_basis(case.chart, 0, rng.uniform(-7, 7, 200)))
    for g in (lifted, turned):
        got = case.project(g)
        assert np.max(np.abs(got - z)) <= 1e-14
        assert np.array_equal(got, np.stack([case.project(p) for p in g]))


def _checked_stages(monkeypatch):
    """The stages `reduction` checks against the chart, one entry per
    `_on_chart` call, recorded with the number of nodes it checked."""
    stages, on_chart = [], R._on_chart
    monkeypatch.setattr(R, "_on_chart", lambda chart, coords, stage=None, *a: (
        stages.append((stage, len(coords))) or on_chart(chart, coords, stage, *a)))
    return stages


def test_lift_inverse_is_checked_only_where_it_is_inverted_numerically(monkeypatch):
    # SE(3)'s rigid transpose and the quaternion conjugate of a checked lift
    # node are on the chart, SL(2)'s inverse comes from np.linalg.inv and is
    # checked; each check takes all 2001 nodes at once
    stages = _checked_stages(monkeypatch)
    for name, expected in (("se3/r3", ["lift"]), ("su2/a1", ["lift"]),
                           ("sl2/a2a3", ["lift", "lift inverse"])):
        case = catalog_reduction(name)
        setup, _ = case.setup(controls_for(case, name, {}), GRID)
        stages.clear()
        reduce_to_subgroup(setup)
        assert stages == [(stage, 2001) for stage in expected], name


@pytest.mark.parametrize("name", ["se3/r3", "su2/a1", "h3/a3"])
def test_reconstruction_checks_each_stage_once_over_all_nodes(name, monkeypatch):
    case = catalog_reduction(name)
    setup, _ = case.setup(controls_for(case, name, {}), GRID)
    h = solve_on_subgroup(setup, reduce_to_subgroup(setup)[0])
    stages = _checked_stages(monkeypatch)
    reconstruct_full(setup.lift, h)
    assert stages == [("subgroup curve", 2001), ("reconstruction", 2001)]


@pytest.mark.parametrize("name", ["h3/a3", "se2/a2a3", "g7/ideal"])
def test_controls_outside_the_driven_channels_are_refused(name):
    # the closed-form fixtures read the driven channels only
    case = catalog_reduction(name)
    b = smooth_controls(case.chart.algebra.dim, seed=3)
    r = case.chart.algebra.dim
    with pytest.raises(ValueError, match=rf"^controls give {r} channels; need one per driven "
                                         rf"index \(2\): channels \[1, 2\] of {r}$"):
        case.pad_controls(b)
