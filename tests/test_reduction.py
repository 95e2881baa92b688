import zlib

import numpy as np
import pytest

import liesys.groups as G
from liesys.errors import ChartError, LieSysError
from liesys.numerics import TimeGrid
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
    setup = ReductionSetup(chart, span, lift, b, GRID)
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
    setup2 = ReductionSetup(setup1.chart, setup1.span, lift2, setup1.controls, fine)
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
    setup = ReductionSetup(case.chart, case.span_vectors(), lift,
                           case.pad_controls(b), grid)
    with pytest.raises(LieSysError, match="does not project"):
        reduce_to_subgroup(setup)


def test_non_subalgebra_span_rejected():
    chart = G.get_chart("SL2", "matrix")
    lift = GroupCurve(chart, GRID, np.tile(np.eye(2).reshape(-1), (len(GRID.nodes), 1)))
    with pytest.raises(LieSysError):
        ReductionSetup(chart, [np.array([1.0, 0, 0]), np.array([0, 0, 1.0])],
                       lift, ControlSignal.constant([0, 0, 0]), GRID)


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
    setup = ReductionSetup(case.chart, case.span_vectors(), case.make_lift(hom),
                           case.pad_controls(b), grid)
    with pytest.raises(LieSysError) as err:
        reduce_to_subgroup(setup)
    msg = str(err.value)
    assert "does not project" in msg
    k = int(msg.split("at node ")[1].split()[0])
    assert f"(t={grid.nodes[k]:.6g})" in msg
    # the residual grows with t, so the worst node is the last
    assert k == len(grid.nodes) - 1
