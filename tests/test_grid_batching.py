"""Grid-batched solves against the per-call loops they replace.

Each reference below is the loop the library ran before it sampled the
controls once per solve: RK4 calling the controls at every stage, the
Wei-Norman quadrature solving M(v) node by node, and the reconstruction
composing one-parameter subgroups node by node.  The subgroup solve is now
fourth-order Magnus, so its RK4 reference measures the agreement of two
fourth-order schemes on the same stage values.
"""

import zlib

import numpy as np
import pytest

import liesys.groups as G
from liesys.algebra import wn_matrix
from liesys.catalog import get_system
from liesys.errors import ChartError
from liesys.numerics import TimeGrid, Trajectory, cumulative_quadrature_samples
from liesys.reduction import catalog_reduction, reduce_to_subgroup, solve_on_subgroup
from liesys.systems import field_eval, solve_direct
from liesys.weinorman import (
    WNProblem,
    _dependency_levels,
    _wn_solve_levels,
    _wn_solve_rk4,
    wn_reconstruct,
)
from conftest import LIE_SYSTEMS, smooth_controls
from hand_laws import _expm_taylor, magnus_loop, right_invariant_derivative

GRID = TimeGrid.uniform(0.0, 1.0, 800)


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
    got = _wn_solve_rk4(prob, np.zeros(prob.algebra.dim), GRID).states
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
    if case.hom_chart is None:
        ref = rk4_per_call(lambda t, y: case.hom_rhs(t, y, bp(t)), case.hom_x0, GRID.nodes)
    else:
        # the Magnus scan's reference loop, calling the controls at each
        # node and midpoint (its per-call RK4 gap is the test below)
        nodes, idx = GRID.nodes, list(case.quotient_indices)
        A = np.array([-bp(t)[idx] for t in nodes])
        half = np.array([-bp(t)[idx] for t in 0.5 * (nodes[:-1] + nodes[1:])])
        ref = magnus_loop(case.hom_chart, A, half, nodes)
    assert np.max(np.abs(hom.states - ref)) <= 1e-13

    assert subgroup_gap(case, b, GRID) <= 1e-13


# the suite's three control draws for se3/r3: here and in test_sweep_rk4,
# in test_reduction, and in the acceptance tests
SE3_R3_SEEDS = [zlib.crc32(key.encode()) % m
                for key, m in (("se3/r3", 997), ("se3/r3{}", 997), ("se3/r3", 991))]


@pytest.mark.parametrize("seed", SE3_R3_SEEDS)
def test_se3_r3_homogeneous_scan_matches_per_call_rk4(seed):
    # the homogeneous solution of se3/r3 is the rotation curve on SO(3), by
    # the Magnus scan on stage-table samples; the reference is per-call RK4
    # of the matrix ODE dA/dt = xi_hat A with xi = -(b1, b2, b3)
    case = catalog_reduction("se3/r3")
    b = smooth_controls(len(case.used_channels), seed=seed)
    bp, so3, grid = case.pad_controls(b), case.hom_chart, TimeGrid.uniform(0.0, 1.0, 2000)
    hom = case.solve_homogeneous(b, grid).states
    ref = rk4_per_call(lambda t, a: right_invariant_derivative(so3, -bp(t)[:3], a),
                       so3.identity_coords, grid.nodes)
    assert np.max(np.abs(hom - ref)) <= 1e-12
    A = hom.reshape(-1, 3, 3)
    assert np.max(np.abs(A.swapaxes(1, 2) @ A - np.eye(3))) <= 1e-13
    assert subgroup_gap(case, b, GRID) <= 1e-13


# the catalog subgroups whose brackets do not vanish: only there does the
# Magnus commutator term count.  At 800 steps sl2/a1a2 differs by 1.3e-12,
# so these run on 2000.
@pytest.mark.parametrize("name", ["se3/so3", "sl2/a1a2", "sl2/a2a3"])
def test_magnus_subgroup_solve_matches_rk4_loop_on_non_abelian_subgroups(name):
    case = catalog_reduction(name)
    b = controls(name, len(case.used_channels), 1.0)
    assert subgroup_gap(case, b, TimeGrid.uniform(0.0, 1.0, 2000)) <= 1e-12


def subgroup_gap(case, b, grid):
    """Largest coordinate gap between `solve_on_subgroup` and per-call RK4
    on the tangent map of the same right-invariant system."""
    setup, _ = case.setup(b, grid)
    coeffs, _ = reduce_to_subgroup(setup)
    h = solve_on_subgroup(setup, coeffs)
    S, nodes = setup.span_matrix, grid.nodes

    def f(t, hc):
        # a stage at a node takes that node's coefficients; a midpoint stage
        # takes the Lagrange cubic through the four nearest nodes (the three
        # on one side and one on the other next to either end)
        k = int(np.searchsorted(nodes, t))
        if nodes[k] == t:
            c = coeffs[k]
        else:
            lo = min(max(k - 2, 0), len(nodes) - 4)
            near = range(lo, lo + 4)
            c = sum(coeffs[i] * np.prod([(t - nodes[j]) / (nodes[i] - nodes[j])
                                         for j in near if j != i]) for i in near)
        return right_invariant_derivative(setup.chart, -(S @ c), hc)

    ref = rk4_per_call(f, setup.chart.identity_coords, nodes)
    return float(np.max(np.abs(h.coords - ref)))


def quadrature_per_node(problem, levels):
    """Level by level, the rates of every node from their own M(v) solve."""
    alg, ordering = problem.algebra, problem.ordering
    nodes = problem.grid.nodes
    b = np.array([problem.controls(t) for t in nodes])
    v = np.zeros((len(nodes), alg.dim))
    for level in levels:
        rates = np.array([np.linalg.solve(wn_matrix(alg, ordering, v[k]), b[k])
                          for k in range(len(nodes))])
        for i in level:
            v[:, i] = cumulative_quadrature_samples(rates[:, i], problem.grid)
    return v


def test_levelled_quadrature_matches_per_node_loop():
    grid = TimeGrid.uniform(0.0, 1.0, 400)
    checked = []
    for name, kw, nch, amp in LIE_SYSTEMS:
        entry = get_system(name, **kw)
        prob = WNProblem(entry.algebra, entry.pad_controls(controls(name, nch, amp)), grid,
                         entry.ordering())
        levels = _dependency_levels(prob.algebra, prob.ordering)
        if levels is None:
            continue
        got = _wn_solve_levels(prob, prob.controls(grid.nodes), levels).states
        assert np.max(np.abs(got - quadrature_per_node(prob, levels))) <= 1e-14, name
        checked.append(name)
    # the eight nilpotent systems, unicycle (SE(2)) and elastic_euler at eps = 0
    assert len(checked) == 10


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
