import dataclasses
import json
import math
import os
import subprocess
import sys
import zlib

import numpy as np
import pytest

import liesys.groups as G
from liesys.algebra import LieAlgebra, catalog_algebra, exp_ad, exp_ad_basis
from liesys.errors import ChartError
from liesys.numerics import TimeGrid, Trajectory
from liesys.weinorman import wn_reconstruct
from hand_laws import ADJOINTS

ALL_KEYS = sorted(G._CHARTS)


def random_element(chart, rng, scale=0.7):
    g = chart.identity()
    for i in range(chart.algebra.dim):
        g = G.compose(g, G.exp_chart(chart, i, scale * rng.standard_normal()))
    return g


# --- composition fixtures -----------------------------------------------------


def test_h3_second_kind_composition_fixture():
    ch = G.get_chart("H3", "canonical_second", (1, 2, 3))
    out = G.compose(ch.element([1, 2, 3]), ch.element([4, 5, 6]))
    assert np.allclose(out.coords, [5, 7, 1])


def test_compose_identity_every_chart(rng):
    for key in ALL_KEYS:
        ch = G._CHARTS[key]
        g = random_element(ch, rng)
        assert np.allclose(G.compose(ch.identity(), g).coords, g.coords, atol=1e-12)
        assert np.allclose(G.compose(g, ch.identity()).coords, g.coords, atol=1e-12)


def test_se2_composition_fixture():
    ch = G.get_chart("SE2", "canonical_second", (1, 2, 3))
    out = G.compose(ch.element([math.pi / 2, 1, 0]), ch.element([0, 0, 1]))
    assert np.allclose(out.coords, [math.pi / 2, 1, 1])


def test_h3_inverse_fixture():
    ch = G.get_chart("H3", "canonical_second", (1, 2, 3))
    assert np.allclose(G.inverse(ch.element([1, 2, 3])).coords, [-1, -2, -5])


def test_inverse_identity_every_chart():
    for key in ALL_KEYS:
        ch = G._CHARTS[key]
        assert np.allclose(G.inverse(ch.identity()).coords, ch.identity().coords)


def test_sl2_inverse_vs_lu_oracle(rng):
    ch = G.get_chart("SL2", "matrix")
    for _ in range(100):
        g = random_element(ch, rng)
        M = g.matrix()
        lu = np.linalg.solve(M, np.eye(2))
        assert np.max(np.abs(G.inverse(g).matrix() - lu)) < 1e-10


def test_compose_inverse_is_identity(rng):
    for key in ALL_KEYS:
        ch = G._CHARTS[key]
        for _ in range(5):
            g = random_element(ch, rng)
            gap = G.compose(g, G.inverse(g)).coords - ch.identity().coords
            assert np.max(np.abs(gap)) < 1e-10, key


def test_associativity_every_chart(rng):
    for key in ALL_KEYS:
        ch = G._CHARTS[key]
        for _ in range(10):
            g, h, k = (random_element(ch, rng) for _ in range(3))
            gap = (G.compose(G.compose(g, h), k).coords
                   - G.compose(g, G.compose(h, k)).coords)
            assert np.max(np.abs(gap)) < 1e-9, key


# --- adjoints ------------------------------------------------------------------


def test_adjoint_identity_every_chart():
    for key in ALL_KEYS:
        ch = G._CHARTS[key]
        assert np.allclose(G.group_adjoint(ch.identity()), np.eye(ch.algebra.dim),
                           atol=1e-12)


def test_adjoint_homomorphism(rng):
    for key in ALL_KEYS:
        ch = G._CHARTS[key]
        for _ in range(10):
            g, h = random_element(ch, rng), random_element(ch, rng)
            gap = G.group_adjoint(G.compose(g, h)) - G.group_adjoint(g) @ G.group_adjoint(h)
            assert np.max(np.abs(gap)) < 1e-9, key


def test_adjoint_of_exponential_matches_exp_ad():
    for key in ALL_KEYS:
        ch = G._CHARTS[key]
        for i in range(ch.algebra.dim):
            for s in (-1.1, 0.4):
                gap = (G.group_adjoint(G.exp_chart(ch, i, s))
                       - exp_ad(ch.algebra, ch.algebra.basis_vector(i), s))
                assert np.max(np.abs(gap)) < 1e-9, key


@pytest.mark.parametrize("key", sorted(ADJOINTS), ids=str)
def test_adjoint_matches_closed_form_fixture(key):
    # H3's unipotent form, SE2's paper form, Aff and the Geps quaternion
    # form, on a batch of 400 points exp(xi) with |xi_i| <= 3
    ch = G._CHARTS[key]
    rng = np.random.default_rng(zlib.crc32(str(key).encode()))
    g = G.exp_algebra(ch, rng.uniform(-3, 3, (400, ch.algebra.dim)))
    expected = ADJOINTS[key](g)
    gap = np.abs(G._adjoint(ch, g) - expected).max(axis=(-2, -1))
    assert np.max(gap / np.abs(expected).max(axis=(-2, -1))) <= 1e-11


def _dense_adjoint(chart, g):
    """The reference Ad(g) on a second-kind chart: the full factor matrices
    exp(g_i ad a_{s_i}) from `exp_ad_basis`, multiplied left to right."""
    out = np.eye(chart.algebra.dim)
    for pos, idx in enumerate(chart.ordering):
        out = out @ exp_ad_basis(chart.algebra, idx - 1, g[..., pos])
    return out


@pytest.mark.parametrize("key", [k for k in ALL_KEYS if k[1] == "canonical_second"], ids=str)
def test_second_kind_adjoint_matches_the_dense_product(key):
    # one point and a batch of 400 points exp(xi) with |xi_i| <= 3: each
    # matrix within 4 eps of its largest entry, the batch its single calls
    # bit for bit
    ch = G._CHARTS[key]
    rng = np.random.default_rng(zlib.crc32(str(key).encode()))
    g = G.exp_algebra(ch, rng.uniform(-3, 3, (400, ch.algebra.dim)))
    for points in (g[0], g):
        ad, ref = G._adjoint(ch, points), _dense_adjoint(ch, points)
        scale = np.abs(ref).max(axis=(-2, -1), keepdims=True)
        assert (np.abs(ad - ref) <= 4 * np.finfo(float).eps * scale).all()
    assert np.array_equal(G._adjoint(ch, g), [G._adjoint(ch, x) for x in g])


# --- exponentials ---------------------------------------------------------------


def test_exp_chart_zero_is_identity():
    for key in ALL_KEYS:
        ch = G._CHARTS[key]
        for i in range(ch.algebra.dim):
            assert np.allclose(G.exp_chart(ch, i, 0.0).coords, ch.identity().coords)


def _taylor_expm(M, terms=40):
    out = np.eye(M.shape[0])
    term = np.eye(M.shape[0])
    for k in range(1, terms):
        term = term @ M / k
        out = out + term
    return out


def test_so3_exponential_rotation():
    ch = G.get_chart("SO3", "matrix")
    s = 0.83
    got = G.exp_chart(ch, 0, s).matrix()
    assert np.max(np.abs(got - _taylor_expm(s * ch.algebra_rep[0]))) < 1e-13
    # rotation in the (x1, x2) plane
    assert abs(got[0, 0] - math.cos(s)) < 1e-12 and abs(got[2, 2] - 1.0) < 1e-12


def test_charts_are_filed_under_their_own_key():
    assert G._CHARTS
    for key, chart in G._CHARTS.items():
        assert key == (chart.group_name, chart.chart_kind, chart.ordering) == chart.key
        assert chart.coord_dim == len(chart.identity_coords)


def test_group_elements_equal_and_hash_as_themselves_only():
    chart = G.get_chart("SO3", "matrix")
    g, h = chart.identity(), chart.identity()
    assert g == g and g != h and g in [h, g] and h not in [g]
    assert len({g, h, g}) == 2


def test_exp_rule_cache_never_serves_another_chart():
    # a freed chart's address goes to the next chart built (its arguments
    # are built beforehand, so nothing else takes it first); the cached
    # exp(s R_i) rule must still belong to the chart asked about
    rotation, hyperbolic = catalog_algebra("g_eps", eps=1), catalog_algebra("g_eps", eps=-1)
    rep_rotation, rep_hyperbolic = G._geps_rep3(1), G._geps_rep3(-1)
    ref = _taylor_expm(0.9 * rep_hyperbolic[1])
    reused = 0
    for _ in range(100):
        old = G.GroupChart("old", "matrix", rotation, np.eye(3).reshape(-1),
                           algebra_rep=rep_rotation)
        G.exp_rep(old, 1, 0.9)
        address = id(old)
        del old
        new = G.GroupChart("new", "matrix", hyperbolic, np.eye(3).reshape(-1),
                           algebra_rep=rep_hyperbolic)
        reused += id(new) == address
        assert np.max(np.abs(G.exp_rep(new, 1, 0.9) - ref)) < 1e-14
    assert reused, "no address was reused, so the test checked nothing"


def test_geps_uniparametric_subgroups():
    for eps in (-1, 0, 1):
        q = G.get_chart("Geps", "quaternion", eps=eps)
        for i in range(3):
            el = G.exp_chart(q, i, 0.91)
            ref = _taylor_expm(0.91 * q.algebra_rep[i])
            assert np.max(np.abs(el.matrix() - ref)) < 1e-12


def test_geps_a2_coordinates():
    q = G.get_chart("Geps", "quaternion", eps=1)
    s = 0.7
    el = G.exp_chart(q, 1, s)
    assert np.allclose(el.coords, [math.cos(s / 2), 0.0, math.sin(s / 2), 0.0])


# --- log-derivatives ------------------------------------------------------------


def test_log_derivative_constant_curve():
    ch = G.get_chart("SE2", "canonical_second", (1, 2, 3))
    g0 = ch.element([0.4, 0.1, -0.2])
    curve = lambda t: g0
    assert np.max(np.abs(G.right_log_derivative(curve, 0.5))) < 1e-12
    assert np.max(np.abs(G.left_log_derivative(curve, 0.5))) < 1e-12


def test_log_derivative_one_parameter_subgroup():
    for key in (("H3", "canonical_second", (1, 2, 3)), ("SO3", "matrix", None),
                ("Geps(+1)", "quaternion", None)):
        ch = G._CHARTS[key]
        for i in range(ch.algebra.dim):
            curve = lambda t, i=i: G.exp_chart(ch, i, t)
            e = np.zeros(ch.algebra.dim)
            e[i] = 1.0
            for t in (0.2, 0.9):
                assert np.max(np.abs(G.right_log_derivative(curve, t) - e)) < 1e-9
                assert np.max(np.abs(G.left_log_derivative(curve, t) - e)) < 1e-9


def test_h3_first_kind_log_derivative_closed_form():
    ch = G.get_chart("H3", "canonical_first")
    a = lambda t: np.sin(t)
    b = lambda t: t * t
    c = lambda t: np.cos(2 * t)
    curve = lambda t: ch.element([a(t), b(t), c(t)])
    t0 = 0.37
    da, db, dc = math.cos(t0), 2 * t0, -2 * math.sin(2 * t0)
    expected_r = np.array([da, db, dc - (b(t0) * da - a(t0) * db) / 2])
    expected_l = np.array([da, db, dc + (b(t0) * da - a(t0) * db) / 2])
    assert np.max(np.abs(G.right_log_derivative(curve, t0) - expected_r)) < 1e-9
    assert np.max(np.abs(G.left_log_derivative(curve, t0) - expected_l)) < 1e-9


# --- chart conversions ----------------------------------------------------------


def test_h3_conversion_fixture():
    c2 = G.get_chart("H3", "canonical_second", (1, 2, 3))
    c1 = G.get_chart("H3", "canonical_first")
    out = G.chart_convert(c2.element([1, 2, 3]), c1)
    assert np.allclose(out.coords, [1, 2, 4])


def test_conversion_identity():
    c2 = G.get_chart("H3", "canonical_second", (1, 2, 3))
    c1 = G.get_chart("H3", "canonical_first")
    assert np.allclose(G.chart_convert(c2.identity(), c1).coords, 0.0)


def test_g4_conversion_roundtrip(rng):
    c2 = G.get_chart("G4", "canonical_second", (1, 2, 3, 4))
    c1 = G.get_chart("G4", "canonical_first")
    for _ in range(100):
        g = c2.element(rng.standard_normal(4))
        back = G.chart_convert(G.chart_convert(g, c1), c2)
        assert np.max(np.abs(back.coords - g.coords)) < 1e-12


def test_conversion_unregistered_raises():
    c1 = G.get_chart("H3", "canonical_first")
    sl2 = G.get_chart("SL2", "matrix")
    with pytest.raises(ChartError):
        G.chart_convert(c1.identity(), sl2)


def test_chart_mismatch_raises():
    c2 = G.get_chart("H3", "canonical_second", (1, 2, 3))
    c1 = G.get_chart("H3", "canonical_first")
    with pytest.raises(ChartError):
        G.compose(c2.identity(), c1.identity())


def test_conversion_commutes_with_composition(rng):
    # canonical-chart composition agrees with the matrix representation
    c2 = G.get_chart("H3", "canonical_second", (1, 2, 3))
    mat = G.get_chart("H3", "matrix")
    for _ in range(20):
        g = c2.element(rng.standard_normal(3))
        h = c2.element(rng.standard_normal(3))
        lhs = G.chart_convert(G.compose(g, h), mat).matrix()
        rhs = G.chart_convert(g, mat).matrix() @ G.chart_convert(h, mat).matrix()
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_every_chart_is_registered_at_import():
    # the chart-law suites collect their ids from _CHARTS, so building a
    # catalog system must register no further chart
    import liesys

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(liesys.__file__)))
    code = ("import liesys.groups as G; from liesys.catalog import get_system, list_systems; "
            "n = len(G._CHARTS); [get_system(s) for s in list_systems()]; "
            "print(n, len(G._CHARTS))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    at_import, after = out.stdout.split()
    assert at_import == after == str(len(ALL_KEYS))


@pytest.mark.parametrize("pair", sorted(G._CONVERSIONS), ids=lambda p: "->".join(map(str, p)))
def test_conversion_round_trip(pair, rng):
    src, dst = (G._CHARTS[key] for key in pair)
    g = random_element(src, rng)
    h = G.chart_convert(g, dst)
    assert h.chart is dst
    if dst.chart_kind == "matrix":
        assert np.max(np.abs(h.matrix() - g.matrix())) <= 1e-12
    if pair[::-1] in G._CONVERSIONS:
        back = G.chart_convert(h, src)
        assert np.max(np.abs(back.coords - g.coords)) <= 1e-12


@pytest.mark.parametrize("key", ALL_KEYS, ids=str)
def test_element_dict_round_trip(key, rng):
    g = random_element(G._CHARTS[key], rng)
    d = json.loads(json.dumps(G.element_to_dict(g)))
    back = G.element_from_dict(d)
    assert back.chart is g.chart
    assert np.array_equal(back.coords, g.coords)


# --- constraints ----------------------------------------------------------------


def test_matrix_chart_constraints():
    sl2 = G.get_chart("SL2", "matrix")
    with pytest.raises(ChartError):
        sl2.element([2.0, 0.0, 0.0, 1.0])   # det = 2
    so3 = G.get_chart("SO3", "matrix")
    with pytest.raises(ChartError):
        so3.element((np.eye(3) * 1.01).reshape(-1))
    q = G.get_chart("Geps", "quaternion", eps=1)
    with pytest.raises(ChartError):
        q.element([1.0, 0.5, 0.0, 0.0])     # norm != 1


def _dense_orthogonality(R):
    """max |R^T R - I| by a batched matrix product, the reference for the
    constraint functions' dot products of column slices."""
    return np.abs(R.swapaxes(-1, -2) @ R - np.eye(R.shape[-1])).max(axis=(-2, -1))


@pytest.mark.parametrize("scale", [1e-9, 1e-3, 1.0])
def test_orthogonal_and_rigid_errors_equal_the_dense_gram_matrix(scale, rng):
    # near-rotations with noise of the given size, and 4x4 rigid motions
    # whose last row is off e_4 by noise as large: the unique Gram entries
    # round differently from the full product, but stay within 4 eps
    R = np.linalg.qr(rng.standard_normal((2001, 3, 3)))[0]
    R = R + scale * rng.standard_normal(R.shape)
    M = np.zeros((2001, 4, 4))
    M[:, :3, :3], M[:, :3, 3], M[:, 3, 3] = R, rng.standard_normal((2001, 3)), 1.0
    M[:, 3] += scale * rng.standard_normal((2001, 4))
    eps = np.finfo(float).eps
    ref = _dense_orthogonality(R)
    got = G._orthogonal(R.reshape(-1, 9))
    assert np.all(np.abs(got - ref) <= 4 * eps * np.maximum(1.0, ref))
    ref = np.maximum(ref, np.abs(M[:, 3] - np.eye(4)[3]).max(axis=-1))
    got = G._rigid(M.reshape(-1, 16))
    assert np.all(np.abs(got - ref) <= 4 * eps * np.maximum(1.0, ref))
    # one point is the batch with no leading axis
    assert G._orthogonal(R[7].reshape(-1)) == G._orthogonal(R.reshape(-1, 9))[7]
    assert G._rigid(M[7].reshape(-1)) == G._rigid(M.reshape(-1, 16))[7]


# --- second-kind maps -------------------------------------------------------------


SECOND_KIND = [("Geps(+1)", "matrix", None), ("Geps(-1)", "matrix", None), ("SO3", "matrix", None),
               ("SL2", "matrix", None), ("Aff", "canonical_second", (1, 2))]


@pytest.mark.parametrize("key", SECOND_KIND, ids=str)
def test_second_kind_map_inverts_the_wei_norman_reconstruction(key, rng):
    # the reconstruction of exponents v is prod_i exp(-v_i a_{s_i}), so the
    # map gives -v back; the first exponent runs past pi, where the angle's
    # unwrapping along the nodes keeps it continuous
    chart = G._CHARTS[key]
    ordering = chart.ordering or (1, 2, 3)
    filed, to_second = G.second_kind_chart(chart.algebra, ordering)
    assert filed is chart
    grid = TimeGrid.uniform(0.0, 1.0, 400)
    t = grid.nodes[:, None]
    v = np.sin(t * rng.uniform(1.0, 3.0, len(ordering)) + rng.uniform(-1.0, 1.0, len(ordering)))
    v = v - v[0]
    v[:, 0] += 4.0 * grid.nodes
    coords = wn_reconstruct(Trajectory(grid, v), ordering, chart).coords
    x = to_second(coords)
    assert np.max(np.abs(x + v) / np.maximum(1.0, np.abs(v))) <= 1e-14
    # batch = single on the nodes where no angle needed unwrapping
    for k in np.flatnonzero(np.abs(v[:, 0]) < 3.0)[::37]:
        assert np.array_equal(to_second(coords[k]), x[k])


def test_second_kind_maps_are_registered_on_the_cyclic_charts_only():
    # the Magnus curve seeds the cyclic Wei-Norman sweeps where a chart's
    # map to second-kind coordinates is known in closed form: one chart per
    # algebra and ordering, every second-kind chart filed as its own map,
    # and no other algebra or ordering filed
    filed = {(alg, ordering): chart for (alg, ordering), (chart, _) in G._SECOND_KIND.items()}
    assert all(chart.algebra is alg for (alg, _), chart in filed.items())
    assert {c.key for c in filed.values() if c.chart_kind == "matrix"} == {
        ("Geps(+1)", "matrix", None), ("Geps(-1)", "matrix", None), ("SO3", "matrix", None),
        ("SL2", "matrix", None)}
    second = [G._CHARTS[k] for k in ALL_KEYS if k[1] == "canonical_second"]
    assert {c.key for c in filed.values() if c.chart_kind != "matrix"} == {c.key for c in second}
    assert all(filed[(c.algebra, c.ordering)] is c for c in second)
    so3 = catalog_algebra("so3")
    assert G.second_kind_chart(so3, (3, 2, 1)) is None
    assert G.second_kind_chart(LieAlgebra(so3.structure, so3.name), (1, 2, 3)) is None
    _, sl2 = G.second_kind_chart(catalog_algebra("sl2"), (1, 2, 3))
    assert np.isnan(sl2(-np.eye(2).reshape(-1))).all()


def test_se2_element_keeps_an_angle_of_3pi():
    # canonical coordinates are the simply connected group's; the matrix
    # chart sees SE(2) itself, so converting back gives the principal angle
    ch = G.get_chart("SE2", "canonical_second", (1, 2, 3))
    g = ch.element([3 * math.pi, 0.5, -0.25])
    assert g.coords[0] == 3 * math.pi
    back = G.chart_convert(G.chart_convert(g, G.get_chart("SE2", "matrix")), ch)
    assert abs(back.coords[0] - math.pi) <= 1e-12
    assert np.max(np.abs(back.coords[1:] - g.coords[1:])) <= 1e-12


def test_composition_matches_matrix_representation(rng):
    # canonical laws vs faithful matrix representatives, nodewise
    cases = [("H3", "canonical_second", (1, 2, 3)), ("H3", "canonical_first", None),
             ("SE2", "canonical_second", (1, 2, 3)), ("Aff", "canonical_second", (1, 2)),
             ("Geps(+1)", "quaternion", None), ("Geps(-1)", "quaternion", None),
             ("Geps(+0)", "quaternion", None)]
    for key in cases:
        ch = G._CHARTS[key]
        for _ in range(25):
            g, h = random_element(ch, rng), random_element(ch, rng)
            gap = G.compose(g, h).matrix() - g.matrix() @ h.matrix()
            assert np.max(np.abs(gap)) < 1e-10, key


def test_non_finite_coordinates_are_rejected():
    with pytest.raises(ChartError):
        G.get_chart("SO3", "matrix").element(np.full(9, np.nan))
    with pytest.raises(ChartError):
        G.get_chart("Geps", "quaternion", eps=1).element(np.array([1.0, 0.0, np.nan, 0.0]))
    # entries the constraint does not read, and charts with no constraint
    se3 = np.eye(4)
    se3[1, 3] = np.inf
    with pytest.raises(ChartError):
        G.get_chart("SE3", "matrix").element(se3.reshape(-1))
    with pytest.raises(ChartError):
        G.get_chart("H3", "canonical_first").element(np.array([0.0, np.nan, 0.0]))


def test_charts_equal_and_hash_as_themselves_only():
    # a chart rebuilt from the same fields is another chart object, which
    # == tells apart without comparing ndarray fields
    chart = G.get_chart("H3", "canonical_first")
    copy = dataclasses.replace(chart)
    assert copy.key == chart.key and copy is not chart
    assert chart == chart and chart != copy and len({chart, copy, chart}) == 2
