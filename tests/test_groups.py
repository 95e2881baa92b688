import math

import numpy as np
import pytest

import liesys.groups as G
from liesys.algebra import exp_ad
from liesys.errors import ChartError

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


def test_h3_adjoint_fixture():
    ch = G.get_chart("H3", "canonical_first")
    a, b, c = 0.7, -1.3, 0.4
    Ad = G.group_adjoint(ch.element([a, b, c]))
    assert np.allclose(Ad, [[1, 0, 0], [0, 1, 0], [-b, a, 1]])


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


def test_se2_adjoint_paper_form():
    ch = G.get_chart("SE2", "canonical_second", (1, 2, 3))
    th, a, b = 0.6, 0.3, -0.8
    expected = np.array([
        [1, 0, 0],
        [b * math.cos(th) + a * math.sin(th), math.cos(th), -math.sin(th)],
        [-a * math.cos(th) + b * math.sin(th), math.sin(th), math.cos(th)],
    ])
    assert np.allclose(G.group_adjoint(ch.element([th, a, b])), expected)


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


def test_se2_angle_wrapped():
    ch = G.get_chart("SE2", "canonical_second", (1, 2, 3))
    g = ch.element([3 * math.pi, 0.0, 0.0])
    assert -math.pi < g.coords[0] <= math.pi


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
