"""Property tests of the exponential map `exp_algebra` over every registered
chart: it is a one-parameter group along each ray, it matches the matrix
exponential of the representation, Ad(exp xi) = exp(ad xi), and a batch
equals the stacked single calls bit for bit.  The chart laws are checked for
associativity and inverses at the points it draws."""

import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import liesys.groups as G
import liesys.algebra as A
from liesys.algebra import exp_ad, expm
from hand_laws import _expm_taylor

ALL_KEYS = sorted(G._CHARTS, key=str)
REP_KEYS = [key for key in ALL_KEYS if G._CHARTS[key].algebra_rep is not None]
MATRIX_KEYS = [key for key in ALL_KEYS if key[1] == "matrix"]
# the matrix charts whose representation closes the cube,
# X(xi)^3 = q(xi) X(xi), for a quadratic form q
CUBIC_KEYS = [key for key in MATRIX_KEYS if key[0] not in ("SE3", "SL3")]
EPS = np.finfo(float).eps

vectors = st.lists(st.floats(-2.0, 2.0), min_size=8, max_size=8).map(np.array)
times = st.floats(-1.5, 1.5)
examples = settings(max_examples=15, deadline=None)


def gap(got, ref):
    """Largest entry of got - ref relative to max(1, largest entry of ref)."""
    return float(np.max(np.abs(got - ref))) / max(1.0, float(np.max(np.abs(ref))))


def test_every_chart_is_covered():
    assert len(ALL_KEYS) == 34
    assert len(REP_KEYS) == 22


@pytest.mark.parametrize("key", ALL_KEYS, ids=str)
@examples
@given(xi=vectors, s=times, t=times)
def test_rays_are_one_parameter_groups(key, xi, s, t):
    chart = G._CHARTS[key]
    xi = xi[:chart.algebra.dim]
    product = chart.compose_fn(G.exp_algebra(chart, s * xi), G.exp_algebra(chart, t * xi))
    assert gap(product, G.exp_algebra(chart, (s + t) * xi)) <= 1e-12


@pytest.mark.parametrize("key", REP_KEYS, ids=str)
@examples
@given(xi=vectors)
def test_matrix_of_exp_is_expm_of_representation(key, xi):
    chart = G._CHARTS[key]
    xi = xi[:chart.algebra.dim]
    ref = _expm_taylor(sum(v * M for v, M in zip(xi, chart.algebra_rep)))
    assert gap(chart.element(G.exp_algebra(chart, xi)).matrix(), ref) <= 1e-12


@pytest.mark.parametrize("key", ALL_KEYS, ids=str)
@examples
@given(xi=vectors)
def test_adjoint_of_exp_is_exp_of_ad(key, xi):
    chart = G._CHARTS[key]
    xi = xi[:chart.algebra.dim]
    ref = exp_ad(chart.algebra, xi)
    assert gap(G._adjoint(chart, G.exp_algebra(chart, xi)), ref) <= 1e-12


@pytest.mark.parametrize("key", ALL_KEYS, ids=str)
@examples
@given(rows=st.lists(vectors, min_size=6, max_size=6).map(np.array))
# SE2's second-kind exponential once squared a scalar sinc with ** 2, which
# rounds 1 ulp away from the array square at this point
@example(rows=np.vstack([[0.3453636271498026, 0.0, 1.0] + [0.0] * 5, np.zeros((5, 8))]))
# hyperbolic, elliptic and zero rows side by side: the first row is halved
# and squared twice on Aff and Geps(-1), once on SL2, QuadH and Geps(-1)'s
# cover
@example(rows=np.vstack([[1.0, 4.0, 0.0] + [0.0] * 5, [1.0, 0.0, 1.0] + [0.0] * 5,
                         np.zeros((4, 8))]))
def test_batch_equals_stacked_single_calls(key, rows):
    chart = G._CHARTS[key]
    xi = rows[:, :chart.algebra.dim].reshape(2, 3, -1)
    stacked = np.stack([np.stack([G.exp_algebra(chart, x) for x in row]) for row in xi])
    assert np.array_equal(G.exp_algebra(chart, xi), stacked)


@pytest.mark.parametrize("key", ALL_KEYS, ids=str)
@examples
@given(x=vectors, y=vectors, z=vectors)
def test_group_axioms_at_exponential_points(key, x, y, z):
    chart = G._CHARTS[key]
    g, h, k = (G.exp_algebra(chart, 0.6 * v[:chart.algebra.dim]) for v in (x, y, z))
    law = chart.compose_fn
    assert gap(law(law(g, h), k), law(g, law(h, k))) <= 1e-12
    assert gap(law(g, chart.inverse_fn(g)), chart.identity_coords) <= 1e-12
    assert gap(law(chart.inverse_fn(g), g), chart.identity_coords) <= 1e-12


def test_the_cubic_closed_matrix_charts():
    closed = [key for key in MATRIX_KEYS if A.SpanExpRule(G._CHARTS[key].algebra_rep).closed_form]
    assert closed == CUBIC_KEYS and len(closed) == 13


def exp_gap(chart, xi):
    """exp_algebra against expm of the representation, relative to
    max(1, largest entry)."""
    ref = expm(np.tensordot(xi, np.stack(chart.algebra_rep), axes=1))
    got = G.exp_algebra(chart, xi).reshape(ref.shape)
    return np.max(np.abs(got - ref), axis=(-2, -1)) / np.maximum(1.0, np.max(np.abs(ref),
                                                                              axis=(-2, -1)))


@pytest.mark.parametrize("key", CUBIC_KEYS, ids=str)
@pytest.mark.parametrize("size", [0.0, 1e-9, 1e-3, 10.0])
def test_closed_form_exp_matches_expm(key, size):
    # expm squares its Taylor sum five times at |xi| = 10, which costs it up
    # to about 90 eps (the closed form is within 13 eps of a 40-digit
    # reference there)
    chart = G._CHARTS[key]
    xi = np.random.default_rng(zlib.crc32(str(key).encode())).normal(size=(64, chart.algebra.dim))
    xi *= size / np.linalg.norm(xi, axis=-1, keepdims=True)
    assert np.max(exp_gap(chart, xi)) <= 4 * EPS * max(1.0, size) ** 2


@pytest.mark.parametrize("group,xi", [
    ("Geps(-1)", [0.0, 10.0, 0.0]), ("Geps(-1)", [2.0, 6.0, -8.0]),
    ("Geps(-1)-cover", [0.0, 0.0, 10.0]), ("SL2", [0.0, 10.0, 0.0]), ("SL2", [1.0, 0.0, -10.0]),
    # exp X = [[e^-v, u (1 - e^-v) / v], [0, 1]]: at v = 10 the sinh form
    # alone sums terms of order e^10 to e^-10
    ("Aff", [1.0, 10.0]), ("Aff", [1.0, -10.0]), ("Aff", [10.0, 1e-9])])
def test_hyperbolic_closed_form_exp_matches_expm(group, xi):
    chart = G.get_chart(group, "matrix")
    assert np.max(exp_gap(chart, np.array(xi))) <= 400 * EPS


@pytest.mark.parametrize("key", MATRIX_KEYS, ids=str)
def test_only_charts_without_the_cubic_closure_call_expm(key, monkeypatch):
    calls, matrix_exp = [], A.expm
    monkeypatch.setattr(A, "expm", lambda X: calls.append(X.shape) or matrix_exp(X))
    chart = G._CHARTS[key]
    G.exp_algebra(chart, np.full((5, chart.algebra.dim), 0.3))
    assert calls == ([] if key in CUBIC_KEYS else [(5,) + chart.algebra_rep[0].shape])
