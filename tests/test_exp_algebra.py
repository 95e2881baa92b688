"""Property tests of the exponential map `exp_algebra` over every registered
chart: it is a one-parameter group along each ray, it matches the matrix
exponential of the representation, Ad(exp xi) = exp(ad xi), and a batch
equals the stacked single calls bit for bit.  The chart laws are checked for
associativity and inverses at the points it draws."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import liesys.groups as G
from liesys.algebra import exp_ad
from hand_laws import _expm_taylor

ALL_KEYS = sorted(G._CHARTS, key=str)
REP_KEYS = [key for key in ALL_KEYS if G._CHARTS[key].algebra_rep is not None]

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
