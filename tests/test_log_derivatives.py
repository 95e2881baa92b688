"""Property tests of the log-derivatives over every registered chart: the
rule derived per chart kind agrees with the hand-written closed forms, sends
one-parameter subgroups to their generators, and satisfies L = Ad(g)^{-1} R."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import liesys.groups as G
from hand_laws import LOG_DERIVATIVES, right_invariant_derivative

ALL_KEYS = sorted(G._CHARTS, key=str)

exponents = st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8).map(np.array)
examples = settings(max_examples=15, deadline=None)


def product_of_exponentials(chart, s):
    """prod_i exp(s_i a_i): a point of the group in any chart."""
    g = chart.identity()
    for i in range(chart.algebra.dim):
        g = G.compose(g, G.exp_chart(chart, i, s[i]))
    return g


def point_and_velocity(key, s, xi):
    """A chart point g and the coordinate velocity of exp(t xi) g at t = 0,
    which is tangent to the group on matrix and quaternion charts too."""
    chart = G._CHARTS[key]
    g = product_of_exponentials(chart, s)
    xi = xi[:chart.algebra.dim]
    return chart, g, right_invariant_derivative(chart, xi, g.coords)


@pytest.mark.parametrize("key", sorted(LOG_DERIVATIVES, key=str), ids=str)
@examples
@given(s=exponents, xi=exponents)
def test_derived_map_matches_hand_fixtures(key, s, xi):
    chart, g, dg = point_and_velocity(key, s, xi)
    for side, fixture in LOG_DERIVATIVES[key].items():
        derived = G._trivialize(chart, g.coords, dg, left=side == "left")
        assert np.max(np.abs(derived - fixture(g.coords, dg))) <= 1e-13, side


@pytest.mark.parametrize("key", ALL_KEYS, ids=str)
@examples
@given(s=exponents)
def test_one_parameter_subgroups_give_basis_vectors(key, s):
    chart = G._CHARTS[key]
    g0 = product_of_exponentials(chart, s)
    for i in range(chart.algebra.dim):
        e = np.eye(chart.algebra.dim)[i]
        right = G.right_log_derivative(
            lambda t: G.compose(G.exp_chart(chart, i, t), g0), 0.3, order=4)
        left = G.left_log_derivative(
            lambda t: G.compose(g0, G.exp_chart(chart, i, t)), 0.3, order=4)
        assert np.max(np.abs(right - e)) <= 1e-8, ("right", i)
        assert np.max(np.abs(left - e)) <= 1e-8, ("left", i)


@pytest.mark.parametrize("key", ALL_KEYS, ids=str)
@examples
@given(s=exponents, xi=exponents)
def test_left_is_adjoint_of_right(key, s, xi):
    chart, g, dg = point_and_velocity(key, s, xi)
    right = G._trivialize(chart, g.coords, dg, left=False)
    left = G._trivialize(chart, g.coords, dg, left=True)
    assert np.max(np.abs(left - G.group_adjoint(G.inverse(g)) @ right)) <= 1e-12


@pytest.mark.parametrize("key", [k for k in ALL_KEYS if k[1].startswith("canonical")], ids=str)
@examples
@given(s=exponents, xi=exponents)
def test_right_invariant_derivative_is_exact(key, s, xi):
    # the tangent of exp(t xi) h at t = 0 solves the trivialization map, so
    # mapping it back gives xi to roundoff, with no difference-step error
    chart = G._CHARTS[key]
    h = product_of_exponentials(chart, s).coords
    xi = xi[:chart.algebra.dim]
    dh = right_invariant_derivative(chart, xi, h)
    assert np.max(np.abs(G._trivialize(chart, h, dh, left=False) - xi)) <= 1e-12
