"""Batched chart laws against their single-point calls: every law of every
registered chart, applied to a stack of points in one call, must give the
stacked single-point results (a single point is the batch with no leading
axis, so both go through the same code)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import liesys.groups as G
from liesys.algebra import catalog_algebra, exp_ad_basis, wn_matrix

ALL_KEYS = sorted(G._CHARTS, key=str)
BATCH = 8

# rows of 16: enough for the coordinates of every chart (SE3 has 16)
exponent_stacks = st.lists(st.lists(st.floats(-1.5, 1.5), min_size=16, max_size=16),
                           min_size=2 * BATCH, max_size=2 * BATCH).map(np.array)
examples = settings(max_examples=10, deadline=None)


def close(batched, stacked):
    """Equal to 1e-15 relative to the largest stacked entry."""
    scale = max(1.0, float(np.max(np.abs(stacked))))
    return float(np.max(np.abs(batched - stacked))) <= 1e-15 * scale


def points(chart, exponents):
    """Group points prod_i exp(s_i a_i), one per row of exponents."""
    out = []
    for s in exponents:
        g = chart.identity()
        for i in range(chart.algebra.dim):
            g = G.compose(g, G.exp_chart(chart, i, s[i]))
        out.append(g.coords)
    return np.stack(out)


def stacked(fn, *rows):
    return np.stack([fn(*args) for args in zip(*rows)])


@pytest.mark.parametrize("key", ALL_KEYS, ids=str)
@examples
@given(exponents=exponent_stacks)
def test_batched_laws_equal_stacked_single_calls(key, exponents):
    chart = G._CHARTS[key]
    g = points(chart, exponents[:BATCH])
    h = points(chart, exponents[BATCH:])
    # a velocity with no relation to g: the trivializations are linear in it
    dg = exponents[BATCH:, :chart.coord_dim] - exponents[:BATCH, :chart.coord_dim]
    b = exponents[BATCH:, ::-1][:, :chart.algebra.dim]
    laws = {
        "compose": (chart.compose_fn, (g, h)),
        "inverse": (chart.inverse_fn, (g,)),
        "adjoint": (lambda x: G._adjoint(chart, x), (g,)),
        "right": (lambda x, v: G._trivialize(chart, x, v, left=False), (g, dg)),
        "left": (lambda x, v: G._trivialize(chart, x, v, left=True), (g, dg)),
        "pull_back": (lambda x, x_inv, c, v: G._pull_back(chart, x, x_inv, c, v),
                      (g, chart.inverse_fn(g), b, dg)),
    }
    for name in ("constraint_fn", "to_matrix_fn"):
        fn = getattr(chart, name)
        if fn is not None:
            laws[name] = (fn, (g,))
    for name, (fn, args) in laws.items():
        batched = fn(*args)
        assert batched.shape[0] == BATCH, name
        assert close(batched, stacked(fn, *args)), name


@pytest.mark.parametrize("key", ALL_KEYS, ids=str)
def test_single_point_keeps_its_shape(key):
    chart = G._CHARTS[key]
    g = points(chart, np.full((1, 8), 0.4))[0]
    r = chart.algebra.dim
    assert chart.compose_fn(g, g).shape == (chart.coord_dim,)
    assert chart.inverse_fn(g).shape == (chart.coord_dim,)
    assert G._adjoint(chart, g).shape == (r, r)
    assert G._trivialize(chart, g, g, left=True).shape == (r,)
    assert G._pull_back(chart, g, chart.inverse_fn(g), np.ones(r), g).shape == (r,)
    if chart.constraint_fn is not None:
        assert np.ndim(chart.constraint_fn(g)) == 0


@pytest.mark.parametrize("name", ["so3", "se2", "sl3", "g5", "h3", "aff", "sl2", "se3", "g_eps-1"])
@examples
@given(v=st.lists(st.floats(-6.0, 6.0), min_size=BATCH * 8, max_size=BATCH * 8).map(np.array))
def test_exp_ad_basis_and_wn_matrix_batched(name, v):
    alg = catalog_algebra("g_eps", eps=-1) if name == "g_eps-1" else catalog_algebra(name)
    r = alg.dim
    v = v[:BATCH * r].reshape(BATCH, r)
    ordering = tuple(range(r, 0, -1))
    for i in range(r):
        assert close(exp_ad_basis(alg, i, v[:, i]),
                     np.stack([exp_ad_basis(alg, i, s) for s in v[:, i]]))
    assert close(wn_matrix(alg, ordering, v), np.stack([wn_matrix(alg, ordering, x) for x in v]))


def test_bch_batched_matches_single_calls():
    alg = catalog_algebra("g8")
    rng = np.random.default_rng(7)
    x, y = rng.uniform(-1, 1, (2, BATCH, alg.dim))
    assert close(G.bch(alg, x, y), np.stack([G.bch(alg, a, b) for a, b in zip(x, y)]))
    # one point against a stack broadcasts
    assert close(G.bch(alg, x[0], y), np.stack([G.bch(alg, x[0], b) for b in y]))
