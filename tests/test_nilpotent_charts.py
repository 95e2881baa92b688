"""Property tests of the group charts: the group axioms and the Ad
homomorphism on every chart, and, on the nilpotent canonical charts (first
and second kind), conversion round trips and agreement of the BCH-derived
laws with the hand-expanded fixtures."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import liesys.groups as G
from liesys.algebra import catalog_algebra, catalog_names
from liesys.errors import ChartError
from hand_laws import LAWS

NILPOTENT = ("H3", "G4", "G5", "G7", "G8", "Gbar4", "Gbar5")
ALL_KEYS = sorted(G._CHARTS)
NILPOTENT_KEYS = [key for key in ALL_KEYS
                  if key[0] in NILPOTENT and key[1].startswith("canonical")]
GROUPS = sorted({key[0] for key in NILPOTENT_KEYS})

coords = st.lists(st.floats(-2.0, 2.0), min_size=8, max_size=8).map(np.array)
examples = settings(max_examples=30, deadline=None)


def on_group(key, xi):
    """The point exp(xi) of the chart, xi cut to the algebra's dimension."""
    chart = G._CHARTS[key]
    return chart.element(G.exp_algebra(chart, xi[:chart.algebra.dim]))


def charts_of(group):
    return G.get_chart(group, "canonical_first"), G.get_chart(group, "canonical_second")


def test_every_nilpotent_group_has_both_kinds():
    assert GROUPS == sorted(NILPOTENT)
    assert len(NILPOTENT_KEYS) == 2 * len(NILPOTENT)


@pytest.mark.parametrize("key", ALL_KEYS, ids=str)
@examples
@given(g=coords, h=coords, k=coords)
def test_associativity(key, g, h, k):
    g, h, k = (on_group(key, xi) for xi in (g, h, k))
    gap = G.compose(G.compose(g, h), k).coords - G.compose(g, G.compose(h, k)).coords
    assert np.max(np.abs(gap)) < 1e-9


@pytest.mark.parametrize("key", ALL_KEYS, ids=str)
@examples
@given(g=coords)
def test_inverse(key, g):
    g = on_group(key, g)
    e = G._CHARTS[key].identity_coords
    assert np.max(np.abs(G.compose(g, G.inverse(g)).coords - e)) < 1e-10
    assert np.max(np.abs(G.compose(G.inverse(g), g).coords - e)) < 1e-10


@pytest.mark.parametrize("key", ALL_KEYS, ids=str)
@examples
@given(g=coords, h=coords)
def test_adjoint_homomorphism(key, g, h):
    # The nilpotent canonical charts keep an absolute bound. Ad grows
    # exponentially on the other charts (entries up to about 600 on SL3
    # here), so there the gap is measured against the size of the product
    g, h = on_group(key, g), on_group(key, h)
    Ad_g, Ad_h = G.group_adjoint(g), G.group_adjoint(h)
    gap = G.group_adjoint(G.compose(g, h)) - Ad_g @ Ad_h
    scale = 1.0 if key in NILPOTENT_KEYS else max(
        1.0, np.max(np.abs(Ad_g)) * np.max(np.abs(Ad_h)))
    assert np.max(np.abs(gap)) < 1e-9 * scale


@pytest.mark.parametrize("group", GROUPS)
@examples
@given(g=coords)
def test_conversion_round_trips(group, g):
    c1, c2 = charts_of(group)
    for src, dst in ((c1, c2), (c2, c1)):
        x = src.element(g[:src.coord_dim])
        back = G.chart_convert(G.chart_convert(x, dst), src)
        assert np.max(np.abs(back.coords - x.coords)) < 1e-12


@pytest.mark.parametrize("group", GROUPS)
@examples
@given(g=coords, h=coords)
def test_conversion_is_a_homomorphism(group, g, h):
    c1, c2 = charts_of(group)
    x, y = c2.element(g[:c2.coord_dim]), c2.element(h[:c2.coord_dim])
    lhs = G.chart_convert(G.compose(x, y), c1)
    rhs = G.compose(G.chart_convert(x, c1), G.chart_convert(y, c1))
    assert np.max(np.abs(lhs.coords - rhs.coords)) < 1e-10


@pytest.mark.parametrize("group", sorted(LAWS))
@examples
@given(g=coords, h=coords)
def test_derived_laws_match_hand_fixtures(group, g, h):
    c1, c2 = charts_of(group)
    r = c1.coord_dim
    g, h = g[:r], h[:r]
    derived = {
        "compose1": lambda: c1.compose_fn(g, h),
        "compose2": lambda: c2.compose_fn(g, h),
        "inverse2": lambda: c2.inverse_fn(g),
        "conv21": lambda: G.chart_convert(c2.element(g), c1).coords,
        "conv12": lambda: G.chart_convert(c1.element(g), c2).coords,
    }
    for law, fixture in LAWS[group].items():
        args = (g, h) if law.startswith("compose") else (g,)
        assert np.max(np.abs(derived[law]() - fixture(*args))) <= 1e-12, law


def _bch_four_terms(alg, x, y):
    """Dynkin's series through the four-fold bracket, no term left out, with
    the brackets taken as `bch` takes them."""
    r = alg.dim
    c = alg.structure.reshape(r, r * r)
    ad_x = (x[..., None, :] @ c).reshape(x.shape[:-1] + (r, r))   # v @ ad_x = [x, v]
    ad_y = (y[..., None, :] @ c).reshape(y.shape[:-1] + (r, r))
    xy = (y[..., None, :] @ ad_x)[..., 0, :]
    x_xy = (xy[..., None, :] @ ad_x)[..., 0, :]
    y_xy = (xy[..., None, :] @ ad_y)[..., 0, :]
    yx_xy = (x_xy[..., None, :] @ ad_y)[..., 0, :]
    return x + y + 0.5 * xy + (x_xy - y_xy) / 12.0 - yx_xy / 24.0


NILPOTENT_ALGEBRAS = [
    alg for name in catalog_names()
    for alg in ([catalog_algebra(name, n=n) for n in range(2, 11)] if name == "gbar"
                else [catalog_algebra(name, eps=e) for e in (-1, 0, 1)] if name == "g_eps"
                else [catalog_algebra(name)])
    if alg.nilpotency_class is not None]


def test_nilpotent_algebras_cover_every_class():
    assert {alg.nilpotency_class for alg in NILPOTENT_ALGEBRAS} >= {1, 2, 3, 4}


@pytest.mark.parametrize("alg", NILPOTENT_ALGEBRAS,
                         ids=[f"{a.name}-{a.dim}" for a in NILPOTENT_ALGEBRAS])
def test_bch_stops_at_the_class_without_changing_a_bit(alg):
    # the terms the class leaves out are exact zeros; single points, a batch,
    # and a point against a batch
    rng = np.random.default_rng(alg.dim)
    x, y = rng.uniform(-2.0, 2.0, (2, 40, alg.dim))
    assert np.array_equal(G.bch(alg, x, y), _bch_four_terms(alg, x, y))
    for a, b in zip(x, y):
        assert np.array_equal(G.bch(alg, a, b), _bch_four_terms(alg, a, b))
    assert np.array_equal(G.bch(alg, x[0], y), _bch_four_terms(alg, x[0], y))


def test_bch_chart_rejects_class_above_four():
    with pytest.raises(ChartError, match=r"gbar6 has nilpotency class 5"):
        G._build_nilpotent("Gbar6", catalog_algebra("gbar", n=6), (1, 2, 3, 4, 5, 6))
    assert ("Gbar6", "canonical_first", None) not in G._CHARTS


def test_bch_chart_rejects_non_nilpotent_algebra():
    with pytest.raises(ChartError, match="nilpotency class None"):
        G._build_nilpotent("SE2-bch", catalog_algebra("se2"), (1, 2, 3))


def test_bch_chart_rejects_non_triangular_ordering():
    # [a1, a2] = a3 has a component on the first factor of (3, 2, 1, 4)
    with pytest.raises(ChartError, match="not triangular"):
        G._build_nilpotent("G4", catalog_algebra("g4"), (3, 2, 1, 4))
    assert ("G4", "canonical_second", (3, 2, 1, 4)) not in G._CHARTS
