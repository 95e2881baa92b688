import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liesys import algebra
from liesys.algebra import (
    ExpRule,
    LieAlgebra,
    ad_matrix,
    algebra_from_triples,
    bracket,
    bracket_coords,
    catalog_algebra,
    catalog_names,
    exp_ad,
    exp_ad_basis,
    expm,
    jacobi_residual,
    load_algebra_file,
    lower_central_class,
    span_is_subalgebra,
)
from liesys.errors import DimensionError, LieSysError, UnknownNameError


def all_catalog_algebras():
    out = []
    for name in catalog_names():
        if name == "gbar":
            out += [catalog_algebra(name, n=n) for n in (3, 4, 5, 6, 10)]
        elif name == "g_eps":
            out += [catalog_algebra(name, eps=e) for e in (-1, 0, 1)]
        else:
            out.append(catalog_algebra(name))
    return out


def test_h3_bracket_fixture():
    h3 = catalog_algebra("h3")
    assert np.allclose(bracket(h3.basis_vector(0), h3.basis_vector(1)).coeffs, [0, 0, 1])
    assert np.allclose(bracket(h3.basis_vector(0), h3.basis_vector(2)).coeffs, 0)
    assert np.allclose(bracket(h3.basis_vector(1), h3.basis_vector(2)).coeffs, 0)


def test_sl2_bracket_fixture():
    sl2 = catalog_algebra("sl2")
    assert np.allclose(bracket(sl2.basis_vector(1), sl2.basis_vector(2)).coeffs, [0, 0, 1])
    assert np.allclose(bracket(sl2.basis_vector(0), sl2.basis_vector(2)).coeffs, [0, 2, 0])


@given(st.lists(st.floats(-5, 5), min_size=3, max_size=3))
@settings(max_examples=50, deadline=None)
def test_bracket_antisymmetry_on_self(coeffs):
    h3 = catalog_algebra("h3")
    x = h3.vector(coeffs)
    assert np.all(bracket(x, x).coeffs == 0.0)


def test_jacobi_zero_for_h3_and_se3():
    assert jacobi_residual(catalog_algebra("h3")) == 0.0
    assert jacobi_residual(catalog_algebra("se3")) == 0.0


def test_jacobi_does_not_pin_constants():
    # doubling c^3_12 in h(3) stays Jacobi-consistent
    doubled = algebra_from_triples(3, [(1, 2, 3, 2.0)], "h3-doubled")
    assert jacobi_residual(doubled) == 0.0


def test_vectors_of_equal_algebra_objects_bracket():
    # two objects with the same structure constants are one algebra; a
    # different structure is a DimensionError, not numpy's ambiguous truth
    a, b = (algebra_from_triples(3, [(1, 2, 3, 1.0)]) for _ in range(2))
    assert a is not b
    z = bracket(a.basis_vector(0), b.basis_vector(1))
    assert np.array_equal(z.coeffs, [0.0, 0.0, 1.0])
    other = algebra_from_triples(3, [(1, 2, 3, 2.0)])
    with pytest.raises(DimensionError):
        bracket(a.basis_vector(0), other.basis_vector(1))
    with pytest.raises(DimensionError):
        a.basis_vector(0) + catalog_algebra("so3").basis_vector(1)


def test_antisymmetry_enforced():
    c = np.zeros((2, 2, 2))
    c[0, 1, 0] = 1.0  # missing the antisymmetric counterpart
    with pytest.raises(LieSysError):
        LieAlgebra(c)


def test_dimension_is_read_off_the_structure_tensor():
    c = catalog_algebra("sl2").structure
    assert LieAlgebra(c).dim == len(c) == 3
    with pytest.raises(DimensionError, match=r"\(r, r, r\)"):
        LieAlgebra(np.zeros((2, 2, 3)))


def test_ad_matrix_sl2_fixture():
    sl2 = catalog_algebra("sl2")
    expected = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 2.0], [0.0, 0.0, 0.0]])
    assert np.allclose(ad_matrix(sl2, sl2.basis_vector(0)), expected)


def test_ad_of_zero():
    g4 = catalog_algebra("g4")
    assert np.all(ad_matrix(g4, np.zeros(4)) == 0.0)


def test_ad_equals_bracket(rng):
    for alg in all_catalog_algebras():
        for _ in range(100):
            x = rng.standard_normal(alg.dim)
            y = rng.standard_normal(alg.dim)
            assert np.allclose(ad_matrix(alg, x) @ y, bracket_coords(alg, x, y),
                               atol=1e-12)


def test_exp_ad_h3_fixture():
    h3 = catalog_algebra("h3")
    v = 1.37
    M = exp_ad(h3, h3.basis_vector(1), -v)
    expected = np.eye(3)
    expected[2, 0] = v
    assert np.allclose(M, expected)


def test_exp_ad_zero_is_identity():
    for alg in all_catalog_algebras():
        assert np.allclose(exp_ad(alg, np.ones(alg.dim), 0.0), np.eye(alg.dim))


def _taylor_exp(M, terms):
    out = np.eye(M.shape[0])
    term = np.eye(M.shape[0])
    for k in range(1, terms):
        term = term @ M / k
        out = out + term
    return out


def test_exp_ad_sl2_taylor_oracle(rng):
    sl2 = catalog_algebra("sl2")
    for _ in range(20):
        a = rng.standard_normal(3)
        s = rng.uniform(-1, 1)
        a = a / max(1.0, abs(s) * np.max(np.abs(a)) / 2.0)  # keep ||s a|| <= 2
        ref = _taylor_exp(s * ad_matrix(sl2, a), 30)
        assert np.max(np.abs(exp_ad(sl2, a, s) - ref)) < 1e-12


def test_exp_ad_one_parameter_property(rng):
    for alg in all_catalog_algebras():
        a = rng.standard_normal(alg.dim)
        s, t = rng.uniform(-2, 2, 2)
        gap = exp_ad(alg, a, s) @ exp_ad(alg, a, t) - exp_ad(alg, a, s + t)
        assert np.max(np.abs(gap)) < 1e-10


def test_nilpotent_truncation_matches_long_taylor(rng):
    for name in ("h3", "g4", "g5", "g7", "g8"):
        alg = catalog_algebra(name)
        a = rng.standard_normal(alg.dim)
        ref = _taylor_exp(ad_matrix(alg, a), 40)
        assert np.max(np.abs(exp_ad(alg, a, 1.0) - ref)) < 1e-13


def test_ad_power_cache_never_serves_another_algebra():
    # collected algebras free addresses that new ones reuse; the cached
    # exp(ad) stack must still belong to the algebra asked about
    so3_like = [(1, 2, 3, 1.0), (2, 3, 1, 1.0), (3, 1, 2, 1.0)]
    old = [algebra_from_triples(3, [(1, 2, 3, 1.0)]) for _ in range(100)]
    for alg in old:
        exp_ad_basis(alg, 0, 0.9)
    del old, alg
    gc.collect()
    for alg in [algebra_from_triples(3, so3_like) for _ in range(100)]:
        ref = _taylor_exp(0.9 * ad_matrix(alg, alg.basis_vector(0)), 30)
        assert np.max(np.abs(exp_ad_basis(alg, 0, 0.9) - ref)) < 1e-12


# every catalog algebra, with the g_eps members and the gbar sizes of the charts
EXP_ALGEBRAS = ([catalog_algebra(name) for name in catalog_names() if name not in ("gbar", "g_eps")]
                + [catalog_algebra("g_eps", eps=e) for e in (-1, 0, 1)]
                + [catalog_algebra("gbar", n=n) for n in (5, 7)])
# the 1-based basis indices whose ad a_i is neither nilpotent nor has
# (ad a_i)^3 a multiple of ad a_i, so that exp(s ad a_i) goes through
# `expm`; every other one is in closed form
EXPM_FALLBACK = {"sl3": (2,), "hsp2": (2,), "r2sl2": (2,), "r2sl2yz": (2,)}


def long_taylor(M):
    """exp(M) by 30 Taylor terms in extended precision, scaled into 1-norm
    <= 0.5 and squared back."""
    M = np.asarray(M, dtype=np.longdouble)
    squarings = max(0, int(np.ceil(np.log2(max(float(np.abs(M).sum(axis=0).max()), 1e-300) / 0.5))))
    M = M / 2 ** squarings
    out = term = np.eye(len(M), dtype=np.longdouble)
    for k in range(1, 30):
        term = term @ M / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


@pytest.mark.parametrize("alg", EXP_ALGEBRAS, ids=lambda alg: alg.name)
def test_exp_ad_basis_matches_long_taylor_on_every_basis_element(alg):
    s = np.linspace(-6.0, 6.0, 37)
    for i in range(alg.dim):
        got = exp_ad_basis(alg, i, s)
        for x, g in zip(s, got):
            ref = long_taylor(x * ad_matrix(alg, alg.basis_vector(i)))
            scale = max(1.0, float(np.max(np.abs(ref))))
            assert float(np.max(np.abs(g - ref))) <= 1e-14 * scale, (i, x)


def test_closed_form_covers_the_catalog_but_the_pinned_indices():
    for alg in EXP_ALGEBRAS:
        for i in range(alg.dim):
            exp_ad_basis(alg, i, 0.0)
        stack = tuple(i + 1 for i in range(alg.dim) if not alg._ad_exps[i].closed_form)
        assert stack == EXPM_FALLBACK.get(alg.name, ()), alg.name


@pytest.mark.parametrize("X", [
    np.array([[0.0, -2.0], [2.0, 0.0]]),                # c = -4: rotation
    np.array([[0.0, 3.0], [0.0, 0.0]]),                 # c = 0, X^2 = 0
    np.diag([0.5, -0.5, 0.0]),                          # c = 1/4: projectors
    np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]]),   # X^3 = 0
    np.diag([1.0, -2.0, 0.5], 1),                       # X^4 = 0, X^3 != 0
    np.diag([1.0, 2.0]),                                # expm
    # expm, with a 1-norm about 8 times its largest entry: a scaling sized
    # by the largest entry instead of a norm is 5e-6 off at s = 3
    (np.ones((8, 8)) + 0.01 * np.random.default_rng(8).standard_normal((8, 8))) / 8,
], ids=["rotation", "square-zero", "projectors", "cube-zero", "fourth-power-zero", "diagonal",
         "dense"])
def test_exp_rule_batch_equals_stacked_single_calls(X):
    rule = ExpRule(X)
    s = np.linspace(-3.0, 3.0, 39).reshape(3, 1, 13)
    batch = rule(s)
    assert batch.shape == (3, 1, 13) + X.shape
    assert np.array_equal(batch, np.stack([rule(x) for x in s.ravel()]).reshape(batch.shape))
    for x, g in zip(s.ravel(), batch.reshape((-1,) + X.shape)):
        assert np.max(np.abs(g - long_taylor(x * X))) <= 1e-14 * max(1.0, np.max(np.abs(g)))


@pytest.mark.parametrize("name, n, indices", [
    ("g7", None, (1, 2)), ("g8", None, (1, 2)), ("gbar", 5, (1,)), ("gbar", 10, (1,))])
def test_nilpotent_series_matches_expm(name, n, indices):
    # ad a_i with (ad a_i)^3 no multiple of ad a_i but (ad a_i)^p = 0: the
    # finite series I + sX + ... + s^{p-1} X^{p-1} / (p-1)!, no expm
    alg = catalog_algebra(name, n=n)
    s = np.linspace(-4.0, 4.0, 33)
    for i in indices:
        X = ad_matrix(alg, alg.basis_vector(i - 1))
        got = exp_ad_basis(alg, i - 1, s)
        rule = alg._ad_exps[i - 1]
        assert rule.closed_form and len(rule.terms) > 3
        ref = expm(s[:, None, None] * X)
        scale = np.abs(ref).max(axis=(-2, -1), keepdims=True)
        assert (np.abs(got - ref) <= 4 * np.finfo(float).eps * scale).all()
        assert np.array_equal(got, np.stack([exp_ad_basis(alg, i - 1, x) for x in s]))


def test_lower_central_class():
    assert lower_central_class(catalog_algebra("h3")) == 2
    assert lower_central_class(catalog_algebra("g8")) == 4
    for n in (2, 3, 6):
        assert lower_central_class(catalog_algebra("gbar", n=n)) == n - 1
    for name in ("so3", "se2", "aff"):
        assert lower_central_class(catalog_algebra(name)) is None


def test_ad_is_homomorphism(rng):
    for alg in all_catalog_algebras():
        for _ in range(100):
            x = rng.standard_normal(alg.dim)
            y = rng.standard_normal(alg.dim)
            lhs = ad_matrix(alg, bracket_coords(alg, x, y))
            rhs = ad_matrix(alg, x) @ ad_matrix(alg, y) - ad_matrix(alg, y) @ ad_matrix(alg, x)
            assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_catalog_gbar3_is_heisenberg():
    gb3 = catalog_algebra("gbar", n=3)
    h3 = catalog_algebra("h3")
    assert np.array_equal(gb3.structure, h3.structure)


def test_catalog_geps0_is_se2():
    g0 = catalog_algebra("g_eps", eps=0)
    se2 = catalog_algebra("se2")
    assert np.array_equal(g0.structure, se2.structure)
    assert np.all(bracket(g0.basis_vector(1), g0.basis_vector(2)).coeffs == 0.0)


def test_every_catalog_entry_passes_jacobi():
    for alg in all_catalog_algebras():
        assert jacobi_residual(alg) == 0.0
        assert np.max(np.abs(alg.structure + np.swapaxes(alg.structure, 0, 1))) == 0.0


def test_unknown_names():
    with pytest.raises(UnknownNameError):
        catalog_algebra("nope")
    with pytest.raises(UnknownNameError):
        catalog_algebra("gbar")          # missing family parameter
    with pytest.raises(UnknownNameError):
        catalog_algebra("g_eps", eps=2)  # invalid family parameter


def test_span_h3_center():
    h3 = catalog_algebra("h3")
    flags = span_is_subalgebra(h3, [h3.basis_vector(2)])
    assert flags["subalgebra"] and flags["ideal"]


def test_span_sl2_affine_not_ideal():
    sl2 = catalog_algebra("sl2")
    flags = span_is_subalgebra(sl2, [sl2.basis_vector(0), sl2.basis_vector(1)])
    assert flags["subalgebra"] and not flags["ideal"]


def test_span_g5_abelian_ideal():
    g5 = catalog_algebra("g5")
    flags = span_is_subalgebra(g5, [g5.basis_vector(3), g5.basis_vector(4)])
    assert flags["subalgebra"] and flags["ideal"]


def test_span_dependent_rejected():
    h3 = catalog_algebra("h3")
    with pytest.raises(LieSysError):
        span_is_subalgebra(h3, [h3.basis_vector(0), h3.basis_vector(0)])


@pytest.mark.parametrize("name", ["h3", "se2", "sl2", "so3", "g5", "g8", "se3", "sl3"])
def test_span_residuals_match_the_per_pair_loop(name):
    # reference: one bracket per pair, each projected onto the span on its own
    alg = catalog_algebra(name)
    rng = np.random.default_rng(len(name))
    for k in range(1, alg.dim + 1):
        for span in (rng.standard_normal((k, alg.dim)),
                     np.eye(alg.dim)[rng.choice(alg.dim, k, replace=False)]):
            proj = span.T @ np.linalg.pinv(span.T)

            def off(pairs):
                return max(float(np.max(np.abs(w - proj @ w)))
                           for w in (bracket_coords(alg, x, y) for x, y in pairs))

            sub = off([(x, y) for x in span for y in span])
            ideal = max(sub, off([(e, v) for v in span for e in np.eye(alg.dim)]))
            flags = span_is_subalgebra(alg, list(span))
            assert flags["subalgebra"] == (sub <= 1e-10) and flags["ideal"] == (ideal <= 1e-10)
            assert flags["subalgebra_residual"] == pytest.approx(sub, rel=1e-12, abs=1e-14)
            assert flags["ideal_residual"] == pytest.approx(ideal, rel=1e-12, abs=1e-14)


def test_load_algebra_file_roundtrip(tmp_path):
    text = "# comment\nname demo\ndim 3\n1 2 3 1\n"
    path = tmp_path / "demo.alg"
    path.write_text(text)
    alg = load_algebra_file(str(path))
    assert alg.dim == 3
    assert np.array_equal(alg.structure, catalog_algebra("h3").structure)


def test_algebras_equal_and_hash_as_themselves_only():
    # a rebuilt copy is another object: == is identity, not numpy's
    # ambiguous truth value of the structure tensors
    h3 = catalog_algebra("h3")
    copy = LieAlgebra(h3.structure.copy(), "h3")
    assert h3 == h3 and h3 != copy and not (h3 == copy)
    assert len({h3, copy, h3}) == 2 and hash(h3) == hash(catalog_algebra("h3"))


def test_algebra_vectors_equal_and_hash_as_themselves_only():
    so3 = catalog_algebra("so3")
    x, y = so3.basis_vector(0), so3.basis_vector(0)
    assert x == x and x != y and x in [y, x] and y not in [x]
    assert len({x, y, x}) == 2


@pytest.mark.parametrize("alg", all_catalog_algebras(), ids=lambda alg: alg.name)
def test_bracket_coords_equals_the_einsum_contraction(alg):
    # one pair, (n, r) stacks, a pair against a stack, and the V[:, None],
    # V[None] broadcast of span_is_subalgebra
    rng = np.random.default_rng(alg.dim)
    x, y = rng.uniform(-3.0, 3.0, (2, 9, alg.dim))
    for a, b in ((x[0], y[0]), (x, y), (x[0], y), (x, y[0]), (x[:, None], y[None])):
        ref = np.einsum("...a,...b,abg->...g", a, b, alg.structure)
        got = bracket_coords(alg, a, b)
        assert got.shape == ref.shape
        scale = np.einsum("...a,...b,abg->...g", abs(a), abs(b), abs(alg.structure))
        assert np.all(np.abs(got - ref) <= 1e-15 * np.maximum(1.0, scale))


def _expm_every_term(A):
    """`expm` with all 13 Taylor terms summed, whatever their values."""
    squarings = algebra._SQUARING_BOUNDS.searchsorted(np.abs(A).sum(axis=-2).max(axis=-1))
    A = A * algebra._SQUARING_SCALES[squarings][..., None, None]
    out = A + np.eye(A.shape[-1])
    term = A
    for k in range(2, 14):
        term = term @ A
        term /= k
        out += term
    return algebra._square(out, squarings)


def _expm_stacks():
    rng = np.random.default_rng(11)
    se3 = np.zeros((40, 4, 4))
    se3[:, :3, 3] = rng.uniform(-4.0, 4.0, (40, 3))          # the translations
    upper = np.triu(rng.uniform(-3.0, 3.0, (40, 5, 5)), 1)    # strictly upper, nilpotent
    dense = rng.uniform(-2.0, 2.0, (40, 4, 4))
    return {"se3-translations": se3, "upper-5x5": upper, "dense": dense,
            "dense-small": 1e-3 * dense}


@pytest.mark.parametrize("name", sorted(_expm_stacks()))
def test_expm_equals_the_full_series_bit_for_bit(name):
    A = _expm_stacks()[name]
    assert expm(A).tobytes() == _expm_every_term(A).tobytes()
    assert expm(A[3]).tobytes() == _expm_every_term(A[3]).tobytes()
