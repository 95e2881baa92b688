"""Structure-constant Lie algebras and the catalog of every algebra used
by the control and quantum families in this package.

A LieAlgebra is its rank-3 tensor c[a, b, g] with
[e_a, e_b] = sum_g c[a, b, g] e_g, which also fixes its dimension.  All
catalog entries carry small integer or half-integer constants, so
antisymmetry and Jacobi hold exactly in double precision.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .errors import DimensionError, LieSysError, UnknownNameError

_JACOBI_TOL = 1e-12
_SPAN_SVD_RATIO = 1e-10


@dataclass(frozen=True, eq=False)
class LieAlgebra:
    """Structure tensor and name, immutable after construction; the
    dimension is read off the (r, r, r) tensor.  An algebra equals and
    hashes as itself only, as a chart does.

    `nilpotency_class` is the length of the lower central series
    (`lower_central_class`), None when the algebra is not nilpotent; every
    power (ad x)^k with k at or above it vanishes, so the exp(ad) and dexp
    series stop there."""

    structure: np.ndarray
    name: str = ""
    dim: int = field(init=False)
    nilpotency_class: int | None = field(default=None, init=False)
    # exp(s ad a_i) rules per basis index, filled by _ad_rule; held on the
    # instance so no other algebra can ever read them
    _ad_exps: dict = field(default_factory=dict, init=False, repr=False)
    # Wei-Norman dependency levels per factor ordering, filled by
    # weinorman._dependency_levels
    _wn_levels: dict = field(default_factory=dict, init=False, repr=False)
    # exp(ad) factor-chain plans per ordering, filled by _wn_plan
    _wn_plans: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        c = np.asarray(self.structure, dtype=float)
        if c.ndim != 3 or c.shape != (len(c),) * 3:
            raise DimensionError("structure tensor must be (r, r, r)")
        object.__setattr__(self, "dim", len(c))
        if np.max(np.abs(c + np.swapaxes(c, 0, 1))) != 0.0:
            raise LieSysError("structure constants must be exactly antisymmetric")
        object.__setattr__(self, "structure", c)
        res = jacobi_residual(self)
        if res > _JACOBI_TOL:
            raise LieSysError(f"Jacobi identity violated (residual {res:.3g})")
        object.__setattr__(self, "nilpotency_class", lower_central_class(self))

    def basis_vector(self, i: int) -> "AlgebraVector":
        v = np.zeros(self.dim)
        v[i] = 1.0
        return AlgebraVector(self, v)

    def vector(self, coeffs) -> "AlgebraVector":
        return AlgebraVector(self, np.asarray(coeffs, dtype=float))


@dataclass(frozen=True, eq=False)   # equal and hashed as itself only
class AlgebraVector:
    """Element of a LieAlgebra in the ambient basis."""

    algebra: LieAlgebra
    coeffs: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.coeffs, dtype=float)
        if v.shape != (self.algebra.dim,):
            raise DimensionError("vector length must equal algebra dimension")
        object.__setattr__(self, "coeffs", v)

    def __add__(self, other):
        self._check(other)
        return AlgebraVector(self.algebra, self.coeffs + other.coeffs)

    def __rmul__(self, s):
        return AlgebraVector(self.algebra, float(s) * self.coeffs)

    def _check(self, other):
        a, b = self.algebra, other.algebra
        if a is not b and not np.array_equal(a.structure, b.structure):
            raise DimensionError("vectors reference different algebras")


def bracket(x: AlgebraVector, y: AlgebraVector) -> AlgebraVector:
    """[x, y] from the structure tensor."""
    x._check(y)
    out = np.einsum("a,b,abg->g", x.coeffs, y.coeffs, x.algebra.structure)
    return AlgebraVector(x.algebra, out)


def bracket_coords(alg: LieAlgebra, x, y) -> np.ndarray:
    """[x, y] for (..., r) coefficient arrays, one bracket per vector pair,
    the leading axes broadcast: two GEMMs, T = ad_x^T = x c (one (r, r)
    matrix per x) and then y T."""
    x, y, r = np.asarray(x, float), np.asarray(y, float), alg.dim
    T = (x @ alg.structure.reshape(r, r * r)).reshape(x.shape[:-1] + (r, r))
    return (y[..., None, :] @ T)[..., 0, :]


def jacobi_residual(alg: LieAlgebra) -> float:
    """max over basis triples of ||[x,[y,z]] + [y,[z,x]] + [z,[x,y]]||_inf."""
    c = alg.structure
    # [e_a, [e_b, e_c]] = c[b,c,m] c[a,m,g]
    t = np.einsum("bcm,amg->abcg", c, c)
    total = t + np.einsum("abcg->bcag", t) + np.einsum("abcg->cabg", t)
    return float(np.max(np.abs(total)))


def ad_matrix(alg: LieAlgebra, a) -> np.ndarray:
    """Matrix of ad(a): (ad a)_{g,b} = sum_a' a_{a'} c[a', b, g]; ad(x) y = [x, y].

    A (..., r) coefficient array gives one matrix per vector."""
    coeffs = a.coeffs if isinstance(a, AlgebraVector) else np.asarray(a, dtype=float)
    return np.einsum("...a,abg->...gb", coeffs, alg.structure)


def lower_central_class(alg: LieAlgebra) -> int | None:
    """Nilpotency class: the smallest c with every (c+1)-fold bracket zero.

    Follows the lower central series g^{k+1} = [g, g^k]; None when it stalls
    above zero (the algebra is not nilpotent)."""
    S = np.eye(alg.dim)                       # rows span g^k
    for k in range(1, alg.dim + 1):
        W = np.einsum("sb,abg->sag", S, alg.structure).reshape(-1, alg.dim)
        sv, basis = np.linalg.svd(W)[1:]
        rank = int(np.sum(sv > _SPAN_SVD_RATIO * max(1.0, sv[0])))
        if rank == 0:
            return k
        if rank == len(S):
            return None
        S = basis[:rank]
    return None


_EXPM_TERMS = 14
# a 1-norm in (0.5 * 2**(k-1), 0.5 * 2**k] takes k squarings of exp(2**-k A)
_SQUARING_BOUNDS = 0.5 * 2.0 ** np.arange(64)
_SQUARING_SCALES = 2.0 ** -np.arange(65.0)


def _square(out, squarings) -> np.ndarray:
    """Square each (n, n) matrix of `out` as many times as its entry of
    `squarings` says."""
    for i in range(len(_SQUARING_SCALES)):
        need = squarings > i
        count = np.count_nonzero(need)
        if not count:
            break
        # a squaring every entry needs takes no selection
        out = out @ out if count == need.size else np.where(need[..., None, None], out @ out, out)
    return out


def expm(A) -> np.ndarray:
    """exp of (..., n, n) matrices: each one is scaled by 2^-k into 1-norm
    (largest column sum of |entries|) <= 0.5, its Taylor series summed to
    degree 13, and the sum squared k times, k counted per matrix.  The
    1-norm bounds every power, so the dropped tail is below 0.5^14 / 14!.
    It stops at the first power that is zero in every matrix (nilpotent)."""
    A = np.asarray(A, dtype=float)
    squarings = _SQUARING_BOUNDS.searchsorted(np.abs(A).sum(axis=-2).max(axis=-1))
    A = A * _SQUARING_SCALES[squarings][..., None, None]
    out = A + np.eye(A.shape[-1])
    term = A
    for k in range(2, _EXPM_TERMS):
        term = term @ A
        if not term.any():
            break
        term /= k
        out += term
    return _square(out, squarings)


def _rotation(ws):
    return np.sin(ws), np.square(np.sin(0.5 * ws))


def _hyperbolic(ws):
    return np.exp(ws), np.exp(-ws)


def _powers(s, degree):
    out = [s]
    for _ in range(1, degree):
        out.append(out[-1] * s)
    return tuple(out)


class ExpRule:
    """exp(sX) for one fixed (n, n) matrix X over arrays of s: (..., n, n)
    for an array of s of shape (...).  Each entry is computed on its own, so
    a batch equals its stacked single calls.

    In closed form, exp(sX) = T_0 + f_1(s) T_1 + f_2(s) T_2 + ... with
    constant matrices `terms` = (T_0, T_1, ...) and the coefficient arrays
    `coefficients(s)` = (f_1(s), f_2(s), ...):
    - X^p = 0 for some p <= n: the finite series, T_k = X^k / k! and
      f_k = s^k for k < p;
    - otherwise, with c = <X^3, X> / <X, X> (Frobenius products), X^3 = cX
      closes the series on I, X and X^2 (Iserles, Munthe-Kaas, Norsett &
      Zanna, Acta Numerica 9 (2000) 215).  For c = -w^2 < 0,
      exp(sX) = I + (sin ws / w) X + (2 sin^2(ws/2) / w^2) X^2, the
      Euler-Rodrigues formula; for c = w^2 > 0,
      exp(sX) = P0 + e^{ws} P+ + e^{-ws} P-, with the spectral projectors
      P+- = (X^2 +- wX) / (2c) and P0 = I - X^2 / c.
    `closed_form` says whether one of these holds exactly in floating point.
    When none does, exp(sX) is `expm(sX)`, one matrix per entry of s."""

    def __init__(self, X):
        X = np.asarray(X, dtype=float)
        n = len(X)
        powers = [np.eye(n), X]
        while powers[-1].any() and len(powers) <= n:
            powers.append(powers[-1] @ X)
        if not powers[-1].any():
            # X^p = 0; X = 0 keeps its term X, so that exp(sX) takes s's shape
            degree = max(len(powers) - 2, 1)
            self.closed_form = True
            self._omega = 1.0
            self._coeffs = functools.partial(_powers, degree=degree)
            self.terms = tuple(P / math.factorial(k) for k, P in enumerate(powers[:degree + 1]))
            return
        X2 = X @ X
        X3 = X2 @ X
        c = float(np.vdot(X3, X)) / float(np.vdot(X, X))
        self.closed_form = bool(np.array_equal(X3, c * X))   # c != 0, as X^3 != 0
        if not self.closed_form:
            self._X = X
            return
        self._omega = math.sqrt(abs(c))
        if c < 0.0:
            self._coeffs = _rotation
            self.terms = (np.eye(n), X / self._omega, -2.0 / c * X2)
        else:
            self._coeffs = _hyperbolic
            self.terms = (np.eye(n) - X2 / c, (X2 + self._omega * X) / (2.0 * c),
                          (X2 - self._omega * X) / (2.0 * c))

    def coefficients(self, s) -> tuple:
        """(f_1(s), f_2(s), ...) for an array of s, each of s's shape."""
        return self._coeffs(self._omega * s)

    def __call__(self, s) -> np.ndarray:
        s = np.asarray(s, dtype=float)[..., None, None]
        if not self.closed_form:
            return expm(s * self._X)
        out = self.terms[0]
        for f, T in zip(self.coefficients(s), self.terms[1:]):
            out = out + f * T
        return out


def _sinhc(x):
    """sinh(x) / x, 1 at x = 0."""
    zero = x == 0.0
    return np.where(zero, 1.0, np.sinh(x) / np.where(zero, 1.0, x))


def _cubic_coefficients(q) -> tuple:
    """(f_1, f_2) with exp X = I + f_1 X + f_2 X^2 wherever X^3 = qX, for an
    array of q: f_1 = sin theta / theta and f_2 = 2 sin^2(theta/2) / theta^2
    at q = -theta^2 <= 0, and the sinh forms at q = theta^2 > 0.  `np.sinc`
    and `_sinhc` keep both stable near theta = 0, where f_1 = 1, f_2 = 1/2."""
    theta = np.sqrt(np.abs(q))
    hyp = q > 0.0
    rot, h = np.where(hyp, 0.0, theta / np.pi), np.where(hyp, theta, 0.0)
    half = np.where(hyp, _sinhc(0.5 * h), np.sinc(0.5 * rot))
    # the square is a product: a numpy scalar's ** 2 can round 1 ulp away
    # from the array square, and a batch must equal single calls
    return np.where(hyp, _sinhc(h), np.sinc(rot)), 0.5 * (half * half)


class SpanExpRule:
    """exp X(xi) for X(xi) = sum_i xi_i R_i in the span of fixed (n, n)
    matrices R_i, over (..., r) arrays of xi: (..., n, n), each entry
    computed on its own, so a batch equals its stacked single calls.

    Where one quadratic form q(xi) = sum_ij Q_ij xi_i xi_j closes the cube on
    the whole span, X(xi)^3 = q(xi) X(xi), the series closes on I, X and
    X^2: exp X = I + f_1(q) X + f_2(q) X^2 (`_cubic_coefficients`).  Q is
    read off the representation: Q_ii from R_i^3 = Q_ii R_i, as `ExpRule`
    reads its c, and Q_ij from the terms in xi_i^2 xi_j,
    R_i R_i R_j + R_i R_j R_i + R_j R_i R_i = Q_ii R_j + 2 Q_ij R_i.
    `closed_form` says whether the identity then holds exactly in floating
    point on the symmetrized cubic: for all i, j, k the sum over the
    orderings of (i, j, k) of R_i R_j R_k equals that of Q_ij R_k.  When it
    does not, exp X is `expm(X)`."""

    def __init__(self, rep):
        R = self._R = np.stack([np.asarray(M, dtype=float) for M in rep])
        r = len(R)
        norms = [float(np.vdot(M, M)) for M in R]
        Q = np.empty((r, r))
        for i in range(r):
            Q[i, i] = float(np.vdot(R[i] @ R[i] @ R[i], R[i])) / norms[i]
            for j in range(i + 1, r):
                S = R[i] @ R[i] @ R[j] + R[i] @ R[j] @ R[i] + R[j] @ R[i] @ R[i]
                Q[i, j] = Q[j, i] = float(np.vdot(S - Q[i, i] * R[j], R[i])) / (2.0 * norms[i])

        def sym(T):     # the sum over the orderings of the first three axes
            return sum(T.transpose(p + (3, 4)) for p in itertools.permutations(range(3)))

        self.closed_form = bool(np.array_equal(sym(np.einsum("iab,jbc,kcd->ijkad", R, R, R)),
                                               sym(np.einsum("ij,kad->ijkad", Q, R))))
        self._form = [(i, j, Q[i, j] if i == j else 2.0 * Q[i, j])
                      for i in range(r) for j in range(i, r) if Q[i, j] != 0.0]

    def __call__(self, xi) -> np.ndarray:
        xi = np.asarray(xi, dtype=float)
        X = np.tensordot(xi, self._R, axes=1)
        if not self.closed_form:
            return expm(X)
        q = np.zeros(xi.shape[:-1])
        for i, j, c in self._form:
            q = q + c * xi[..., i] * xi[..., j]
        # I + f_1 X + f_2 X^2 sums terms of order e^theta at a hyperbolic
        # theta, where exp X can be of order 1 (e^-v on Aff for v > 0): X is
        # scaled by 2^-k into theta <= 1 and the result squared k times
        squarings = _SQUARING_BOUNDS.searchsorted(0.5 * np.sqrt(np.maximum(q, 0.0)))
        scale = _SQUARING_SCALES[squarings]
        X = X * scale[..., None, None]
        f1, f2 = _cubic_coefficients(q * scale * scale)
        out = np.eye(X.shape[-1]) + f1[..., None, None] * X + f2[..., None, None] * (X @ X)
        return _square(out, squarings)


def _ad_rule(alg: LieAlgebra, index: int) -> ExpRule:
    # the ExpRule of ad(a_index), cached on the algebra
    rule = alg._ad_exps.get(index)
    if rule is None:
        rule = alg._ad_exps[index] = ExpRule(ad_matrix(alg, alg.basis_vector(index)))
    return rule


def exp_ad_basis(alg: LieAlgebra, index: int, s) -> np.ndarray:
    """exp(s ad(a_index)) by the `ExpRule` of ad(a_index), cached on the
    algebra: in closed form wherever ad a_index is nilpotent or
    (ad a_index)^3 = c ad a_index, which holds for every catalog basis
    element but element 2 of sl3, r2sl2, r2sl2yz and hsp2, and otherwise by
    `expm`.

    An array of s gives one matrix per entry."""
    return _ad_rule(alg, index)(s)


def _ad_series(alg: LieAlgebra, x, shift: int) -> np.ndarray:
    """sum_k ad_x^k / (k + shift)! over k below the nilpotency class, for
    (..., r) vectors x: exp(ad_x) for shift 0, and for shift 1 the dexp map
    phi(ad_x) with phi(z) = (e^z - 1) / z.  Exact on a nilpotent algebra."""
    ad = ad_matrix(alg, x)
    out = term = np.eye(alg.dim)
    for k in range(1, alg.nilpotency_class):
        term = term @ ad / (k + shift)
        out = out + term
    return out


def exp_ad(alg: LieAlgebra, a, s: float = 1.0) -> np.ndarray:
    """exp(s ad(a)) by `expm`."""
    return expm(s * ad_matrix(alg, a))


def _wn_plan(alg: LieAlgebra, ordering: tuple) -> tuple:
    """For each factor exp(s ad a_{s_j}) of the ordering, its `ExpRule` and
    its structurally nonzero entries, row by row: (p, q, ((k, T_k[p, q]),
    ...)) over the closed form's terms T_k that are nonzero there.  A factor
    with no closed form lists every entry, with no terms.  Built on the first
    `_exp_ad_chain` call per ordering and cached on the algebra."""
    plan = alg._wn_plans.get(ordering)
    if plan is not None:
        return plan
    r, plan = alg.dim, []
    for idx in ordering:
        rule = _ad_rule(alg, idx - 1)
        if not rule.closed_form:
            plan.append((rule, tuple((p, q, ()) for p in range(r) for q in range(r))))
            continue
        entries = []
        for p in range(r):
            for q in range(r):
                terms = tuple((k, float(T[p, q])) for k, T in enumerate(rule.terms) if T[p, q])
                if terms:
                    entries.append((p, q, terms))
        plan.append((rule, tuple(entries)))
    plan = alg._wn_plans[ordering] = tuple(plan)
    return plan


def _times(a, b):
    # a b, where either may be an exact number; a factor 1 costs no pass
    if type(a) is float and a == 1.0:
        return b
    if type(b) is float and b == 1.0:
        return a
    return a * b


def _plus(a, b):
    # a + b, where a may be None for an empty sum
    return b if a is None else a + b


def _factor(rule, entries, s) -> dict:
    """The planned entries {(p, q): number or array over s} of exp(sX): the
    closed form T_0 + f_1(s) T_1 + ... summed in the order `ExpRule` sums
    it, or `expm`'s matrix where the rule has none."""
    if not rule.closed_form:
        F = rule(s)
        return {(p, q): F[..., p, q] for p, q, _ in entries}
    f = (1.0,) + rule.coefficients(s)
    out = {}
    for p, q, terms in entries:
        e = None
        for k, t in terms:
            e = _plus(e, _times(t, f[k]))
        out[p, q] = e
    return out


def _exp_ad_chain(alg: LieAlgebra, ordering: tuple, s, columns) -> np.ndarray:
    """The vectors F_1(F_2(... F_n a_k)) for the (k, n) pairs of `columns`
    (k a 0-based basis index, n a count of leading factors), with
    F_j = exp(s_j ad a_{ordering_j}), as the columns of (..., r, len(columns))
    matrices; a (..., r) array of s gives one matrix per vector.

    Each factor is the closed form of its `ExpRule`, T_0 + f_1 T_1 + ...,
    whose constant terms have few nonzero entries (at most 8 on the catalog
    algebras), or `expm`'s matrix where there is none.  The first call per
    ordering plans those entries (`_wn_plan`).  Each factor's entries are
    formed once, and every column is applied right to left over the nonzeros
    only.  Every step is an elementwise pass over the vectors, so a batch
    equals its single-vector calls bit for bit.  The matrices are written
    entries first, (r, len(columns), ...), and returned as a writable
    (..., r, len(columns)) view of that buffer, which `numerics.linsolve`
    reads as it is."""
    plan = _wn_plan(alg, ordering)
    s = np.asarray(s, dtype=float)
    out = np.zeros((alg.dim, len(columns)) + s.shape[:-1])
    factors = [_factor(*plan[j], s[..., j]) for j in range(max(n for _, n in columns))]
    for c, (k, n) in enumerate(columns):
        x = {k: 1.0}
        for j in range(n - 1, -1, -1):
            F, y = factors[j], {}
            for p, q, _ in plan[j][1]:
                if q in x:
                    y[p] = _plus(y.get(p), _times(F[p, q], x[q]))
            x = y
        for p, e in x.items():
            out[p, c] = e
    return np.moveaxis(out, (0, 1), (-2, -1))


def wn_matrix(alg: LieAlgebra, ordering, v) -> np.ndarray:
    """Matrix M(v) with column i = (prod_{j<i} exp(-v_j ad a_{s_j})) a_{s_i};
    a (..., r) array of v gives one matrix per vector, by `_exp_ad_chain` at
    s = -v."""
    ordering = tuple(int(i) for i in ordering)
    return _exp_ad_chain(alg, ordering, -np.asarray(v, dtype=float),
                         [(idx - 1, i) for i, idx in enumerate(ordering)])


def span_is_subalgebra(alg: LieAlgebra, span) -> dict:
    """Flags {'subalgebra': bool, 'ideal': bool} for the given span.

    The span must be linearly independent (singular-value ratio below
    1e-10 rejects it).  Residuals are distances of brackets to the span.
    """
    vecs = [v.coeffs if isinstance(v, AlgebraVector) else np.asarray(v, float) for v in span]
    S = np.column_stack(vecs)
    sv = np.linalg.svd(S, compute_uv=False)
    if sv[-1] < _SPAN_SVD_RATIO * sv[0]:
        raise LieSysError("span vectors are linearly dependent")
    proj = S @ np.linalg.pinv(S)

    def _off_span(w):   # the largest distance to the span over a stack of brackets
        return float(np.max(np.abs(w - w @ proj.T)))

    V = S.T
    sub_res = _off_span(bracket_coords(alg, V[:, None], V[None]))
    ideal_res = max(sub_res, _off_span(bracket_coords(alg, np.eye(alg.dim)[:, None], V[None])))
    return {
        "subalgebra": sub_res <= 1e-10,
        "ideal": ideal_res <= 1e-10,
        "subalgebra_residual": sub_res,
        "ideal_residual": ideal_res,
    }


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def algebra_from_triples(dim, triples, name=""):
    """Build an algebra from nonzero (alpha, beta, gamma, value) with 1-based
    indices; the antisymmetric counterpart is filled in automatically."""
    c = np.zeros((dim, dim, dim))
    for a, b, g, val in triples:
        c[a - 1, b - 1, g - 1] = val
        c[b - 1, a - 1, g - 1] = -val
    return LieAlgebra(c, name)


def load_algebra_file(path_or_text) -> LieAlgebra:
    """Parse the structured text format: 'dim N' then lines 'a b g value'."""
    if hasattr(path_or_text, "read"):
        text = path_or_text.read()
    else:
        text = str(path_or_text)
        if "\n" not in text and not text.strip().startswith("dim"):
            with open(text) as fh:
                text = fh.read()
    dim = None
    name = ""
    triples = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "dim":
            dim = int(parts[1])
        elif parts[0] == "name":
            name = parts[1]
        else:
            a, b, g = int(parts[0]), int(parts[1]), int(parts[2])
            triples.append((a, b, g, float(parts[3])))
    if dim is None:
        raise LieSysError("algebra file missing 'dim' line")
    return algebra_from_triples(dim, triples, name)


def _from_data(fname) -> LieAlgebra:
    ref = resources.files("liesys").joinpath("algebra_data", fname)
    return load_algebra_file(ref.read_text())


def _gbar(n: int) -> LieAlgebra:
    # [a1, ak] = a_{k+1}, k = 2..n-1; gbar_2 is the Abelian plane.
    if n < 2:
        raise UnknownNameError("gbar requires n >= 2")
    triples = [(1, k, k + 1, 1.0) for k in range(2, n)]
    return algebra_from_triples(n, triples, f"gbar{n}")


def eps_parameter(eps) -> int:
    """The g_eps family parameter as an int; an integral float such as 1.0
    names the same member, and anything outside {-1, 0, 1} is rejected."""
    if eps not in (-1, 0, 1):
        raise UnknownNameError(f"g_eps requires eps in {{-1, 0, 1}}, got {eps!r}")
    return int(eps)


def _geps(eps: float) -> LieAlgebra:
    eps = eps_parameter(eps)
    return algebra_from_triples(
        3, [(1, 2, 3, 1.0), (1, 3, 2, -1.0), (2, 3, 1, float(eps))], f"geps({eps:+d})"
    )


_FILE_BACKED = {
    "h3": "h3.alg",
    "h3c": "h3c.alg",
    "h3q": "h3q.alg",
    "oscq": "oscq.alg",
    "g4": "g4.alg",
    "g5": "g5.alg",
    "g7": "g7.alg",
    "g8": "g8.alg",
    "se2": "se2.alg",
    "so3": "so3.alg",
    "sl2": "sl2.alg",
    "sl3": "sl3.alg",
    "se3": "se3.alg",
    "aff": "aff.alg",
    "r2sl2": "r2sl2.alg",
    "r2sl2yz": "r2sl2yz.alg",
    "hsp2": "hsp2.alg",
}

_cache: dict = {}


def catalog_algebra(name: str, n: int | None = None, eps: float | None = None) -> LieAlgebra:
    """Look up a catalog algebra by name.

    Parametrized families: 'gbar' needs n >= 2, 'g_eps' needs eps in {-1,0,1}.
    """
    key = (name, n, eps)
    if key in _cache:
        return _cache[key]
    if name == "gbar":
        if n is None:
            raise UnknownNameError("gbar requires the family parameter n")
        alg = _gbar(n)
    elif name == "g_eps":
        if eps is None:
            raise UnknownNameError("g_eps requires the family parameter eps")
        alg = _geps(eps)
    elif name in _FILE_BACKED:
        alg = _from_data(_FILE_BACKED[name])
        object.__setattr__(alg, "name", name)
    else:
        raise UnknownNameError(f"unknown algebra {name!r}")
    _cache[key] = alg
    return alg


def catalog_names():
    return sorted(_FILE_BACKED) + ["gbar", "g_eps"]
