"""Structure-constant Lie algebras and the catalog of every algebra used
by the control and quantum families in this package.

A LieAlgebra is its dimension plus the rank-3 tensor c[a, b, g] with
[e_a, e_b] = sum_g c[a, b, g] e_g.  All catalog entries carry small
integer or half-integer constants, so antisymmetry and Jacobi hold
exactly in double precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .errors import DimensionError, LieSysError, UnknownNameError

_JACOBI_TOL = 1e-12
_SPAN_SVD_RATIO = 1e-10


@dataclass(frozen=True)
class LieAlgebra:
    """dim, structure tensor and basis labels; immutable after construction."""

    dim: int
    structure: np.ndarray
    basis_labels: tuple = ()
    name: str = ""
    nilpotency_index: int | None = field(default=None, compare=False)
    # exp(ad) power stacks per basis index, filled by _ad_power_stack; held on
    # the instance so no other algebra can ever read them
    _ad_stacks: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        c = np.asarray(self.structure, dtype=float)
        if c.shape != (self.dim, self.dim, self.dim):
            raise DimensionError("structure tensor must be (r, r, r)")
        if np.max(np.abs(c + np.swapaxes(c, 0, 1))) != 0.0:
            raise LieSysError("structure constants must be exactly antisymmetric")
        object.__setattr__(self, "structure", c)
        if not self.basis_labels:
            object.__setattr__(
                self, "basis_labels", tuple(f"a{i+1}" for i in range(self.dim))
            )
        res = jacobi_residual(self)
        if res > _JACOBI_TOL:
            raise LieSysError(f"Jacobi identity violated (residual {res:.3g})")
        object.__setattr__(self, "nilpotency_index", _nilpotency_index(self))

    def basis_vector(self, i: int) -> "AlgebraVector":
        v = np.zeros(self.dim)
        v[i] = 1.0
        return AlgebraVector(self, v)

    def vector(self, coeffs) -> "AlgebraVector":
        return AlgebraVector(self, np.asarray(coeffs, dtype=float))


@dataclass(frozen=True)
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
        if other.algebra is not self.algebra and other.algebra != self.algebra:
            raise DimensionError("vectors reference different algebras")


def bracket(x: AlgebraVector, y: AlgebraVector) -> AlgebraVector:
    """[x, y] from the structure tensor."""
    x._check(y)
    out = np.einsum("a,b,abg->g", x.coeffs, y.coeffs, x.algebra.structure)
    return AlgebraVector(x.algebra, out)


def bracket_coords(alg: LieAlgebra, x, y) -> np.ndarray:
    return np.einsum("a,b,abg->g", np.asarray(x, float), np.asarray(y, float), alg.structure)


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


def _nilpotency_index(alg: LieAlgebra) -> int | None:
    # Smallest k with (ad x)^k = 0 for generic x, capped at r+1; the probe
    # uses a fixed generic coefficient vector so the result is reproducible.
    r = alg.dim
    probe = np.cos(np.arange(1, r + 1) * 1.7) + 0.5
    M = ad_matrix(alg, probe)
    P = np.eye(r)
    for k in range(1, r + 2):
        P = P @ M
        if np.max(np.abs(P)) < 1e-13:
            # verify on all basis directions (generic probe could be lucky)
            for i in range(r):
                Q = np.linalg.matrix_power(ad_matrix(alg, alg.basis_vector(i)), k)
                if np.max(np.abs(Q)) > 1e-13:
                    return None
            return k
    return None


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


def _expm_taylor(M: np.ndarray) -> np.ndarray:
    """Scaling-and-squaring with a 13-term Taylor series at the scaled argument."""
    norm = np.max(np.abs(M))
    squarings = 0
    if norm > 0.5:
        squarings = int(np.ceil(np.log2(norm / 0.5)))
        M = M / (2.0**squarings)
    out = np.eye(M.shape[0])
    term = np.eye(M.shape[0])
    for k in range(1, 14):
        term = term @ M / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


_AD_STACK_TERMS = 14
# |s| * norm in (0.5 * 2**(k-1), 0.5 * 2**k] takes k squarings of exp(2**-k s ad)
_SQUARING_BOUNDS = 0.5 * 2.0 ** np.arange(64)
_SQUARING_SCALES = 2.0 ** -np.arange(65.0)


def _power_stack(M: np.ndarray, kmax: int, stop_at_zero: bool):
    """Powers M^k / k! for k = 0..kmax-1 as a (K, n*n) array, with the
    exponents 0..K-1 and the largest entry of M; with `stop_at_zero` the
    stack ends before the first power that is exactly zero."""
    stack = [np.eye(len(M))]
    term = stack[0]
    for j in range(1, kmax):
        term = term @ M / j
        if stop_at_zero and np.max(np.abs(term)) == 0.0:
            break
        stack.append(term)
    return (np.stack(stack).reshape(len(stack), -1), np.arange(float(len(stack))),
            float(np.max(np.abs(M))))


def _ad_power_stack(alg: LieAlgebra, index: int):
    """Powers (ad a_index)^k / k! for k = 0..K as a (K+1, r*r) array, with
    the exponents 0..K, the norm of ad a_index and whether the algebra is
    nilpotent; cached on the algebra."""
    hit = alg._ad_stacks.get(index)
    if hit is not None:
        return hit
    nilpotent = alg.nilpotency_index is not None
    M = ad_matrix(alg, alg.basis_vector(index))
    out = _power_stack(M, alg.nilpotency_index or _AD_STACK_TERMS, not nilpotent) + (nilpotent,)
    alg._ad_stacks[index] = out
    return out


def _exp_from_stack(stack, exponents, norm, exact, s, n) -> np.ndarray:
    """exp(s M) for an array of s, (..., n, n), from the power stack of M
    (`_power_stack`).  When `exact` the stack is the whole series (M is
    nilpotent); otherwise each entry is scaled by 2^-k into |s| norm <= 0.5,
    summed, and squared k times, k counted per entry."""
    s = np.asarray(s, dtype=float)
    shape = s.shape + (n, n)

    def series(x):
        # each entry's powers are a (1, K) row, so a batch runs the same
        # row-times-matrix product as a single s
        return (x[..., None, None] ** exponents @ stack).reshape(shape)

    size = abs(s) * norm
    if exact or not np.count_nonzero(size > _SQUARING_BOUNDS[0]):
        return series(s)
    squarings = _SQUARING_BOUNDS.searchsorted(size)
    out = series(np.asarray(s * _SQUARING_SCALES[squarings]))
    for i in range(len(_SQUARING_SCALES)):
        need = squarings > i
        count = np.count_nonzero(need)
        if not count:
            break
        # a squaring every entry needs takes no selection
        out = out @ out if count == need.size else np.where(need[..., None, None], out @ out, out)
    return out


def exp_ad_basis(alg: LieAlgebra, index: int, s) -> np.ndarray:
    """exp(s ad(a_index)) via the cached power stack (scaling and squaring).

    An array of s gives one matrix per entry, each scaled and squared by
    its own count."""
    return _exp_from_stack(*_ad_power_stack(alg, index), s, alg.dim)


def exp_ad(alg: LieAlgebra, a, s: float = 1.0) -> np.ndarray:
    """exp(s ad(a)); exact truncation for nilpotent algebras."""
    coeffs = a.coeffs if isinstance(a, AlgebraVector) else np.asarray(a, dtype=float)
    nz = np.nonzero(coeffs)[0]
    if len(nz) == 1:
        return exp_ad_basis(alg, int(nz[0]), s * float(coeffs[nz[0]]))
    if len(nz) == 0:
        return np.eye(alg.dim)
    M = s * ad_matrix(alg, coeffs)
    k = alg.nilpotency_index
    if k is not None:
        out = np.eye(alg.dim)
        term = np.eye(alg.dim)
        for j in range(1, k):
            term = term @ M / j
            out = out + term
        return out
    return _expm_taylor(M)


def wn_matrix(alg: LieAlgebra, ordering, v) -> np.ndarray:
    """Matrix M(v) with column i = (prod_{j<i} exp(-v_j ad a_{s_j})) a_{s_i};
    a (..., r) array of v gives one matrix per vector."""
    r = alg.dim
    minus_v = -np.asarray(v, dtype=float)
    M = np.empty(minus_v.shape[:-1] + (r, r))
    P = np.eye(r)
    for i, idx in enumerate(ordering):
        M[..., i] = P[..., idx - 1]
        if i < r - 1:
            F = exp_ad_basis(alg, idx - 1, minus_v[..., i])
            P = F if i == 0 else P @ F
    return M


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

    def _off_span(w):
        return float(np.max(np.abs(w - proj @ w))) if np.max(np.abs(w)) else 0.0

    sub_res = 0.0
    for i in range(len(vecs)):
        for j in range(len(vecs)):
            sub_res = max(sub_res, _off_span(bracket_coords(alg, vecs[i], vecs[j])))
    ideal_res = sub_res
    basis = np.eye(alg.dim)
    for v in vecs:
        for b in basis:
            ideal_res = max(ideal_res, _off_span(bracket_coords(alg, b, v)))
    return {
        "subalgebra": sub_res <= 1e-10,
        "ideal": ideal_res <= 1e-10,
        "subalgebra_residual": sub_res,
        "ideal_residual": ideal_res,
    }


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def algebra_from_triples(dim, triples, name="", labels=()):
    """Build an algebra from nonzero (alpha, beta, gamma, value) with 1-based
    indices; the antisymmetric counterpart is filled in automatically."""
    c = np.zeros((dim, dim, dim))
    for a, b, g, val in triples:
        c[a - 1, b - 1, g - 1] = val
        c[b - 1, a - 1, g - 1] = -val
    return LieAlgebra(dim, c, tuple(labels), name)


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


def _geps(eps: float) -> LieAlgebra:
    if eps not in (-1, 0, 1):
        raise UnknownNameError("g_eps requires eps in {-1, 0, 1}")
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
