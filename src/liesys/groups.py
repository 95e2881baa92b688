"""Concrete Lie-group charts: composition laws, inverses, adjoints,
one-parameter subgroups, chart conversions and log-derivatives.

A chart is either a matrix chart (coords = row-major matrix entries,
composition = matrix product) or a canonical chart of first/second kind
in which exp(s a_i) is the coordinate line s e_i.  Second-kind charts
carry their ordering as part of the chart identity; mixing orderings is
a chart mismatch.

The canonical charts of the nilpotent groups G4, G5, G7, G8, Gbar4 and
Gbar5 are derived from the structure constants: first-kind composition is
the Baker-Campbell-Hausdorff series (`bch`, exact for nilpotency class at
most 4), and every second-kind law goes through the conversions to and from
the first kind.  H3, SE2, the signature family and the affine group keep
closed-form composition laws.

Log-derivatives follow from the chart kind alone (`_trivialize`): the
Wei-Norman matrix for second-kind charts, the dexp series for first-kind
charts, and a projector onto the algebra representation for matrix and
quaternion charts, whose coordinates map to matrices linearly.

Every chart law (compose, inverse, adjoint, constraint, wrap, to-matrix)
and `_adjoint`, `_trivialize` and `bch` take coordinates with leading batch
axes, (..., d), so a whole grid of nodes goes through one call; a single
point is the batch with no leading axis.  `exp_coords` (and a chart's
`exp_fn`) takes an array of parameters; chart conversions take single
points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .algebra import (
    _AD_STACK_TERMS,
    LieAlgebra,
    _exp_from_stack,
    _expm_taylor,
    _power_stack,
    ad_matrix,
    catalog_algebra,
    exp_ad_basis,
    lower_central_class,
    wn_matrix,
)
from .errors import ChartError, UnknownNameError

DEFAULT_FD_STEP = 1e-5
_CONSTRAINT_TOL = 1e-8


def _wrap_angle(t):
    # wrap to (-pi, pi]
    w = np.fmod(t + math.pi, 2.0 * math.pi)
    return np.where(w <= 0.0, w + 2.0 * math.pi, w) - math.pi


def _mat(rows):
    """(m, n) nested components of batch shape (...) as one (..., m, n) array;
    the components come from `g.T`, whose batch axes are reversed."""
    return np.array(rows).T.swapaxes(-1, -2)


def _matvec(M, v):
    """M v over matching leading batch axes, as a matrix product with one
    column so that a batch and a single vector round alike."""
    return (M @ v[..., None])[..., 0]


def _vecmat(v, M):
    """v M over matching leading batch axes, as a one-row matrix product."""
    return (v[..., None, :] @ M)[..., 0, :]


def _on_chart(chart, coords, stage=None, times=None, first=0):
    """Wrap (..., d) chart coordinates and check them against the chart
    constraint; non-finite coordinates always fail.  For a block of grid
    nodes, `stage` names what they are, `times` their times and `first` the
    index of the first one; a violation reports the first offending node,
    its time and its error."""
    if chart.wrap_fn is not None:
        coords = chart.wrap_fn(coords)
    finite = np.isfinite(coords).all()
    if chart.constraint_fn is None and finite:
        return coords
    err = 0.0 if chart.constraint_fn is None else chart.constraint_fn(coords)
    if not finite:
        # a node with a non-finite coordinate fails whatever its constraint error
        err = np.where(np.isfinite(coords).all(axis=-1), err, np.nan)
    bad = ~(err <= _CONSTRAINT_TOL)
    if np.count_nonzero(bad):
        if stage is None:
            raise ChartError(f"{chart.group_name}: chart constraint violated ({err:.3g})")
        k = int(np.argmax(bad))
        raise ChartError(
            f"{chart.group_name}: {stage} violates the chart constraint at node "
            f"{first + k} (t={times[k]:.6g}): error {err[k]:.3g} > {_CONSTRAINT_TOL:g}")
    return coords


@dataclass(frozen=True)
class GroupChart:
    group_name: str
    chart_kind: str                       # 'matrix' | 'canonical_first' | 'canonical_second' | 'quaternion'
    coord_dim: int
    algebra: LieAlgebra
    ordering: tuple | None = None         # for canonical_second, 1-based
    algebra_rep: tuple | None = field(default=None, repr=False)   # matrices per basis element
    compose_fn: Callable = field(default=None, repr=False)
    inverse_fn: Callable = field(default=None, repr=False)
    identity_coords: np.ndarray = field(default=None, repr=False)
    adjoint_fn: Callable | None = field(default=None, repr=False)
    constraint_fn: Callable | None = field(default=None, repr=False)
    wrap_fn: Callable | None = field(default=None, repr=False)
    exp_fn: Callable | None = field(default=None, repr=False)      # (index, s) -> coords, s any shape
    to_matrix_fn: Callable | None = field(default=None, repr=False)  # linear coords -> matrix
    # pseudo-inverse of the stacked algebra_rep: reads algebra coordinates off
    # a matrix in the span of the representation (matrix and quaternion charts)
    rep_projector: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    # matrix charts: power stacks of the algebra_rep matrices, built on first use
    _rep_stacks: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.chart_kind in ("matrix", "quaternion"):
            B = np.stack([M.reshape(-1) for M in self.algebra_rep], axis=1)
            object.__setattr__(self, "rep_projector", np.linalg.pinv(B))

    def element(self, coords) -> "GroupElement":
        return GroupElement(self, np.asarray(coords, dtype=float))

    def identity(self) -> "GroupElement":
        return GroupElement(self, self.identity_coords.copy())


@dataclass(frozen=True)
class GroupElement:
    chart: GroupChart
    coords: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coords, dtype=float)
        if c.shape != (self.chart.coord_dim,):
            raise ChartError(
                f"{self.chart.group_name}: expected {self.chart.coord_dim} coords, got {c.shape}"
            )
        object.__setattr__(self, "coords", _on_chart(self.chart, c))

    def matrix(self) -> np.ndarray:
        if self.chart.to_matrix_fn is not None:
            return self.chart.to_matrix_fn(self.coords)
        return matrix_rep(self)


def _same_chart(g: GroupElement, h: GroupElement):
    cg, ch = g.chart, h.chart
    if (cg.group_name, cg.chart_kind, cg.ordering) != (ch.group_name, ch.chart_kind, ch.ordering):
        raise ChartError(f"chart mismatch: {cg.group_name}/{cg.chart_kind} vs {ch.group_name}/{ch.chart_kind}")


def compose(g: GroupElement, h: GroupElement) -> GroupElement:
    _same_chart(g, h)
    return GroupElement(g.chart, g.chart.compose_fn(g.coords, h.coords))


def inverse(g: GroupElement) -> GroupElement:
    return GroupElement(g.chart, g.chart.inverse_fn(g.coords))


def exp_coords(chart: GroupChart, index: int, s) -> np.ndarray:
    """Chart coordinates of exp(s a_index) (index 0-based into the algebra
    basis); an array of s gives (..., d) coordinates, one point per entry.

    Matrix charts sum the exponential series of algebra_rep[index] from its
    cached power stack, each entry scaled and squared by its own count as in
    `exp_ad_basis`; canonical charts move along the coordinate line of a_index.
    """
    s = np.asarray(s, dtype=float)
    if chart.exp_fn is not None:
        return chart.exp_fn(index, s)
    if chart.chart_kind == "matrix":
        stack = chart._rep_stacks.get(index)
        if stack is None:
            stack = _power_stack(chart.algebra_rep[index], _AD_STACK_TERMS, True)
            # a power that vanished ended the stack: the series is exact
            stack = chart._rep_stacks[index] = stack + (len(stack[0]) < _AD_STACK_TERMS,)
        n = chart.algebra_rep[index].shape[0]
        return _exp_from_stack(*stack, s, n).reshape(s.shape + (n * n,))
    coords = np.zeros(s.shape + (chart.coord_dim,)) + chart.identity_coords
    pos = chart.ordering.index(index + 1) if chart.chart_kind == "canonical_second" else index
    coords[..., pos] += s
    return coords


def exp_chart(chart: GroupChart, index: int, s: float = 1.0) -> GroupElement:
    """exp(s a_index) in the chart (index is 0-based into the algebra basis)."""
    return GroupElement(chart, exp_coords(chart, index, s))


def group_adjoint(g: GroupElement) -> np.ndarray:
    """Matrix of Ad(g) in the algebra basis."""
    return _adjoint(g.chart, g.coords)


def _ad_series(alg: LieAlgebra, x, shift: int) -> np.ndarray:
    """sum_k ad_x^k / (k + shift)! over k below the nilpotency index, for
    (..., r) vectors x: exp(ad_x) for shift 0, and for shift 1 the dexp map
    phi(ad_x) with phi(z) = (e^z - 1) / z.  Exact on a nilpotent algebra."""
    ad = ad_matrix(alg, x)
    out = term = np.eye(alg.dim)
    for k in range(1, alg.nilpotency_index):
        term = term @ ad / (k + shift)
        out = out + term
    return out


def _adjoint(chart: GroupChart, g) -> np.ndarray:
    """Ad of (..., d) chart points, as (..., r, r) matrices.

    Matrix charts expand g a g^{-1} on the basis; canonical charts use the
    exact product of exp(ad) factors, which only needs structure constants.
    """
    if chart.adjoint_fn is not None:
        return chart.adjoint_fn(g)
    alg = chart.algebra
    if chart.chart_kind == "matrix":
        G = chart.to_matrix_fn(g)[..., None, :, :]
        Gi = chart.to_matrix_fn(chart.inverse_fn(g))[..., None, :, :]
        GAGi = G @ np.stack(chart.algebra_rep) @ Gi
        return chart.rep_projector @ np.swapaxes(GAGi.reshape(GAGi.shape[:-2] + (-1,)), -1, -2)
    if chart.chart_kind == "canonical_first":
        return _ad_series(alg, g, 0)
    # second kind: Ad(prod exp(v_i a_{s_i})) = prod exp(v_i ad a_{s_i))
    out = np.eye(alg.dim)
    for pos, idx in enumerate(chart.ordering):
        out = out @ exp_ad_basis(alg, idx - 1, g[..., pos])
    return out


def _stencil_derivative(sample, t, h, order):
    """Derivative of a vector-valued callable; order 2 or 4 central stencil."""
    if order == 4:
        return (8.0 * (sample(t + h) - sample(t - h))
                - (sample(t + 2 * h) - sample(t - 2 * h))) / (12.0 * h)
    return (sample(t + h) - sample(t - h)) / (2.0 * h)


def _trivialize(chart: GroupChart, g, dg, left: bool) -> np.ndarray:
    """The algebra vector dg g^{-1} (right) or g^{-1} dg (left) of the chart
    point g moving with coordinate velocity dg; both may carry leading batch
    axes.

    canonical_second: g = prod_i exp(g_i a_{s_i}), so the right form is the
    Wei-Norman matrix M_s(-g) dg and the left form is the Wei-Norman matrix
    of the reversed product (Wei & Norman, J. Math. Phys. 4 (1963) 575).
    canonical_first: g = exp(x), so the forms are phi(+-ad_x) dx with
    phi(z) = sum_k z^k / (k+1)!, a finite sum because every first-kind chart
    lives on a nilpotent algebra (Iserles, Munthe-Kaas, Norsett & Zanna,
    Acta Numerica 9 (2000)).
    matrix, quaternion: coordinates map to matrices linearly, so dg maps to
    the matrix velocity, and the chart's projector reads off its algebra
    coordinates.
    """
    alg = chart.algebra
    if chart.chart_kind == "canonical_second":
        if left:
            return _matvec(wn_matrix(alg, chart.ordering[::-1], g[..., ::-1]), dg[..., ::-1])
        return _matvec(wn_matrix(alg, chart.ordering, -g), dg)
    if chart.chart_kind == "canonical_first":
        return _matvec(_ad_series(alg, -g if left else g, 1), dg)
    dG = chart.to_matrix_fn(dg)
    Gi = chart.to_matrix_fn(chart.inverse_fn(g))
    X = Gi @ dG if left else dG @ Gi
    return _matvec(chart.rep_projector, X.reshape(X.shape[:-2] + (-1,)))


def right_log_derivative(curve, t: float, h: float = DEFAULT_FD_STEP,
                         order: int = 2) -> np.ndarray:
    """The algebra vector R_{g^{-1}*g}(dg/dt) = (dg/dt) g^{-1} at time t.

    dg/dt is a central difference of the curve's chart coordinates (order=4
    switches to the five-point stencil), mapped to the algebra by the
    chart kind's exact rule (`_trivialize`).
    """
    g0 = curve(t)
    dg = _stencil_derivative(lambda s: curve(s).coords, t, h, order)
    return _trivialize(g0.chart, g0.coords, dg, left=False)


def left_log_derivative(curve, t: float, h: float = DEFAULT_FD_STEP,
                        order: int = 2) -> np.ndarray:
    """The algebra vector L_{g^{-1}*g}(dg/dt) = g^{-1} (dg/dt) at time t."""
    g0 = curve(t)
    dg = _stencil_derivative(lambda s: curve(s).coords, t, h, order)
    return _trivialize(g0.chart, g0.coords, dg, left=True)


def element_to_dict(g: GroupElement) -> dict:
    """JSON-ready serialization: (group_name, chart_kind, ordering?, coords)."""
    out = {"group_name": g.chart.group_name, "chart_kind": g.chart.chart_kind,
           "coords": g.coords.tolist()}
    if g.chart.ordering is not None:
        out["ordering"] = list(g.chart.ordering)
    return out


def element_from_dict(d: dict) -> GroupElement:
    key = (d["group_name"], d["chart_kind"],
           tuple(d["ordering"]) if "ordering" in d else None)
    if key not in _CHARTS:
        raise UnknownNameError(f"no chart registered for {key}")
    return GroupElement(_CHARTS[key], np.asarray(d["coords"], dtype=float))


def matrix_rep(g: GroupElement) -> np.ndarray:
    """Faithful matrix representative of a canonical-chart element.

    Built as the product of matrix exponentials matching the chart's
    definition (first kind: expm of the full vector)."""
    chart = g.chart
    if chart.algebra_rep is None:
        raise ChartError(f"{chart.group_name}: no matrix representation cataloged")
    if chart.chart_kind == "canonical_first":
        A = sum(v * M for v, M in zip(g.coords, chart.algebra_rep))
        return _expm_taylor(A)
    out = None
    for pos, idx in enumerate(chart.ordering):
        F = _expm_taylor(g.coords[pos] * chart.algebra_rep[idx - 1])
        out = F if out is None else out @ F
    return out


# ---------------------------------------------------------------------------
# chart registry
# ---------------------------------------------------------------------------

_CHARTS: dict = {}
_CONVERSIONS: dict = {}


def register_chart(key, chart):
    _CHARTS[key] = chart


def get_chart(group_name: str, chart_kind: str = "canonical_second",
              ordering=None, eps=None) -> GroupChart:
    name = group_name if eps is None else f"{group_name}({eps:+d})"
    key = (name, chart_kind, tuple(ordering) if ordering else None)
    if key in _CHARTS:
        return _CHARTS[key]
    # default orderings
    if chart_kind == "canonical_second" and ordering is None:
        for k in _CHARTS:
            if k[0] == name and k[1] == chart_kind:
                return _CHARTS[k]
    raise UnknownNameError(f"no chart registered for {key}")


def register_conversion(src_key, dst_key, fn):
    _CONVERSIONS[(src_key, dst_key)] = fn


def chart_convert(g: GroupElement, target: GroupChart) -> GroupElement:
    src = g.chart
    if src is target:
        return g
    key = (
        (src.group_name, src.chart_kind, src.ordering),
        (target.group_name, target.chart_kind, target.ordering),
    )
    fn = _CONVERSIONS.get(key)
    if fn is None:
        raise ChartError(f"no conversion registered: {key[0]} -> {key[1]}")
    return GroupElement(target, fn(g.coords))


def _mk_matrix_chart(group, alg, rep, constraint=None):
    n = rep[0].shape[0]
    ident = np.eye(n).reshape(-1)
    square, flat = (n, n), (n * n,)

    def to_matrix(a):
        return a.reshape(a.shape[:-1] + square)

    def compose(a, b):
        out = a.reshape(a.shape[:-1] + square) @ b.reshape(b.shape[:-1] + square)
        return out.reshape(out.shape[:-2] + flat)

    chart = GroupChart(
        group_name=group,
        chart_kind="matrix",
        coord_dim=n * n,
        algebra=alg,
        algebra_rep=tuple(np.asarray(M, dtype=float) for M in rep),
        compose_fn=compose,
        inverse_fn=lambda a: np.linalg.inv(to_matrix(a)).reshape(a.shape),
        identity_coords=ident,
        constraint_fn=constraint,
        to_matrix_fn=to_matrix,
    )
    register_chart((group, "matrix", None), chart)
    return chart


# --- Heisenberg group H(3) --------------------------------------------------

def _build_h3():
    alg = catalog_algebra("h3")
    # 3x3 unipotent representation with [A1, A2] = A3
    A1 = np.zeros((3, 3)); A1[0, 1] = 1.0
    A2 = np.zeros((3, 3)); A2[1, 2] = 1.0
    A3 = np.zeros((3, 3)); A3[0, 2] = 1.0
    rep = (A1, A2, A3)

    def compose2(g, h):
        a, b, c = g.T
        ap, bp, cp = h.T
        return np.array([a + ap, b + bp, c + cp - b * ap]).T

    def inverse2(g):
        a, b, c = g.T
        return np.array([-a, -b, -c - a * b]).T

    def adjoint12(g):
        a, b, _ = g.T
        one, zero = np.ones_like(a), np.zeros_like(a)
        return _mat([[one, zero, zero], [zero, one, zero], [-b, a, one]])

    chart2 = GroupChart(
        "H3", "canonical_second", 3, alg, ordering=(1, 2, 3),
        algebra_rep=rep, compose_fn=compose2, inverse_fn=inverse2,
        identity_coords=np.zeros(3), adjoint_fn=adjoint12,
    )
    register_chart(("H3", "canonical_second", (1, 2, 3)), chart2)

    def compose1(g, h):
        a, b, c = g.T
        ap, bp, cp = h.T
        return np.array([a + ap, b + bp, c + cp + 0.5 * (a * bp - b * ap)]).T

    chart1 = GroupChart(
        "H3", "canonical_first", 3, alg, algebra_rep=rep,
        compose_fn=compose1, inverse_fn=lambda g: -g,
        identity_coords=np.zeros(3), adjoint_fn=adjoint12,
    )
    register_chart(("H3", "canonical_first", None), chart1)

    k2, k1 = ("H3", "canonical_second", (1, 2, 3)), ("H3", "canonical_first", None)
    register_conversion(k2, k1, lambda g: np.array([g[0], g[1], g[2] + 0.5 * g[0] * g[1]]))
    register_conversion(k1, k2, lambda g: np.array([g[0], g[1], g[2] - 0.5 * g[0] * g[1]]))
    _mk_matrix_chart("H3", alg, rep)
    register_conversion(
        k2, ("H3", "matrix", None),
        lambda g: (np.eye(3) + g[0] * A1 + g[1] * A2 + (g[2] + g[0] * g[1]) * A3).reshape(-1),
    )


# --- nilpotent groups: laws derived from the structure constants -------------

_BCH_MAX_CLASS = 4


def bch(alg: LieAlgebra, x, y) -> np.ndarray:
    """log(exp(x) exp(y)) by Dynkin's Baker-Campbell-Hausdorff series,
    x + y + [x,y]/2 + ([x,[x,y]] - [y,[x,y]])/12 - [y,[x,[x,y]]]/24.

    Exact when the algebra's nilpotency class is at most 4 (every longer
    bracket vanishes); see Bonfiglioli & Fulci, Topics in Noncommutative
    Algebra, Springer LNM 2034 (2012).  x and y are (..., r) arrays.
    """
    r = alg.dim
    c = alg.structure.reshape(r, r * r)
    ad_x = _vecmat(x, c).reshape(x.shape[:-1] + (r, r))   # v @ ad_x = [x, v]
    ad_y = _vecmat(y, c).reshape(y.shape[:-1] + (r, r))
    xy = _vecmat(y, ad_x)
    x_xy = _vecmat(xy, ad_x)
    return x + y + 0.5 * xy + (x_xy - _vecmat(xy, ad_y)) / 12.0 - _vecmat(x_xy, ad_y) / 24.0


def _build_nilpotent(group: str, alg: LieAlgebra, ordering: tuple):
    """Register the first- and second-kind charts of a nilpotent group and
    the conversions between them, every law derived by `bch`.

    The ordering must be triangular: for each i the span of a_{s_j}, j > i,
    contains every bracket of a_{s_j}, j >= i.  Then the a_{s_i} component of
    a first-kind vector is the i-th second-kind coordinate, which the
    conversion to the second kind peels off one factor at a time.
    """
    cls = lower_central_class(alg)
    if cls is None or cls > _BCH_MAX_CLASS:
        raise ChartError(f"{group}: algebra {alg.name} has nilpotency class {cls}; "
                         f"BCH charts need class <= {_BCH_MAX_CLASS}")
    r = alg.dim
    perm = [idx - 1 for idx in ordering]
    c = alg.structure[np.ix_(perm, perm, perm)]
    j, k, m = np.ogrid[:r, :r, :r]
    if np.any(c[m <= np.minimum(j, k)] != 0.0):
        raise ChartError(f"{group}: ordering {ordering} is not triangular")
    basis = np.eye(r)[perm]                   # basis[pos] = a_{s_pos}

    def conv21(g):
        x = g[..., :1] * basis[0]
        for pos in range(1, r):
            x = bch(alg, x, g[..., pos:pos + 1] * basis[pos])
        return x

    def conv12(x):
        g = np.empty(x.shape)
        for pos in range(r):
            g[..., pos] = x[..., perm[pos]]
            if pos < r - 1:
                x = bch(alg, -g[..., pos:pos + 1] * basis[pos], x)
        return g

    k1, k2 = (group, "canonical_first", None), (group, "canonical_second", tuple(ordering))
    register_chart(k1, GroupChart(
        group, "canonical_first", r, alg,
        compose_fn=lambda g, h: bch(alg, g, h), inverse_fn=lambda g: -g,
        identity_coords=np.zeros(r)))
    register_chart(k2, GroupChart(
        group, "canonical_second", r, alg, ordering=tuple(ordering),
        compose_fn=lambda g, h: conv12(bch(alg, conv21(g), conv21(h))),
        inverse_fn=lambda g: conv12(-conv21(g)), identity_coords=np.zeros(r)))
    register_conversion(k2, k1, conv21)
    register_conversion(k1, k2, conv12)


# --- Euclidean group SE(2) ---------------------------------------------------

def _build_se2():
    alg = catalog_algebra("se2")
    A1 = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    A2 = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    A3 = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
    rep = (A1, A2, A3)

    def compose2(g, h):
        th, a, b = g.T
        thp, ap, bp = h.T
        ct, st = np.cos(thp), np.sin(thp)
        return np.array([th + thp, ap + a * ct + b * st, bp - a * st + b * ct]).T

    def inverse2(g):
        th, a, b = g.T
        ct, st = np.cos(th), np.sin(th)
        return np.array([-th, -(a * ct - b * st), -(a * st + b * ct)]).T

    def adjoint(g):
        th, a, b = g.T
        ct, st = np.cos(th), np.sin(th)
        one, zero = np.ones_like(th), np.zeros_like(th)
        return _mat([
            [one, zero, zero],
            [b * ct + a * st, ct, -st],
            [-a * ct + b * st, st, ct],
        ])

    def wrap(c):
        out = c.copy()
        out[..., 0] = _wrap_angle(out[..., 0])
        return out

    chart2 = GroupChart(
        "SE2", "canonical_second", 3, alg, ordering=(1, 2, 3), algebra_rep=rep,
        compose_fn=compose2, inverse_fn=inverse2, identity_coords=np.zeros(3),
        adjoint_fn=adjoint, wrap_fn=wrap,
    )
    register_chart(("SE2", "canonical_second", (1, 2, 3)), chart2)

    def se2_constraint(c):
        M = c.reshape(c.shape[:-1] + (3, 3))
        R = M[..., :2, :2]
        return np.maximum(np.abs(R.swapaxes(-1, -2) @ R - np.eye(2)).max(axis=(-2, -1)),
                          np.abs(M[..., 2, :] - np.array([0.0, 0.0, 1.0])).max(axis=-1))

    _mk_matrix_chart("SE2", alg, rep, constraint=se2_constraint)

    def to_matrix(g):
        el = GroupElement(chart2, g)
        return matrix_rep(el).reshape(-1)

    def from_matrix(c):
        M = c.reshape(3, 3)
        th = math.atan2(M[1, 0], M[0, 0])
        # undo M = expm(th A1) expm(a A2) expm(b A3) = R(th) @ T(a, b)
        T = np.linalg.inv(_expm_taylor(th * A1)) @ M
        return np.array([th, T[0, 2], T[1, 2]])

    register_conversion(("SE2", "canonical_second", (1, 2, 3)), ("SE2", "matrix", None), to_matrix)
    register_conversion(("SE2", "matrix", None), ("SE2", "canonical_second", (1, 2, 3)), from_matrix)


# --- the epsilon family: quaternion-like chart and linear 3x3 chart ----------

def Ceps(eps, x):
    if eps == 1:
        return np.cos(x)
    if eps == -1:
        return np.cosh(x)
    return np.ones_like(np.asarray(x, dtype=float)) if np.ndim(x) else 1.0


def Seps(eps, x):
    if eps == 1:
        return np.sin(x)
    if eps == -1:
        return np.sinh(x)
    return np.asarray(x, dtype=float) if np.ndim(x) else float(x)


def _geps_rep4(eps):
    a1 = 0.5 * np.array([
        [0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]], dtype=float)
    a2 = 0.5 * np.array([
        [0, 0, -eps, 0], [0, 0, 0, eps], [1, 0, 0, 0], [0, -1, 0, 0]], dtype=float)
    a3 = 0.5 * np.array([
        [0, 0, 0, -eps], [0, 0, -eps, 0], [0, 1, 0, 0], [1, 0, 0, 0]], dtype=float)
    return a1, a2, a3


def _geps_rep3(eps):
    a1 = np.array([[0, 1, 0], [-1, 0, 0], [0, 0, 0]], dtype=float)
    a2 = np.array([[0, 0, -1], [0, 0, 0], [eps, 0, 0]], dtype=float)
    a3 = np.array([[0, 0, 0], [0, 0, 1], [0, -eps, 0]], dtype=float)
    return a1, a2, a3


def _build_geps(eps):
    alg = catalog_algebra("g_eps", eps=eps)
    name = f"Geps({eps:+d})"

    def compose_q(g, h):
        a, b, c, d = g.T
        ap, bp, cp, dp = h.T
        return np.array([
            a * ap - b * bp - eps * (c * cp + d * dp),
            b * ap + a * bp - eps * (d * cp - c * dp),
            c * ap + d * bp + a * cp - b * dp,
            d * ap - c * bp + b * cp + a * dp,
        ]).T

    def inverse_q(g):
        return g * np.array([1.0, -1.0, -1.0, -1.0])

    def constraint_q(g):
        a, b, c, d = g.T
        return abs(a * a + b * b + eps * (c * c + d * d) - 1.0)

    def adjoint_q(g):
        a, b, c, d = g.T
        return _mat([
            [a * a + b * b - eps * (c * c + d * d), 2 * eps * (b * c - a * d), 2 * eps * (a * c + b * d)],
            [2 * (b * c + a * d), a * a - b * b + eps * (c * c - d * d), 2 * (eps * c * d - a * b)],
            [2 * (b * d - a * c), 2 * (a * b + eps * c * d), a * a - b * b - eps * (c * c - d * d)],
        ])

    def exp_q(index, s):
        half = 0.5 * s
        zero = np.zeros_like(half)
        if index == 0:
            return np.array([np.cos(half), np.sin(half), zero, zero]).T
        c, sn = Ceps(eps, half) + zero, Seps(eps, half) + zero
        if index == 1:
            return np.array([c, zero, sn, zero]).T
        return np.array([c, zero, zero, sn]).T

    def q_to_mat4(g):
        a, b, c, d = g.T
        return _mat([
            [a, -b, -eps * c, -eps * d],
            [b, a, -eps * d, eps * c],
            [c, d, a, -b],
            [d, -c, b, a],
        ])

    chart_q = GroupChart(
        name, "quaternion", 4, alg,
        algebra_rep=_geps_rep4(eps),
        compose_fn=compose_q, inverse_fn=inverse_q,
        identity_coords=np.array([1.0, 0.0, 0.0, 0.0]),
        adjoint_fn=adjoint_q, constraint_fn=constraint_q,
        exp_fn=exp_q, to_matrix_fn=q_to_mat4,
    )
    register_chart((name, "quaternion", None), chart_q)

    _mk_matrix_chart(name, alg, _geps_rep3(eps))
    _mk_matrix_chart(name + "-cover", alg, _geps_rep4(eps), constraint=None)

    register_conversion(
        (name, "quaternion", None), (name + "-cover", "matrix", None),
        lambda g: q_to_mat4(g).reshape(-1))
    register_conversion(
        (name + "-cover", "matrix", None), (name, "quaternion", None),
        lambda cds: cds.reshape(4, 4)[:, 0].copy())


# --- SO(3), SU(2), SE(3) -----------------------------------------------------

def _so3_rep():
    a1 = np.array([[0, 1, 0], [-1, 0, 0], [0, 0, 0]], dtype=float)
    a2 = np.array([[0, 0, -1], [0, 0, 0], [1, 0, 0]], dtype=float)
    a3 = np.array([[0, 0, 0], [0, 0, 1], [0, -1, 0]], dtype=float)
    return a1, a2, a3


def _build_so3():
    alg = catalog_algebra("so3")

    def constraint(c):
        M = c.reshape(c.shape[:-1] + (3, 3))
        return np.abs(M.swapaxes(-1, -2) @ M - np.eye(3)).max(axis=(-2, -1))

    _mk_matrix_chart("SO3", alg, _so3_rep(), constraint=constraint)


def _se3_rep():
    z = np.zeros((4, 4))
    a1 = z.copy(); a1[0, 1] = 1.0; a1[1, 0] = -1.0
    a2 = z.copy(); a2[0, 2] = -1.0; a2[2, 0] = 1.0
    a3 = z.copy(); a3[1, 2] = 1.0; a3[2, 1] = -1.0
    a4 = z.copy(); a4[0, 3] = -1.0
    a5 = z.copy(); a5[1, 3] = -1.0
    a6 = z.copy(); a6[2, 3] = -1.0
    return a1, a2, a3, a4, a5, a6


def _build_se3():
    alg = catalog_algebra("se3")

    def constraint(c):
        M = c.reshape(c.shape[:-1] + (4, 4))
        A = M[..., :3, :3]
        return np.maximum(np.abs(A.swapaxes(-1, -2) @ A - np.eye(3)).max(axis=(-2, -1)),
                          np.abs(M[..., 3, :] - np.array([0, 0, 0, 1.0])).max(axis=-1))

    _mk_matrix_chart("SE3", alg, _se3_rep(), constraint=constraint)


# --- SL(2,R) and SL(3,R) ------------------------------------------------------

def sl2_basis():
    a1 = np.array([[0.0, -1.0], [0.0, 0.0]])
    a2 = 0.5 * np.array([[-1.0, 0.0], [0.0, 1.0]])
    a3 = np.array([[0.0, 0.0], [1.0, 0.0]])
    return a1, a2, a3


def sl3_basis():
    a1 = np.zeros((3, 3)); a1[0, 1] = -1.0
    a2 = 0.5 * np.diag([-1.0, 1.0, 0.0])
    a3 = np.zeros((3, 3)); a3[1, 0] = 1.0
    a4 = np.diag([-1.0, -1.0, 2.0]) / 6.0
    a5 = np.zeros((3, 3)); a5[0, 2] = -1.0
    a6 = np.zeros((3, 3)); a6[1, 2] = -1.0
    a7 = np.zeros((3, 3)); a7[2, 0] = 1.0
    a8 = np.zeros((3, 3)); a8[2, 1] = 1.0
    return a1, a2, a3, a4, a5, a6, a7, a8


def _build_sl2():
    alg = catalog_algebra("sl2")

    def constraint(c):
        return np.abs(np.linalg.det(c.reshape(c.shape[:-1] + (2, 2))) - 1.0)

    _mk_matrix_chart("SL2", alg, sl2_basis(), constraint=constraint)


def _build_sl3():
    alg = catalog_algebra("sl3")

    def constraint(c):
        return np.abs(np.linalg.det(c.reshape(c.shape[:-1] + (3, 3))) - 1.0)

    _mk_matrix_chart("SL3", alg, sl3_basis(), constraint=constraint)


# --- affine group of the line -------------------------------------------------

def _build_affine():
    alg = catalog_algebra("aff")
    A1 = np.array([[0.0, 1.0], [0.0, 0.0]])
    A2 = np.array([[-1.0, 0.0], [0.0, 0.0]])

    def compose2(g, h):
        a, b = g.T
        ap, bp = h.T
        return np.array([a + ap * np.exp(-b), b + bp]).T

    def inverse2(g):
        a, b = g.T
        return np.array([-a * np.exp(b), -b]).T

    def adjoint(g):
        a, b = g.T
        return _mat([[np.exp(-b), a], [np.zeros_like(a), np.ones_like(a)]])

    chart = GroupChart(
        "Aff", "canonical_second", 2, alg, ordering=(1, 2), algebra_rep=(A1, A2),
        compose_fn=compose2, inverse_fn=inverse2, identity_coords=np.zeros(2),
        adjoint_fn=adjoint,
    )
    register_chart(("Aff", "canonical_second", (1, 2)), chart)
    _mk_matrix_chart("Aff", alg, (A1, A2))


_build_h3()
for _group, _alg in (("G4", catalog_algebra("g4")), ("G5", catalog_algebra("g5")),
                     ("G7", catalog_algebra("g7")), ("G8", catalog_algebra("g8")),
                     ("Gbar4", catalog_algebra("gbar", n=4)),
                     ("Gbar5", catalog_algebra("gbar", n=5))):
    _build_nilpotent(_group, _alg, tuple(range(1, _alg.dim + 1)))
_build_se2()
for _e in (-1, 0, 1):
    _build_geps(_e)
_build_so3()
_build_se3()
_build_sl2()
_build_sl3()
_build_affine()
