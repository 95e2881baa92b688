"""Concrete Lie-group charts: composition laws, inverses, adjoints,
one-parameter subgroups, chart conversions and log-derivatives.

A chart is either a matrix chart (coords = row-major matrix entries,
composition = matrix product) or a canonical chart of first/second kind
in which exp(s a_i) is the coordinate line s e_i.  A chart's `key`,
(group_name, chart_kind, ordering), is its identity: `register_chart` files
the chart under it in `_CHARTS`, and composition, conversion and
`element_from_dict` match charts by it, so mixing the orderings of
second-kind charts is a chart mismatch.  Its coordinate dimension is the
length of its identity coordinates.

The canonical charts of the nilpotent groups H3, G4, G5, G7, G8, Gbar4
and Gbar5 are derived from the structure constants: first-kind composition
is the Baker-Campbell-Hausdorff series (`bch`, exact for nilpotency class
at most 4), and every second-kind law goes through the conversions to and
from the first kind.  SE2, the signature family and the affine group keep
closed-form composition laws.  Each matrix chart checks its coordinates
against one constraint per kind of matrix group: orthogonal (SO3), rigid
motion (SE2, SE3) or unimodular (SL2, SL3).

Adjoints and log-derivatives follow from the chart kind alone (`_adjoint`,
`_trivialize`): one chain of exp(ad) factors for second-kind charts
(`algebra._exp_ad_chain`: all r factors on each basis vector for Ad, the
Wei-Norman matrix for the log-derivatives), the exp(ad) and dexp series for
first-kind charts, and a projector onto the algebra representation for
matrix and quaternion charts, whose coordinates map to matrices linearly;
on these the reduction's Ad(g^{-1}) b + g^{-1} dg (`_pull_back`) is one
conjugation.

One exponential map, `exp_algebra`, takes algebra vectors to chart
coordinates, with one rule per chart kind; the steps of the Magnus scan
(`magnus_scan`: the reduction's subgroup and homogeneous solves and the
first iterate of the cyclic Wei-Norman sweeps), all in one call, and
off-node curve evaluation go through it.  A chart whose points map to
second-kind coordinates in closed form is filed with the map under its
algebra and ordering (`second_kind_chart`: every second-kind chart, and the
Geps(+1), Geps(-1), SO3 and SL2 matrix charts in the ordering (1, 2, 3));
the map takes a Magnus curve to Wei-Norman exponents.
One-parameter factors exp(s a_i) of a basis element (`exp_basis`:
`exp_chart`, the Wei-Norman reconstruction, `matrix_rep`) take, on a matrix
representation, the closed-form exponential of the fixed matrix R_i
(`algebra.ExpRule`), and `exp_algebra` otherwise.

Every chart law (compose, inverse, constraint, wrap, to-matrix),
`exp_algebra`, `_adjoint`, `_trivialize`, `_pull_back` and `bch` take
coordinates with leading batch axes, (..., d), so a whole grid of nodes goes
through one call; a single point is the batch with no leading axis.  Chart
conversions take single points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .algebra import (
    ExpRule,
    LieAlgebra,
    SpanExpRule,
    _ad_series,
    _exp_ad_chain,
    bracket_coords,
    catalog_algebra,
    eps_parameter,
    expm,
    wn_matrix,
)
from .errors import ChartError, UnknownNameError
from .numerics import central_diff, prefix_product

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


def _square(g):
    """(..., m*m) matrix-chart coordinates as (..., m, m) matrices."""
    m = math.isqrt(g.shape[-1])
    return g.reshape(g.shape[:-1] + (m, m))


def _matvec(M, v):
    """M v over matching leading batch axes, as a matrix product with one
    column so that a batch and a single vector round alike."""
    return (M @ v[..., None])[..., 0]


def _vecmat(v, M):
    """v M over matching leading batch axes, as a one-row matrix product."""
    return (v[..., None, :] @ M)[..., 0, :]


def _on_chart(chart, coords, stage=None, times=None):
    """Wrap (..., d) chart coordinates and check them against the chart
    constraint; non-finite coordinates always fail.  For the nodes of a
    grid, `stage` names what they are and `times` their times; a violation
    reports the first offending node, its time and its error."""
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
            f"{k} (t={times[k]:.6g}): error {err[k]:.3g} > {_CONSTRAINT_TOL:g}")
    return coords


@dataclass(frozen=True, eq=False)   # equal and hashed as itself only
class GroupChart:
    group_name: str
    chart_kind: str                       # 'matrix' | 'canonical_first' | 'canonical_second' | 'quaternion'
    coord_dim: int = field(init=False)    # the length of identity_coords
    algebra: LieAlgebra
    identity_coords: np.ndarray = field(repr=False)
    ordering: tuple | None = None         # for canonical_second, 1-based
    algebra_rep: tuple | None = field(default=None, repr=False)   # matrices per basis element
    compose_fn: Callable = field(default=None, repr=False)
    inverse_fn: Callable = field(default=None, repr=False)
    constraint_fn: Callable | None = field(default=None, repr=False)
    wrap_fn: Callable | None = field(default=None, repr=False)
    # closed-form exponential, (..., r) algebra vectors -> coords (second kind)
    exp_closed_fn: Callable | None = field(default=None, repr=False)
    to_matrix_fn: Callable | None = field(default=None, repr=False)  # linear coords -> matrix
    # pseudo-inverse of the stacked algebra_rep: reads algebra coordinates off
    # a matrix in the span of the representation (matrix and quaternion charts)
    rep_projector: np.ndarray | None = field(default=None, init=False, repr=False)
    # exp(s R_i) rules per basis index of algebra_rep, filled by exp_rep, and
    # under None the SpanExpRule of exp_algebra; held on the instance so no
    # other chart can ever read them
    _exp_rules: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "coord_dim", len(self.identity_coords))
        if self.chart_kind in ("matrix", "quaternion"):
            B = np.stack([M.reshape(-1) for M in self.algebra_rep], axis=1)
            object.__setattr__(self, "rep_projector", np.linalg.pinv(B))

    def element(self, coords) -> "GroupElement":
        return GroupElement(self, np.asarray(coords, dtype=float))

    def identity(self) -> "GroupElement":
        return GroupElement(self, self.identity_coords.copy())

    @property
    def key(self) -> tuple:
        """The chart's identity and its `_CHARTS` key: group, kind, ordering."""
        return self.group_name, self.chart_kind, self.ordering


@dataclass(frozen=True, eq=False)   # equal and hashed as itself only
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


def _same_chart(cg: GroupChart, ch: GroupChart):
    """Charts are the same when group, kind and ordering agree."""
    if cg.key != ch.key:
        raise ChartError(f"chart mismatch: {cg.group_name}/{cg.chart_kind} vs {ch.group_name}/{ch.chart_kind}")


def compose(g: GroupElement, h: GroupElement) -> GroupElement:
    _same_chart(g.chart, h.chart)
    return GroupElement(g.chart, g.chart.compose_fn(g.coords, h.coords))


def inverse(g: GroupElement) -> GroupElement:
    return GroupElement(g.chart, g.chart.inverse_fn(g.coords))


def exp_algebra(chart: GroupChart, xi) -> np.ndarray:
    """Chart coordinates of exp(xi) for (..., r) algebra vectors xi, one
    point per vector.

    One rule per chart kind:
    - first kind: the coordinates are xi itself;
    - second kind: the chart's closed form (`exp_closed_fn`), which on the
      nilpotent groups is the peel from first-kind coordinates;
    - quaternion: X = sum xi_i a_i squares to -theta^2 with
      theta^2 = (xi_1^2 + eps (xi_2^2 + xi_3^2)) / 4, so exp(X) has
      coordinates (C(theta), S(theta)/theta xi / 2), cos/sin when theta^2 >= 0
      and cosh/sinh of |theta| otherwise;
    - matrix: exp of X = sum xi_i R_i in the chart's representation by its
      `SpanExpRule`, built on the first call and cached on the chart:
      I + f1(q) X + f2(q) X^2 where a quadratic form q closes the cube,
      X^3 = q X, on the whole span (all matrix charts but SE3 and SL3),
      and `expm` otherwise.
    A one-parameter factor exp(s a_i) of a fixed basis element goes through
    `exp_basis` instead.
    """
    xi = np.asarray(xi, dtype=float)
    if chart.exp_closed_fn is not None:
        return chart.exp_closed_fn(xi)
    if chart.chart_kind == "canonical_first":
        return xi.copy()
    if chart.chart_kind == "quaternion":
        eps = chart.algebra.structure[1, 2, 0]          # [a2, a3] = eps a1
        sq = 0.25 * (xi[..., 0] ** 2 + eps * (xi[..., 1] ** 2 + xi[..., 2] ** 2))
        theta = np.sqrt(np.abs(sq))
        c = np.where(sq >= 0.0, np.cos(theta), np.cosh(theta))
        s = np.where(sq >= 0.0, np.sin(theta), np.sinh(theta))
        ratio = np.where(theta > 0.0, s / np.where(theta > 0.0, theta, 1.0), 1.0)
        return np.concatenate([c[..., None], 0.5 * ratio[..., None] * xi], axis=-1)
    rule = chart._exp_rules.get(None)
    if rule is None:
        rule = chart._exp_rules[None] = SpanExpRule(chart.algebra_rep)
    return rule(xi).reshape(xi.shape[:-1] + (chart.coord_dim,))


def exp_rep(chart: GroupChart, index: int, s) -> np.ndarray:
    """exp(s R_index) for an array of s, (..., n, n), where R_index is the
    chart's representation of a_index: the matrix's `ExpRule`, cached on the
    chart, so closed form wherever R_index is nilpotent or
    R_index^3 = c R_index."""
    rule = chart._exp_rules.get(index)
    if rule is None:
        rule = chart._exp_rules[index] = ExpRule(chart.algebra_rep[index])
    return rule(s)


def exp_basis(chart: GroupChart, index: int, s) -> np.ndarray:
    """Chart coordinates of exp(s a_index) for an array of s, (..., d), one
    point per entry (index is 0-based into the algebra basis): on a matrix
    chart by `exp_rep`, on any other chart by `exp_algebra` of the one-hot
    vectors."""
    s = np.asarray(s, dtype=float)
    if chart.chart_kind == "matrix":
        return exp_rep(chart, index, s).reshape(s.shape + (chart.coord_dim,))
    xi = np.zeros(s.shape + (chart.algebra.dim,))
    xi[..., index] = s
    return exp_algebra(chart, xi)


def magnus_scan(chart: GroupChart, A, half, dt) -> np.ndarray:
    """Node coordinates of R_{h^{-1}*h}(dh/dt) = A(t) with h(t0) = e, from
    (n, r) algebra vectors A_k at the nodes, (n - 1, r) A_{k+1/2} at the
    step midpoints, and the step dt (a scalar, or (n - 1, 1) steps).

    Fourth-order Magnus: step k is h_{k+1} = exp(Omega_k) h_k with
    Omega_k = dt/6 (A_k + 4 A_{k+1/2} + A_{k+1}) + dt^2/12 [A_{k+1}, A_k]
    (Blanes, Casas, Oteo & Ros, Phys. Rep. 470 (2009) 151), the bracket from
    the structure constants.  The exp(Omega_k) come from one `exp_algebra`
    call over all steps, and their products
    h_{k+1} = exp(Omega_k) ... exp(Omega_0) from `prefix_product`.

    Two callers take it: `reduction` for its subgroup and homogeneous
    solves and the seeds of its homogeneous RK4 sweeps, and `weinorman`
    for the first iterate of the cyclic Wei-Norman sweeps, A = -b on the
    chart and mapped by the map that `second_kind_chart` files.
    """
    omega = (dt / 6.0 * (A[:-1] + 4.0 * half + A[1:])
             + dt ** 2 / 12.0 * bracket_coords(chart.algebra, A[1:], A[:-1]))
    h = np.concatenate([chart.identity_coords[None], exp_algebra(chart, omega)])
    prefix_product(h[1:], chart.compose_fn, chart.identity_coords)
    return h


def exp_chart(chart: GroupChart, index: int, s: float = 1.0) -> GroupElement:
    """exp(s a_index) in the chart (index is 0-based into the algebra basis)."""
    return GroupElement(chart, exp_basis(chart, index, s))


def group_adjoint(g: GroupElement) -> np.ndarray:
    """Matrix of Ad(g) in the algebra basis."""
    return _adjoint(g.chart, g.coords)


def _adjoint(chart: GroupChart, g) -> np.ndarray:
    """Ad of (..., d) chart points, as (..., r, r) matrices, with one rule
    per chart kind, as `_trivialize` has.

    canonical_second: g = prod_i exp(g_i a_{s_i}), so Ad(g) is the product
    of the factors exp(g_i ad a_{s_i}), column k the chain of all r factors
    applied to a_k (`algebra._exp_ad_chain`, as the Wei-Norman matrix is).
    canonical_first: g = exp(x), so Ad(g) = exp(ad_x), a finite sum on the
    nilpotent algebras these charts live on.
    matrix, quaternion: column i holds the algebra coordinates of
    G a_i G^{-1} in the chart's representation, read off by its projector.
    """
    alg = chart.algebra
    if chart.chart_kind == "canonical_second":
        return _exp_ad_chain(alg, chart.ordering, g, [(k, alg.dim) for k in range(alg.dim)])
    if chart.chart_kind == "canonical_first":
        return _ad_series(alg, g, 0)
    G = chart.to_matrix_fn(g)[..., None, :, :]
    Gi = chart.to_matrix_fn(chart.inverse_fn(g))[..., None, :, :]
    GAGi = G @ np.stack(chart.algebra_rep) @ Gi
    return chart.rep_projector @ np.swapaxes(GAGi.reshape(GAGi.shape[:-2] + (-1,)), -1, -2)


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


def _pull_back(chart: GroupChart, g, g_inv, b, dg) -> np.ndarray:
    """Ad(g^{-1}) b + g^{-1} dg for chart points g, their inverses g_inv,
    (..., r) algebra vectors b and coordinate velocities dg: on matrix and
    quaternion charts the projector's reading of G^{-1} (B G + dG), with
    B = sum_a b_a A_a, one conjugation per point; on canonical charts
    `_adjoint` of g_inv and the left `_trivialize`."""
    if chart.rep_projector is None:
        return _matvec(_adjoint(chart, g_inv), b) + _trivialize(chart, g, dg, left=True)
    G = chart.to_matrix_fn(g)
    B = (b @ np.stack(chart.algebra_rep).reshape(chart.algebra.dim, -1)).reshape(G.shape)
    X = chart.to_matrix_fn(g_inv) @ (B @ G + chart.to_matrix_fn(dg))
    return _matvec(chart.rep_projector, X.reshape(X.shape[:-2] + (-1,)))


def right_log_derivative(curve, t: float, h: float = DEFAULT_FD_STEP,
                         order: int = 2) -> np.ndarray:
    """The algebra vector R_{g^{-1}*g}(dg/dt) = (dg/dt) g^{-1} at time t.

    dg/dt is a central difference of the curve's chart coordinates (order=4
    switches to the five-point stencil), mapped to the algebra by the
    chart kind's exact rule (`_trivialize`).
    """
    g0 = curve(t)
    dg = central_diff(lambda s: curve(s).coords, t, h, order)
    return _trivialize(g0.chart, g0.coords, dg, left=False)


def left_log_derivative(curve, t: float, h: float = DEFAULT_FD_STEP,
                        order: int = 2) -> np.ndarray:
    """The algebra vector L_{g^{-1}*g}(dg/dt) = g^{-1} (dg/dt) at time t."""
    g0 = curve(t)
    dg = central_diff(lambda s: curve(s).coords, t, h, order)
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
    definition: first kind, `expm` of the full vector; second kind, the
    product of the one-parameter factors exp(g_i R_{s_i}) (`exp_rep`)."""
    chart = g.chart
    if chart.algebra_rep is None:
        raise ChartError(f"{chart.group_name}: no matrix representation cataloged")
    if chart.chart_kind == "canonical_first":
        return expm(np.tensordot(g.coords, np.stack(chart.algebra_rep), axes=1))
    out = exp_rep(chart, chart.ordering[0] - 1, g.coords[0])
    for pos, idx in enumerate(chart.ordering[1:], 1):
        out = out @ exp_rep(chart, idx - 1, g.coords[pos])
    return out


def _to_matrix_coords(chart):
    """The conversion from a canonical chart to its group's matrix chart,
    through `matrix_rep`."""
    return lambda g: matrix_rep(GroupElement(chart, g)).reshape(-1)


# ---------------------------------------------------------------------------
# chart registry
# ---------------------------------------------------------------------------

_CHARTS: dict = {}
_CONVERSIONS: dict = {}
_SECOND_KIND: dict = {}


def register_chart(chart):
    """File the chart; a second-kind chart is also its own second-kind map."""
    _CHARTS[chart.key] = chart
    if chart.chart_kind == "canonical_second":
        register_second_kind(chart, chart.ordering, lambda g: g)


def get_chart(group_name: str, chart_kind: str = "canonical_second",
              ordering=None, eps=None) -> GroupChart:
    name = group_name if eps is None else f"{group_name}({eps_parameter(eps):+d})"
    key = (name, chart_kind, tuple(ordering) if ordering else None)
    if key in _CHARTS:
        return _CHARTS[key]
    # default orderings
    if chart_kind == "canonical_second" and ordering is None:
        for k in _CHARTS:
            if k[0] == name and k[1] == chart_kind:
                return _CHARTS[k]
    raise UnknownNameError(f"no chart registered for {key}")


def register_conversion(src: GroupChart, dst: GroupChart, fn):
    _CONVERSIONS[(src.key, dst.key)] = fn


def chart_convert(g: GroupElement, target: GroupChart) -> GroupElement:
    src = g.chart
    if src is target:
        return g
    key = src.key, target.key
    fn = _CONVERSIONS.get(key)
    if fn is None:
        raise ChartError(f"no conversion registered: {key[0]} -> {key[1]}")
    return GroupElement(target, fn(g.coords))


def register_second_kind(chart: GroupChart, ordering, fn):
    """File `chart` and fn for the chart's algebra and `ordering`: fn takes
    (..., d) coordinates of `chart` to the (..., r) second-kind coordinates
    x of the same points, g = prod_i exp(x_i a_{s_i}), with angles unwrapped
    along the first axis."""
    _SECOND_KIND[(chart.algebra, tuple(ordering))] = (chart, fn)


def second_kind_chart(alg, ordering):
    """The chart and map filed for the algebra and `ordering`
    (`register_second_kind`), or None where none is."""
    return _SECOND_KIND.get((alg, tuple(ordering)))


def _unwrap_nodes(angle):
    """An angle made continuous along the nodes, the first axis; a single
    point has none."""
    return np.unwrap(angle, axis=0) if np.ndim(angle) else angle


def _gram_error(c, n, m):
    """max |R^T R - I| of the leading m x m block R of (..., n*n) matrix-chart
    coordinates: column j of R is the slice c[..., j:m*n:n], and each of the
    m(m+1)/2 unique Gram entries is one dot product of two such slices."""
    cols = [c[..., j:m * n:n] for j in range(m)]
    return np.maximum.reduce([np.abs(np.einsum("...k,...k->...", cols[i], cols[j]) - (i == j))
                              for i in range(m) for j in range(i, m)])


def _orthogonal(c):
    """max |M^T M - I| of (..., n*n) matrix-chart coordinates."""
    n = math.isqrt(c.shape[-1])
    return _gram_error(c, n, n)


def _rigid(c):
    """The error of M = [[R, t], [0, 1]] with R orthogonal, for (..., n*n)
    matrix-chart coordinates: the larger of R's orthogonality error and the
    last row's distance from e_n."""
    n = math.isqrt(c.shape[-1])
    return np.maximum(_gram_error(c, n, n - 1),
                      np.abs(c[..., n * (n - 1):] - np.eye(n)[-1]).max(axis=-1))


def _unimodular(c):
    """|det M - 1| of (..., n*n) matrix-chart coordinates."""
    return np.abs(np.linalg.det(_square(c)) - 1.0)


def _inverse_stays_on_chart(chart) -> bool:
    """Whether the chart's inverse of a point that meets its constraint
    meets it too, with nothing to wrap: the conjugate on a quaternion chart
    and the transpose on an orthogonal or rigid matrix chart.  Any other
    matrix chart inverts by `np.linalg.inv`."""
    return chart.chart_kind == "quaternion" or chart.constraint_fn in (_orthogonal, _rigid)


def _mk_matrix_chart(group, alg, rep, constraint=None):
    """Register the matrix chart of `rep`; its inverse follows the
    constraint: the transpose of an orthogonal matrix, [[R^T, -R^T p],
    [0, 1]] of a rigid one [[R, p], [0, 1]], and `np.linalg.inv` of any
    other."""
    n = rep[0].shape[0]
    ident = np.eye(n).reshape(-1)
    square, flat = (n, n), (n * n,)

    def to_matrix(a):
        return a.reshape(a.shape[:-1] + square)

    def compose(a, b):
        out = a.reshape(a.shape[:-1] + square) @ b.reshape(b.shape[:-1] + square)
        return out.reshape(out.shape[:-2] + flat)

    def inverse(a):
        M = to_matrix(a)
        if constraint is _orthogonal:
            out = M.swapaxes(-1, -2)
        elif constraint is _rigid:
            Rt = M[..., :-1, :-1].swapaxes(-1, -2)
            out = np.zeros_like(M)
            out[..., :-1, :-1] = Rt
            out[..., :-1, -1] = -_matvec(Rt, M[..., :-1, -1])
            out[..., -1, -1] = 1.0
        else:
            out = np.linalg.inv(M)
        return out.reshape(a.shape)

    chart = GroupChart(
        group_name=group,
        chart_kind="matrix",
        algebra=alg,
        algebra_rep=tuple(np.asarray(M, dtype=float) for M in rep),
        compose_fn=compose,
        inverse_fn=inverse,
        identity_coords=ident,
        constraint_fn=constraint,
        to_matrix_fn=to_matrix,
    )
    register_chart(chart)
    return chart


# --- nilpotent groups: laws derived from the structure constants -------------

_BCH_MAX_CLASS = 4


def bch(alg: LieAlgebra, x, y) -> np.ndarray:
    """log(exp(x) exp(y)) by Dynkin's Baker-Campbell-Hausdorff series,
    x + y + [x,y]/2 + ([x,[x,y]] - [y,[x,y]])/12 - [y,[x,[x,y]]]/24.

    Exact when the algebra's nilpotency class is at most 4 (every longer
    bracket vanishes); see Bonfiglioli & Fulci, Topics in Noncommutative
    Algebra, Springer LNM 2034 (2012).  The series stops at the class: the
    brackets of that many or more factors are exact zeros, so the terms left
    out would add nothing.  x and y are (..., r) arrays.
    """
    cls = alg.nilpotency_class or _BCH_MAX_CLASS
    out = x + y
    if cls < 2:
        return out
    r = alg.dim
    c = alg.structure.reshape(r, r * r)
    ad_x = _vecmat(x, c).reshape(x.shape[:-1] + (r, r))   # v @ ad_x = [x, v]
    xy = _vecmat(y, ad_x)
    out = out + 0.5 * xy
    if cls < 3:
        return out
    ad_y = _vecmat(y, c).reshape(y.shape[:-1] + (r, r))
    x_xy = _vecmat(xy, ad_x)
    out = out + (x_xy - _vecmat(xy, ad_y)) / 12.0
    if cls < 4:
        return out
    return out - _vecmat(x_xy, ad_y) / 24.0


def _build_nilpotent(group: str, alg: LieAlgebra, ordering: tuple, rep=None):
    """Register the first- and second-kind charts of a nilpotent group and
    the conversions between them, every law derived by `bch`.

    The ordering must be triangular: for each i the span of a_{s_j}, j > i,
    contains every bracket of a_{s_j}, j >= i.  Then the a_{s_i} component of
    a first-kind vector is the i-th second-kind coordinate, which the
    conversion to the second kind peels off one factor at a time.

    A matrix representation `rep` (one matrix per basis element), when
    given, is the `algebra_rep` of both charts; the group's matrix chart and
    the second-kind -> matrix conversion are registered with it.
    """
    cls = alg.nilpotency_class
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

    chart1 = GroupChart(
        group, "canonical_first", alg, np.zeros(r), algebra_rep=rep,
        compose_fn=lambda g, h: bch(alg, g, h), inverse_fn=lambda g: -g)
    chart2 = GroupChart(
        group, "canonical_second", alg, np.zeros(r), ordering=tuple(ordering), algebra_rep=rep,
        compose_fn=lambda g, h: conv12(bch(alg, conv21(g), conv21(h))),
        inverse_fn=lambda g: conv12(-conv21(g)), exp_closed_fn=conv12)
    register_chart(chart1)
    register_chart(chart2)
    register_conversion(chart2, chart1, conv21)
    register_conversion(chart1, chart2, conv12)
    if rep is not None:
        matrix = _mk_matrix_chart(group, alg, rep)
        register_conversion(chart2, matrix, _to_matrix_coords(chart2))


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

    def wrap(c):
        out = c.copy()
        out[..., 0] = _wrap_angle(out[..., 0])
        return out

    def exp2(x):
        # exp(w A1 + u A2 + v A3) = [[R(w), V(w) (u, v)]] and the chart point
        # is [[R(th), R(th) (a, b)]], so (a, b) = R(-w) V(w) (u, v)
        w, u, v = x.T
        # the square is a product: a numpy scalar's ** 2 can round 1 ulp
        # away from the array square, and a batch must equal single calls
        sinc = np.sinc(w / np.pi)                           # sin(w) / w
        half = np.sinc(w / (2.0 * np.pi))                   # sin(w/2) / (w/2)
        versc = 0.5 * w * (half * half)                     # (1 - cos w) / w
        return np.array([w, sinc * u + versc * v, sinc * v - versc * u]).T

    chart2 = GroupChart(
        "SE2", "canonical_second", alg, np.zeros(3), ordering=(1, 2, 3), algebra_rep=rep,
        compose_fn=compose2, inverse_fn=inverse2, wrap_fn=wrap, exp_closed_fn=exp2,
    )
    register_chart(chart2)

    matrix = _mk_matrix_chart("SE2", alg, rep, _rigid)

    def from_matrix(c):
        M = c.reshape(3, 3)
        th = math.atan2(M[1, 0], M[0, 0])
        # undo M = exp(th A1) exp(a A2) exp(b A3) = R(th) @ T(a, b)
        T = exp_rep(chart2, 0, -th) @ M
        return np.array([th, T[0, 2], T[1, 2]])

    register_conversion(chart2, matrix, _to_matrix_coords(chart2))
    register_conversion(matrix, chart2, from_matrix)


# --- the epsilon family: quaternion-like chart and linear 3x3 chart ----------

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


def _geps_second_kind(eps):
    """Second-kind coordinates (1, 2, 3) of the `_geps_rep3(eps)` matrix
    chart at eps = +1 or -1: G = exp(x1 R1) exp(x2 R2) exp(x3 R3) has
    G00 = cos x1 C(x2), G10 = -sin x1 C(x2) and, at eps = +1,
    (G20, G21, G22) = (sin x2, -cos x2 sin x3, cos x2 cos x3); at eps = -1,
    C = cosh, G20 = -sinh x2 and G21 = cosh x2 sinh x3."""
    def second_kind(c):
        G = _square(c)
        x1 = _unwrap_nodes(np.arctan2(-G[..., 1, 0], G[..., 0, 0]))
        if eps > 0:
            x2 = np.arcsin(G[..., 2, 0])
            x3 = _unwrap_nodes(np.arctan2(-G[..., 2, 1], G[..., 2, 2]))
        else:
            x2 = np.arcsinh(-G[..., 2, 0])
            x3 = np.arcsinh(G[..., 2, 1] / np.cosh(x2))
        return np.stack([x1, x2, x3], axis=-1)

    return second_kind


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

    def q_to_mat4(g):
        a, b, c, d = g.T
        return _mat([
            [a, -b, -eps * c, -eps * d],
            [b, a, -eps * d, eps * c],
            [c, d, a, -b],
            [d, -c, b, a],
        ])

    chart_q = GroupChart(
        name, "quaternion", alg, np.array([1.0, 0.0, 0.0, 0.0]),
        algebra_rep=_geps_rep4(eps),
        compose_fn=compose_q, inverse_fn=inverse_q,
        constraint_fn=constraint_q,
        to_matrix_fn=q_to_mat4,
    )
    register_chart(chart_q)

    matrix = _mk_matrix_chart(name, alg, _geps_rep3(eps))
    if eps:
        register_second_kind(matrix, (1, 2, 3), _geps_second_kind(eps))
    cover = _mk_matrix_chart(name + "-cover", alg, _geps_rep4(eps), constraint=None)

    register_conversion(chart_q, cover, lambda g: q_to_mat4(g).reshape(-1))
    register_conversion(cover, chart_q, lambda cds: cds.reshape(4, 4)[:, 0].copy())


# --- SE(3) -------------------------------------------------------------------

def _se3_rep():
    z = np.zeros((4, 4))
    a1 = z.copy(); a1[0, 1] = 1.0; a1[1, 0] = -1.0
    a2 = z.copy(); a2[0, 2] = -1.0; a2[2, 0] = 1.0
    a3 = z.copy(); a3[1, 2] = 1.0; a3[2, 1] = -1.0
    a4 = z.copy(); a4[0, 3] = -1.0
    a5 = z.copy(); a5[1, 3] = -1.0
    a6 = z.copy(); a6[2, 3] = -1.0
    return a1, a2, a3, a4, a5, a6


# --- SL(2,R) and SL(3,R) ------------------------------------------------------

def sl2_basis():
    a1 = np.array([[0.0, -1.0], [0.0, 0.0]])
    a2 = 0.5 * np.array([[-1.0, 0.0], [0.0, 1.0]])
    a3 = np.array([[0.0, 0.0], [1.0, 0.0]])
    return a1, a2, a3


def _sl2_second_kind(c):
    """Second-kind coordinates (1, 2, 3) of the `sl2_basis` matrix chart:
    exp(x1 a1) exp(x2 a2) exp(x3 a3) = [[d^-1 - x1 x3 d, -x1 d], [x3 d, d]]
    with d = e^{x2/2}, so x1 = -G01/G11, x2 = 2 log G11 and x3 = G10/G11.
    A point with G11 <= 0 has no such coordinates and maps to NaN."""
    G = _square(c)
    d = np.where(G[..., 1, 1] > 0.0, G[..., 1, 1], np.nan)
    return np.stack([-G[..., 0, 1] / d, 2.0 * np.log(d), G[..., 1, 0] / d], axis=-1)


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

    def exp2(x):
        # exp(u A1 + v A2) = [[e^-v, u (1 - e^-v) / v], [0, 1]]
        u, v = x.T
        nonzero = v != 0.0
        ratio = np.where(nonzero, -np.expm1(-v) / np.where(nonzero, v, 1.0), 1.0)
        return np.array([u * ratio, v]).T

    chart = GroupChart(
        "Aff", "canonical_second", alg, np.zeros(2), ordering=(1, 2), algebra_rep=(A1, A2),
        compose_fn=compose2, inverse_fn=inverse2, exp_closed_fn=exp2,
    )
    register_chart(chart)
    _mk_matrix_chart("Aff", alg, (A1, A2))


# --- affine actions on the phase plane -----------------------------------------

def _affine_rep_from_fields(mats, trans):
    """Algebra rep for an affine action x -> M x + t: A_i = -(M_i | t_i)."""
    out = []
    for M, t in zip(mats, trans):
        A = np.zeros((3, 3))
        A[:2, :2] = -np.asarray(M)
        A[:2, 2] = -np.asarray(t)
        out.append(A)
    return out


def _build_phase_plane():
    """The matrix charts of the affine actions on (q, p) of the classical
    quadratic Hamiltonian flows (QuadH) and of the time-dependent linear
    potential (TdLin)."""
    mats = [np.array([[0.0, 1.0], [0.0, 0.0]]),
            np.array([[0.5, 0.0], [0.0, -0.5]]),
            np.array([[0.0, 0.0], [-1.0, 0.0]]),
            np.zeros((2, 2)), np.zeros((2, 2))]
    trans = [np.zeros(2), np.zeros(2), np.zeros(2),
             np.array([-1.0, 0.0]), np.array([0.0, -1.0])]
    _mk_matrix_chart("QuadH", catalog_algebra("r2sl2"), _affine_rep_from_fields(mats, trans))
    mats = [np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((2, 2)), np.zeros((2, 2))]
    trans = [np.zeros(2), np.array([0.0, 1.0]), np.array([1.0, 0.0])]
    _mk_matrix_chart("TdLin", catalog_algebra("h3c"), _affine_rep_from_fields(mats, trans))


# H(3) in its 3x3 unipotent representation A1 = E12, A2 = E23, A3 = E13
_E = np.eye(3)
_build_nilpotent("H3", catalog_algebra("h3"), (1, 2, 3),
                 tuple(np.outer(_E[i], _E[j]) for i, j in ((0, 1), (1, 2), (0, 2))))
for _group, _alg in (("G4", catalog_algebra("g4")), ("G5", catalog_algebra("g5")),
                     ("G7", catalog_algebra("g7")), ("G8", catalog_algebra("g8")),
                     ("Gbar4", catalog_algebra("gbar", n=4)),
                     ("Gbar5", catalog_algebra("gbar", n=5))):
    _build_nilpotent(_group, _alg, tuple(range(1, _alg.dim + 1)))
_build_se2()
for _e in (-1, 0, 1):
    _build_geps(_e)
register_second_kind(_mk_matrix_chart("SO3", catalog_algebra("so3"), _geps_rep3(1), _orthogonal),
                     (1, 2, 3), _geps_second_kind(1))
_mk_matrix_chart("SE3", catalog_algebra("se3"), _se3_rep(), _rigid)
register_second_kind(_mk_matrix_chart("SL2", catalog_algebra("sl2"), sl2_basis(), _unimodular),
                     (1, 2, 3), _sl2_second_kind)
_mk_matrix_chart("SL3", catalog_algebra("sl3"), sl3_basis(), _unimodular)
_build_affine()
_build_phase_plane()
