"""The generalized Wei-Norman engine.

For a right-invariant system dg/dt g^{-1} = -sum_a b_a(t) a_a the
solution through the identity is written as an ordered product of
one-parameter exponentials g(t) = prod_i exp(-v_i(t) a_{s_i}), and the
exponents satisfy  M(v) dv/dt = b(t)  with  v(0) = 0, where column i of
M(v) is (prod_{j<i} exp(-v_j ad a_{s_j})) a_{s_i}.

For nilpotent algebras whose factor ordering makes M unit triangular in
the permuted basis, the system integrates by iterated quadratures; that
fast path is detected automatically and reproduces the closed forms of
the cataloged systems.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import LieAlgebra, bracket_coords, wn_matrix
from .errors import LieSysError, NumericsError, WNBreakdownError
from .groups import GroupChart, GroupElement, compose, exp_chart
from .numerics import (
    TimeGrid,
    Trajectory,
    cumulative_quadrature_samples,
    interp_columns,
    rk4_step,
)

_BREAKDOWN_COND = 1e10


class ControlSignal:
    """Vector of r time-dependent coefficient functions b_a(t).

    Channels may be closed-form callables, constants, or samples on a
    grid with linear interpolation; unused channels are zero.
    """

    def __init__(self, channels):
        self.channels = list(channels)

    @classmethod
    def constant(cls, values):
        vals = [float(v) for v in values]
        return cls([(lambda t, v=v: v) for v in vals])

    @classmethod
    def from_callable(cls, fn, r):
        """Wrap a single callable t -> vector of length r."""
        return cls([(lambda t, i=i: float(np.asarray(fn(t))[i])) for i in range(r)])

    @classmethod
    def sampled(cls, grid: TimeGrid, values):
        values = np.atleast_2d(np.asarray(values, dtype=float))
        if values.shape[0] != len(grid.nodes):
            values = values.T
        nodes = grid.nodes

        def make(i):
            col = values[:, i:i + 1]
            return lambda t: float(interp_columns(t, nodes, col)[0])

        return cls([make(i) for i in range(values.shape[1])])

    @classmethod
    def piecewise_constant(cls, breakpoints, values):
        bp = np.asarray(breakpoints, dtype=float)
        values = np.atleast_2d(np.asarray(values, dtype=float))

        def make(i):
            col = values[:, i]
            return lambda t: float(col[min(np.searchsorted(bp, t, side="right"), len(col) - 1)])

        return cls([make(i) for i in range(values.shape[1])])

    @property
    def dim(self):
        return len(self.channels)

    def __call__(self, t):
        return np.array([ch(t) for ch in self.channels])

    def pad(self, r, used=None):
        """Embed into r channels; `used` gives the target index per channel."""
        if used is None:
            used = list(range(self.dim))
        chans = [lambda t: 0.0] * r
        for i, target in enumerate(used):
            chans[target] = self.channels[i]
        return ControlSignal(chans)


@dataclass
class WNProblem:
    """A Wei-Norman integration problem on a structure-constant algebra."""

    algebra: LieAlgebra
    controls: ControlSignal
    grid: TimeGrid
    ordering: tuple | None = None   # 1-based permutation; identity if omitted

    def __post_init__(self):
        r = self.algebra.dim
        if self.ordering is None:
            self.ordering = tuple(range(1, r + 1))
        if sorted(self.ordering) != list(range(1, r + 1)):
            raise LieSysError("ordering must be a permutation of 1..r")
        if self.controls.dim != r:
            raise LieSysError("controls must provide one channel per basis element")


def _is_unit_triangular(alg, ordering, rng=None):
    """True when PM(v) is unit lower triangular for the permuted basis,
    probing random v (entries are polynomial in v, so probes suffice)."""
    rng = rng or np.random.default_rng(12345)
    perm = [idx - 1 for idx in ordering]
    for _ in range(3):
        v = rng.standard_normal(alg.dim)
        M = wn_matrix(alg, ordering, v)
        PM = M[perm, :]
        if np.max(np.abs(np.triu(PM, k=1))) > 0.0:
            return False
        if np.max(np.abs(np.diag(PM) - 1.0)) > 0.0:
            return False
    return True


def _wn_solve_quadrature(problem: WNProblem) -> Trajectory:
    # iterated cumulative Simpson; valid only for unit-triangular structure
    alg, ordering = problem.algebra, problem.ordering
    nodes = problem.grid.nodes
    r = alg.dim
    perm = [idx - 1 for idx in ordering]
    b_samples = np.array([problem.controls(t) for t in nodes])
    v = np.zeros((len(nodes), r))
    vdot = np.zeros((len(nodes), r))
    for i in range(r):
        rhs = b_samples[:, perm[i]].copy()
        if i > 0:
            # subtract sum_{j<i} PM[i, j] vdot_j, entries depend on v_{<j}
            for k, t in enumerate(nodes):
                M = wn_matrix(alg, ordering, v[k])
                rhs[k] -= float(M[perm[i], :i] @ vdot[k, :i])
        vdot[:, i] = rhs
        v[:, i] = cumulative_quadrature_samples(rhs, problem.grid)
    return Trajectory(problem.grid, v, meta="wei-norman")


def wn_solve(problem: WNProblem, method: str = "auto") -> Trajectory:
    """Integrate the Wei-Norman system with v(t0) = 0.

    method: 'auto' picks the quadrature fast path for nilpotent algebras
    with triangular orderings, else RK4; 'rk4' and 'quadrature' force one.
    A singular Wei-Norman matrix along the path raises WNBreakdownError
    carrying the breakdown time; the caller may re-order the factorization
    and restart.
    """
    alg = problem.algebra
    if method == "auto":
        fast = alg.nilpotency_index is not None and _is_unit_triangular(alg, problem.ordering)
        method = "quadrature" if fast else "rk4"
    if method == "quadrature":
        if not _is_unit_triangular(alg, problem.ordering):
            raise LieSysError("quadrature path requires a triangular ordering")
        return _wn_solve_quadrature(problem)

    nodes = problem.grid.nodes
    r = alg.dim
    v = np.zeros(r)
    out = np.empty((len(nodes), r))
    out[0] = v
    check_every = 20  # condition estimate is costly; sample it periodically
    counter = [0]

    def f(t, vv):
        if not np.all(np.isfinite(vv)) or np.max(np.abs(vv)) > 1e8:
            raise WNBreakdownError(t, np.inf)
        M = wn_matrix(alg, problem.ordering, vv)
        if counter[0] % check_every == 0:
            cond = np.linalg.cond(M)
            if not np.isfinite(cond) or cond > _BREAKDOWN_COND:
                raise WNBreakdownError(t, cond)
        counter[0] += 1
        try:
            return np.linalg.solve(M, problem.controls(t))
        except np.linalg.LinAlgError:
            raise WNBreakdownError(t, np.inf)

    for k in range(len(nodes) - 1):
        v = rk4_step(f, nodes[k], v, nodes[k + 1] - nodes[k])
        out[k + 1] = v
    return Trajectory(problem.grid, out, meta="wei-norman")


class GroupCurve:
    """A chart-tagged group-valued curve sampled on a grid.

    Off-node evaluation interpolates the chart coordinates linearly, which
    is consistent with the finite-difference log-derivative checks at the
    grid resolution.
    """

    def __init__(self, chart: GroupChart, grid: TimeGrid, coords: np.ndarray):
        self.chart = chart
        self.grid = grid
        self.coords = np.asarray(coords, dtype=float)

    def __call__(self, t: float) -> GroupElement:
        nodes = self.grid.nodes
        if t < nodes[0] or t > nodes[-1]:
            # cubic extrapolation through the four nearest nodes, so
            # stencil log-derivatives keep their order at the interval ends
            sl = slice(0, 4) if t < nodes[0] else slice(-4, None)
            tt = nodes[sl]
            c = np.empty(self.coords.shape[1])
            for i in range(self.coords.shape[1]):
                c[i] = np.polyval(np.polyfit(tt, self.coords[sl, i], 3), t)
            return GroupElement(self.chart, c)
        return GroupElement(self.chart, interp_columns(t, nodes, self.coords))

    def at_node(self, k: int) -> GroupElement:
        return GroupElement(self.chart, self.coords[k])

    @classmethod
    def from_elements(cls, grid, elements):
        chart = elements[0].chart
        return cls(chart, grid, np.stack([e.coords for e in elements]))


def wn_reconstruct(v: Trajectory, ordering, chart: GroupChart) -> GroupCurve:
    """g(t) = prod_i exp(-v_i(t) a_{s_i}) in the given chart; g(t0) = identity.

    A second-kind chart with the same ordering has those exponents as its
    coordinates by definition, so each node is -v(t) with no composition.
    """
    if chart.chart_kind == "canonical_second" and chart.ordering == tuple(ordering):
        return GroupCurve.from_elements(v.grid, [GroupElement(chart, -s) for s in v.states])
    elements = []
    for k in range(len(v.grid.nodes)):
        g = chart.identity()
        for i, idx in enumerate(ordering):
            g = compose(g, exp_chart(chart, idx - 1, -v.states[k, i]))
        elements.append(g)
    return GroupCurve.from_elements(v.grid, elements)


def flatness_residual(bfields, alg: LieAlgebra, x1_range, x2_range, n=21, h=1e-3):
    """Zero-curvature residual of a two-direction coefficient field.

    bfields is a callable (x1, x2) -> (2, r) array giving the algebra
    components of b_1 and b_2 at a base point; the residual is
    max over the grid of || d_1 b_2 - d_2 b_1 + [b_2, b_1] ||_inf.
    """
    xs = np.linspace(*x1_range, n)
    ys = np.linspace(*x2_range, n)
    worst = 0.0
    for x in xs:
        for y in ys:
            B = np.asarray(bfields(x, y), dtype=float)
            if not np.all(np.isfinite(B)):
                raise NumericsError("non-finite coefficient field")
            d1_b2 = (np.asarray(bfields(x + h, y))[1] - np.asarray(bfields(x - h, y))[1]) / (2 * h)
            d2_b1 = (np.asarray(bfields(x, y + h))[0] - np.asarray(bfields(x, y - h))[0]) / (2 * h)
            res = d1_b2 - d2_b1 + bracket_coords(alg, B[1], B[0])
            worst = max(worst, float(np.max(np.abs(res))))
    return worst
