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
from .errors import LieSysError, NumericsError, SingularMatrixError, WNBreakdownError
from .groups import GroupChart, GroupElement, _on_chart, exp_coords
from .numerics import (  # rk4_step stays bound here: the span tests in perfbench patch it
    TimeGrid,
    Trajectory,
    cumulative_quadrature_samples,
    integrate_rk4,
    interp_columns,
    linsolve,
    rk4_stage_times,
    rk4_step,
)

_BREAKDOWN_COND = 1e10
# an array result must agree with the scalar calls to this relative error
_MATCH_RTOL = 1e-12


def _channel_on_times(ch, t):
    """One channel on a 1-D array of times, as an array of t's shape.

    The channel is called on the whole array first.  The result counts only
    if its shape is t.shape or () and it matches scalar calls at the first
    and last time; otherwise (a scalar-only callable such as math.sin, or
    one whose array result means something else) the channel is called once
    per time."""
    try:
        out = np.asarray(ch(t), dtype=float)
    except (TypeError, ValueError):   # math.sin(array), `if t < 0.5` on an array
        out = None
    if out is not None and out.shape in (t.shape, ()) and t.size:
        out = np.broadcast_to(out, t.shape)
        ends = np.array([ch(t[0]), ch(t[-1])], dtype=float)
        if ends.shape == (2,) and np.all(
                np.abs(out[[0, -1]] - ends) <= _MATCH_RTOL * np.max(np.abs(ends))):
            return out
    return np.array([ch(s) for s in t], dtype=float)


def _spec_channels(part):
    """The channels of one ';'-separated control spec part; each takes a
    scalar or an array of times."""
    if part.startswith("const:"):
        return [(lambda t, v=float(v): v) for v in part[6:].split(",")]
    if part.startswith("sin:"):
        nums = [float(v) for v in part[4:].split(",")]
        amp, freq = nums[0], nums[1]
        phase = nums[2] if len(nums) > 2 else 0.0
        return [lambda t, a=amp, f=freq, p=phase: a * np.sin(2 * np.pi * f * t + p)]
    raise ValueError(f"cannot parse control spec {part!r}")


class ControlSignal:
    """Vector of r time-dependent coefficient functions b_a(t).

    Channels may be closed-form callables, constants, or samples on a
    grid with linear interpolation; unused channels are zero.

    Called on a scalar time it returns the (r,) vector b(t).  Called on a
    1-D array of m times it returns the (m, r) array whose row j is b(t[j]),
    calling each channel once on the whole array; the channels the
    constructors here build (constant, sampled, piecewise constant, parsed
    specs, padding zeros) all take arrays.  Each array result is checked
    against scalar calls at the first and last time (`_channel_on_times`),
    and a channel whose array result is not the per-time one, such as a
    scalar-only callable, is called once per time instead.
    """

    def __init__(self, channels):
        self.channels = list(channels)

    @classmethod
    def constant(cls, values):
        return cls([(lambda t, v=float(v): v) for v in values])

    @classmethod
    def from_callable(cls, fn, r):
        """Wrap a single callable t -> vector of length r."""
        return cls([(lambda t, i=i: np.asarray(fn(t), dtype=float)[i]) for i in range(r)])

    @classmethod
    def sampled(cls, grid: TimeGrid, values):
        values = np.atleast_2d(np.asarray(values, dtype=float))
        if values.shape[0] != len(grid.nodes):
            values = values.T
        nodes = grid.nodes

        def make(i):
            col = values[:, i:i + 1]
            return lambda t: interp_columns(t, nodes, col)[..., 0]

        return cls([make(i) for i in range(values.shape[1])])

    @classmethod
    def piecewise_constant(cls, breakpoints, values):
        bp = np.asarray(breakpoints, dtype=float)
        values = np.atleast_2d(np.asarray(values, dtype=float))

        def make(i):
            col = values[:, i]
            return lambda t: col[np.minimum(np.searchsorted(bp, t, side="right"), len(col) - 1)]

        return cls([make(i) for i in range(values.shape[1])])

    @classmethod
    def from_spec(cls, spec: str):
        """Parse the control grammar: per-channel specs separated by ';',
        each one of const:v | sin:amp,freq[,phase] | a flat const:v1,v2,...
        vector, or file:<path> with columns t,b1,...,bn (sampled, linear
        between rows)."""
        if spec.startswith("file:"):
            data = np.loadtxt(spec[5:], delimiter=",", skiprows=1, ndmin=2)
            return cls.sampled(TimeGrid.from_nodes(data[:, 0]), data[:, 1:])
        return cls([ch for part in spec.split(";") for ch in _spec_channels(part.strip())])

    @property
    def dim(self):
        return len(self.channels)

    def __call__(self, t):
        if np.ndim(t) == 0:
            return np.array([ch(t) for ch in self.channels], dtype=float)
        t = np.asarray(t, dtype=float)
        return np.stack([_channel_on_times(ch, t) for ch in self.channels], axis=-1)

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
    # iterated cumulative Simpson; valid only for unit-triangular structure.
    # Row perm[i] of PM(v) depends only on v_<i, so once those exponents are
    # known, exponent i's correction comes from one M(v) over all nodes.
    alg, ordering = problem.algebra, problem.ordering
    r = alg.dim
    perm = [idx - 1 for idx in ordering]
    b_samples = problem.controls(problem.grid.nodes)
    v = np.zeros(b_samples.shape)
    vdot = np.zeros(b_samples.shape)
    for i in range(r):
        rhs = b_samples[:, perm[i]].copy()
        if i > 0:
            # subtract sum_{j<i} PM[i, j] vdot_j
            M = wn_matrix(alg, ordering, v)
            rhs -= np.einsum("kj,kj->k", M[:, perm[i], :i], vdot[:, :i])
        vdot[:, i] = rhs
        v[:, i] = cumulative_quadrature_samples(rhs, problem.grid)
    return Trajectory(problem.grid, v, meta="wei-norman")


def wn_solve(problem: WNProblem, method: str = "auto") -> Trajectory:
    """Integrate the Wei-Norman system with v(t0) = 0.

    method: 'auto' picks the quadrature fast path for nilpotent algebras
    with triangular orderings, else RK4; 'rk4' and 'quadrature' force one.
    The controls are sampled once: at the nodes for quadrature, at the RK4
    stage times otherwise.  Every RK4 stage solves M(v) dv/dt = b through
    `linsolve`, whose condition guard raises WNBreakdownError carrying the
    stage time and the condition number when M(v) nears singularity; the
    caller may re-order the factorization and restart.
    """
    alg = problem.algebra
    if method == "auto":
        fast = alg.nilpotency_index is not None and _is_unit_triangular(alg, problem.ordering)
        method = "quadrature" if fast else "rk4"
    if method == "quadrature":
        if not _is_unit_triangular(alg, problem.ordering):
            raise LieSysError("quadrature path requires a triangular ordering")
        return _wn_solve_quadrature(problem)

    def f(t, v, b):
        if not np.abs(v).max() <= 1e8:   # also catches NaN
            raise WNBreakdownError(t, np.inf)
        try:
            return linsolve(wn_matrix(alg, problem.ordering, v), b, _BREAKDOWN_COND)
        except SingularMatrixError as exc:
            raise WNBreakdownError(t, exc.cond)

    table = problem.controls(rk4_stage_times(problem.grid))
    return integrate_rk4(f, np.zeros(alg.dim), problem.grid, "wei-norman", table)


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


def wn_reconstruct(v: Trajectory, ordering, chart: GroupChart) -> GroupCurve:
    """g(t) = prod_i exp(-v_i(t) a_{s_i}) in the given chart; g(t0) = identity.

    Each factor's one-parameter subgroup is built over the whole grid in one
    call, the factors are multiplied with batched chart laws, and the nodes
    are checked against the chart once; a failure names the node and its
    time.  A second-kind chart with the same ordering has those exponents as
    its coordinates by definition, so each node is -v(t) with no composition.
    """
    if chart.chart_kind == "canonical_second" and chart.ordering == tuple(ordering):
        coords = -v.states
    else:
        coords = None
        for i, idx in enumerate(ordering):
            factor = exp_coords(chart, idx - 1, -v.states[:, i])
            coords = factor if coords is None else chart.compose_fn(coords, factor)
    coords = _on_chart(chart, coords, "reconstruction", v.grid.nodes)
    return GroupCurve(chart, v.grid, coords)


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
