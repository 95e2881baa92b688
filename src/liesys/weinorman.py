"""The generalized Wei-Norman engine.

For a right-invariant system dg/dt g^{-1} = -sum_a b_a(t) a_a the
solution through the identity is written as an ordered product of
one-parameter exponentials g(t) = prod_i exp(-v_i(t) a_{s_i}), and the
exponents satisfy  M(v) dv/dt = b(t)  with  v(0) = 0, where column i of
M(v) is (prod_{j<i} exp(-v_j ad a_{s_j})) a_{s_i}.

The exponents integrate by quadrature sweeps.  A sweep takes the integral
of the rates dv/dt = f(v) = M(v)^-1 b at given exponents: one batched M(v)
over the nodes, one guarded solve and one cumulative Simpson.  The rates
often depend on few exponents.  When they fall into dependency levels, the
first depending on no exponent and each later one only on earlier levels,
one sweep per level solves the system (a solvable algebra with a suitable
ordering: Wei & Norman, J. Math. Phys. 4 (1963) 575; Proc. AMS 15 (1964)
327).  The levels are probed once per algebra and ordering.  This
reproduces the closed forms of the cataloged systems: the nilpotent
triangular orderings and SE(2), whose angle comes first.

An ordering with a dependency cycle takes Picard sweeps over windows of
nodes, v <- v(t_a) + int_{t_a}^t f(v) (waveform relaxation: Lelarasmee,
Ruehli & Sangiovanni-Vincentelli, IEEE TCAD 1 (1982) 131).  A window is
accepted once a sweep's update falls to roundoff.  Windows start at 128
steps; one halves when its sweeps stop contracting or when the condition
guard fails on an iterate that has not converged, and the next window
doubles back toward 128 steps.  A two-step window that still fails is a
chart breakdown.  The sweeps need Simpson's rule, so on a non-uniform grid
a cyclic ordering integrates by RK4.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import LieAlgebra, bracket_coords, wn_matrix
from .errors import LieSysError, NumericsError, SingularMatrixError, WNBreakdownError
from .groups import GroupChart, GroupElement, _on_chart, _trivialize, exp_algebra
from .numerics import (  # rk4_step stays bound here: the span tests in perfbench patch it
    _BATCH_RTOL,
    _ROUNDOFF,
    _WINDOW,
    TimeGrid,
    Trajectory,
    cumulative_quadrature_samples,
    diff_samples,
    interp_columns,
    linsolve,
    rk4_stage_times,
    rk4_step,
    sweep_rk4,
)

_BREAKDOWN_COND = 1e10
# the dependency probe: random points, and the relative change of a rate
# that counts as a dependency (rounding moves an independent rate ~1e-16)
_PROBES = 3
_PROBE_RTOL = 1e-8
# Picard sweeps on cyclic orderings: windows of at most numerics._WINDOW
# steps halve down to two (Simpson needs two), a window may take at most
# _MAX_SWEEPS sweeps, and an update below numerics._ROUNDOFF relative to
# max(1, |v|) counts as roundoff
_MIN_WINDOW = 2
_MAX_SWEEPS = 40
_METHODS = ("auto", "rk4")


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
                np.abs(out[[0, -1]] - ends) <= _BATCH_RTOL * np.max(np.abs(ends))):
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

    def pad(self, r, used):
        """Embed into r channels; `used` gives the target index per channel.
        A signal that already has r channels is returned as it is; any other
        signal must have one channel per index of `used`, or ValueError
        names both counts."""
        if self.dim == r:
            return self
        if self.dim != len(used):
            raise ValueError(f"controls give {self.dim} channels; need one per driven index "
                             f"({len(used)}) or one per basis element ({r})")
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


def _dependency_levels(alg: LieAlgebra, ordering):
    """Which exponents each rate f_i(v) = (M(v)^-1 b)_i depends on, as
    levels of exponent positions (0-based): the first level depends on no
    exponent, each later one only on earlier levels.  A self-dependency or
    a cycle leaves no levels, and the result is None.  Cached on the algebra
    per ordering.

    The entries of M(v) are analytic in v, so three seeded random probes of
    v and b, each moving every v_j to a fresh random value in turn, find
    every dependency but on a set of measure zero; all the probe matrices
    come from one `wn_matrix` call."""
    ordering = tuple(int(i) for i in ordering)
    if ordering in alg._wn_levels:
        return alg._wn_levels[ordering]
    r = alg.dim
    rng = np.random.default_rng(12345)
    v = np.repeat(rng.standard_normal((_PROBES, 1, r)), r + 1, axis=1)
    v[:, np.arange(1, r + 1), np.arange(r)] = rng.standard_normal((_PROBES, r))
    b = rng.standard_normal((_PROBES, 1, r, 1))
    f = np.linalg.solve(wn_matrix(alg, ordering, v), b)[..., 0]
    moved = np.abs(f[:, 1:] - f[:, :1]) > _PROBE_RTOL * np.maximum(1.0, np.abs(f[:, :1]))
    depends = moved.any(axis=0).T             # depends[i, j]: f_i moves with v_j
    levels, placed = [], np.zeros(r, dtype=bool)
    while not placed.all():
        ready = ~placed & ~depends[:, ~placed].any(axis=1)
        if not ready.any():
            break
        levels.append(tuple(np.flatnonzero(ready).tolist()))
        placed |= ready
    alg._wn_levels[ordering] = tuple(levels) if placed.all() else None
    return alg._wn_levels[ordering]


def _reject_non_finite(x, what, nodes):
    bad = ~np.isfinite(x).reshape(len(x), -1).all(axis=1)
    if bad.any():
        k = int(np.argmax(bad))
        raise NumericsError(f"non-finite {what} at node {k} (t={nodes[k]:.6g})", t=nodes[k])


def _sweep(alg: LieAlgebra, ordering, v, b, grid: TimeGrid, cols):
    """The integral over `grid` of the rates M(v)^-1 b of the exponents
    `cols`, 0 at the first node: one batched M(v), one guarded solve and one
    cumulative quadrature.  v is one exponent vector or one per node of the
    grid; b has one row per node."""
    f = linsolve(wn_matrix(alg, ordering, v), b, _BREAKDOWN_COND)
    return cumulative_quadrature_samples(f[:, cols], grid)


def _wn_solve_levels(problem: WNProblem, b, levels) -> Trajectory:
    # later levels' exponents are still 0 in M(v) and do not enter; the first
    # level depends on no exponent, so M(0) serves every node
    alg, ordering, grid = problem.algebra, problem.ordering, problem.grid
    nodes = grid.nodes
    v = np.zeros(b.shape)
    for depth, level in enumerate(levels):
        try:
            v[:, level] = _sweep(alg, ordering, v if depth else v[0], b, grid, level)
        except SingularMatrixError as exc:
            k = exc.index[0]
            raise WNBreakdownError(nodes[k], exc.cond, node=k) from None
        _reject_non_finite(v[:, level], "exponent", nodes)
    return Trajectory(grid, v, meta="wei-norman")


def _picard(alg: LieAlgebra, ordering, v0, b, window: TimeGrid):
    """Picard sweeps v <- v0 + int f(v) over `window`, from the constant
    iterate v0: the first iterate whose update falls to roundoff, or None
    once the sweeps stop contracting, run past _MAX_SWEEPS or fail the
    guard."""
    w, last = v0, np.inf
    for _ in range(_MAX_SWEEPS):
        try:
            new = v0 + _sweep(alg, ordering, w, b, window, slice(None))
        except SingularMatrixError:
            return None
        update = np.max(np.abs(new - w))
        if update <= _ROUNDOFF * max(1.0, np.max(np.abs(new))):
            return new
        if not update < last:      # also catches NaN
            return None
        w, last = new, update
    return None


def _wn_solve_sweeps(problem: WNProblem, b) -> Trajectory:
    # windows of nodes a..e; fewer than _MIN_WINDOW steps left join the window
    alg, ordering, grid = problem.algebra, problem.ordering, problem.grid
    nodes, n = grid.nodes, len(grid.nodes) - 1
    v = np.zeros(b.shape)
    a, width = 0, _WINDOW
    while a < n:
        e = n if n - a - width < _MIN_WINDOW else a + width
        w = _picard(alg, ordering, v[a], b[a:e + 1], TimeGrid.uniform(nodes[a], nodes[e], e - a))
        if w is not None:
            v[a + 1:e + 1] = w[1:]
            a, width = e, min(2 * width, _WINDOW)
        elif width > _MIN_WINDOW:
            width //= 2
        else:
            cond = float(np.linalg.cond(wn_matrix(alg, ordering, v[a]), 1))
            raise WNBreakdownError(nodes[a], cond, node=a,
                                   what="Wei-Norman sweeps did not converge")
    return Trajectory(grid, v, meta="wei-norman")


def wn_solve(problem: WNProblem, method: str = "auto") -> Trajectory:
    """Integrate the Wei-Norman system with v(t0) = 0.

    method: 'auto' integrates by quadrature sweeps, each one batched M(v)
    over the nodes, one guarded solve and one cumulative quadrature.  When
    the rates of the ordering have dependency levels (probed once per
    algebra and ordering), one sweep per level solves them.  An ordering
    with a dependency cycle on a uniform grid of two steps or more takes
    Picard sweeps v <- v(t_a) + int_{t_a}^t M(v)^-1 b over windows of at
    most 128 steps; a window is accepted once a sweep's update falls to
    roundoff.  A window halves when its sweeps stop contracting (or run past
    a cap) or when the guard fails on an unconverged iterate, and the next
    window doubles back toward 128 steps.  On any other grid a cyclic
    ordering runs RK4 (by `numerics.sweep_rk4`): the second-order trapezoid
    is the only quadrature rule there.  'rk4' forces RK4.  Any other method
    raises LieSysError.

    The controls are sampled once: at the nodes for quadrature, at the RK4
    stage times otherwise; non-finite samples, and non-finite exponents on
    the levelled path, raise NumericsError naming the node.  The condition
    guard of `linsolve` checks every M(v) solve.  On levels and RK4 its
    failure raises WNBreakdownError carrying the time (for levels also the
    node) and the condition number; the caller may re-order the
    factorization and restart.  On the cyclic sweeps, a two-step window
    that still fails raises WNBreakdownError at its first node, the last
    one solved, stating that the sweeps did not converge and carrying the
    1-norm condition of M(v) there.
    """
    if method not in _METHODS:
        raise LieSysError(f"unknown Wei-Norman method {method!r}; use one of "
                          f"{', '.join(map(repr, _METHODS))}")
    alg, grid = problem.algebra, problem.grid
    if method == "auto":
        levels = _dependency_levels(alg, problem.ordering)
        if levels is not None or (grid.uniform_dt is not None and len(grid.nodes) > _MIN_WINDOW):
            b = problem.controls(grid.nodes)
            _reject_non_finite(b, "control sample", grid.nodes)
            if levels is not None:
                return _wn_solve_levels(problem, b, levels)
            return _wn_solve_sweeps(problem, b)

    def f(t, v, b):
        big = ~(np.abs(v).max(axis=-1) <= 1e8)   # also catches NaN
        if big.any():
            raise WNBreakdownError(t[np.argmax(big)], np.inf)
        try:
            return linsolve(wn_matrix(alg, problem.ordering, v), b, _BREAKDOWN_COND)
        except SingularMatrixError as exc:
            raise WNBreakdownError(t[exc.index[0]], exc.cond)

    table = problem.controls(rk4_stage_times(grid))
    return sweep_rk4(f, np.zeros(alg.dim), grid, table, "wei-norman")


class GroupCurve:
    """A chart-tagged group-valued curve sampled on a grid.

    Off-node evaluation stays on the group: at time t the curve is
    exp((t - t_j) xi_j) g_j, where t_j is the nearest node (the earlier one
    at equal distance) and xi_j = (dg/dt) g^{-1} is the curve's right
    log-derivative there.  The same rule extends the curve beyond either
    end.  xi_j comes from second-order differences of the node coordinates
    (`diff_samples`, each coordinate step taken through the chart's wrap),
    mapped to the algebra by `_trivialize`; all nodes go through one pass on
    the first off-node call, and the result is kept on the curve.  Between
    nodes the curve is second-order accurate, like linear interpolation,
    and the two neighbours' rules agree at the midpoint to third order.
    """

    def __init__(self, chart: GroupChart, grid: TimeGrid, coords: np.ndarray):
        self.chart = chart
        self.grid = grid
        self.coords = np.asarray(coords, dtype=float)
        self._log_derivatives = None

    def __call__(self, t: float) -> GroupElement:
        nodes = self.grid.nodes
        j = int(np.clip(np.searchsorted(nodes, t), 1, len(nodes) - 1))
        if t - nodes[j - 1] <= nodes[j] - t:
            j -= 1
        if t == nodes[j]:
            return GroupElement(self.chart, self.coords[j])
        if self._log_derivatives is None:
            self._log_derivatives = self.node_log_derivatives(diff_samples)
        step = exp_algebra(self.chart, (t - nodes[j]) * self._log_derivatives[j])
        return GroupElement(self.chart, self.chart.compose_fn(step, self.coords[j]))

    def node_log_derivatives(self, diff) -> np.ndarray:
        """The right log-derivative (dg/dt) g^{-1} at every node, (n, r).

        dg/dt is `diff` (`diff_samples` or `diff_samples4`) of the node
        coordinates, each coordinate step taken through the chart's wrap so
        that a wrapped angle moves continuously; `_trivialize` maps it to
        the algebra, all nodes in one pass."""
        dt = self.grid.uniform_dt
        if dt is None:
            raise NumericsError("a curve's log-derivatives at its nodes need a uniform grid")
        steps = np.diff(self.coords, axis=0)
        if self.chart.wrap_fn is not None:
            steps = self.chart.wrap_fn(steps)
        unwrapped = np.concatenate([self.coords[:1], self.coords[0] + np.cumsum(steps, axis=0)])
        return _trivialize(self.chart, self.coords, diff(unwrapped, dt), left=False)

    def at_node(self, k: int) -> GroupElement:
        return GroupElement(self.chart, self.coords[k])


def wn_reconstruct(v: Trajectory, ordering, chart: GroupChart) -> GroupCurve:
    """g(t) = prod_i exp(-v_i(t) a_{s_i}) in the given chart; g(t0) = identity.

    The factors exp(-v_i(t) a_{s_i}) of every node come from one
    `exp_algebra` call, they are multiplied with batched chart laws, and the
    nodes are checked against the chart once; a failure names the node and
    its time.  A second-kind chart with the same ordering has those
    exponents as its coordinates by definition, so each node is -v(t) with
    no composition.
    """
    if chart.chart_kind == "canonical_second" and chart.ordering == tuple(ordering):
        coords = -v.states
    else:
        r = len(ordering)
        xi = np.zeros((r,) + v.states.shape)
        xi[np.arange(r), :, np.asarray(ordering) - 1] = -v.states.T
        factors = exp_algebra(chart, xi)
        coords = factors[0]
        for factor in factors[1:]:
            coords = chart.compose_fn(coords, factor)
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
