"""The generalized Wei-Norman engine.

For a right-invariant system dg/dt g^{-1} = -sum_a b_a(t) a_a the
solution through the identity is written as an ordered product of
one-parameter exponentials g(t) = prod_i exp(-v_i(t) a_{s_i}), and the
exponents satisfy  M(v) dv/dt = b(t)  with  v(0) = 0, where column i of
M(v) is (prod_{j<i} exp(-v_j ad a_{s_j})) a_{s_i}.

The exponents integrate by quadrature sweeps.  A sweep takes the integral
of the rates dv/dt = f(v) = M(v)^-1 b at given exponents: one M(v) per node
from one `wn_matrix` call (elementwise over the nodes, from the nonzero
entries of the factors' closed forms), one stacked solve and one
cumulative Simpson.  The rates often depend on few exponents.  When they
fall into dependency levels, the first depending on no exponent and each
later one only on earlier levels, one sweep per level solves the system
(a solvable algebra with a suitable ordering: Wei & Norman, J. Math. Phys.
4 (1963) 575; Proc. AMS 15 (1964) 327).  The levels are probed once per
algebra and ordering.  This
reproduces the closed forms of the cataloged systems: the nilpotent
triangular orderings and SE(2), whose angle comes first.

An ordering with a dependency cycle takes Picard sweeps
v <- v(t_a) + int_{t_a}^t f(v) behind a sliding frontier t_a, by
`numerics.picard_windows` (the `numerics` docstring gives the settled
prefix, the even-step rule, the failure rule and the grow-back).  A
two-step window that still fails runs by RK4 over its own nodes.  Where
a chart with a closed-form map to second-kind coordinates is filed for the
algebra and the ordering (`groups.second_kind_chart`), the windows start
from a first iterate taken from the group: the fourth-order Magnus curve
of A = -b on that chart (`groups.magnus_scan`), mapped to exponents.  It
lies about 1e-12 from the answer and cuts the sweeps from about 30 to
10-16; as the commit rule still waits for roundoff, it changes only the
sweep count and the exponents' last bits.  Any other algebra and ordering
start flat.  The sweeps need Simpson's rule, so on a non-uniform grid a
cyclic ordering integrates by RK4 throughout.  A chart breakdown is one rule on every
route: an M(v) that fails the condition guard of `linsolve`.  The levels and
the RK4 stages guard every solve.  The cyclic sweeps solve unguarded, by
`stack_solve`, as only the rows a sweep commits enter the answer: a
singular matrix in the stack gives non-finite rates from its node on, which
fail only its window, and after the sweeps the guard checks each node's
M(v) once, at the solved exponents.  Both solves pick their route from the
stack (`numerics.linsolve`): M(v) of a nilpotent triangular ordering is
unit lower-triangular and solves by forward substitution, an r = 3 M(v) by
its adjugate unless its cofactors cancel, and any other by LAPACK.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import LieAlgebra, bracket_coords, wn_matrix
from .errors import DimensionError, NumericsError, SingularMatrixError, WNBreakdownError
from .groups import (
    GroupChart,
    GroupElement,
    _on_chart,
    _trivialize,
    exp_algebra,
    exp_basis,
    magnus_scan,
    second_kind_chart,
)
from .numerics import (  # rk4_step stays bound here: the span tests in perfbench patch it
    _BATCH_RTOL,
    TimeGrid,
    Trajectory,
    cubic_midpoints,
    cumulative_quadrature_samples,
    diff_samples,
    interp_columns,
    linsolve,
    picard_windows,
    rk4_stage_times,
    rk4_step,
    stack_solve,
    sweep_rk4,
)

# the dependency probe: random points, and the relative change of a rate
# that counts as a dependency (rounding moves an independent rate ~1e-16)
_PROBES = 3
_PROBE_RTOL = 1e-8


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
    """The channels of one ';'-separated control spec part, const:v1[,v2...]
    or sin:amp,freq[,phase]; each takes a scalar or an array of times.  Any
    other part, or a number that does not parse, is a ValueError naming the
    part and both forms."""
    kind, _, text = part.partition(":")
    try:
        nums = [float(v) for v in text.split(",")]
    except ValueError:
        nums = []
    if kind == "const" and nums:
        return [(lambda t, v=v: v) for v in nums]
    if kind == "sin" and len(nums) in (2, 3):
        amp, freq, phase = (nums + [0.0])[:3]
        return [lambda t, a=amp, f=freq, p=phase: a * np.sin(2 * np.pi * f * t + p)]
    raise ValueError(f"cannot parse control spec {part!r}: "
                     "expected const:v1[,v2...] or sin:amp,freq[,phase]")


class ControlSignal:
    """Vector of r time-dependent coefficient functions b_a(t).

    Channels may be closed-form callables, constants, or samples on a
    grid with linear interpolation; unused channels are zero.

    Called on a scalar time it returns the (r,) vector b(t).  Called on a
    1-D array of m times it returns the (m, r) array whose row j is b(t[j]),
    calling each channel once on the whole array; the channels the
    constructors here build (constant, sampled, parsed specs, padding
    zeros) all take arrays.  Each array result is checked
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
    def from_spec(cls, spec: str):
        """Parse the control grammar: per-channel specs separated by ';',
        each one of const:v | sin:amp,freq[,phase] | a flat const:v1,v2,...
        vector, or file:<path> with columns t,b1,...,bn (sampled, linear
        between rows)."""
        if spec.startswith("file:"):
            data = Trajectory.from_csv(spec[5:])
            return cls.sampled(data.grid, data.states)
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
        """Embed into r channels; `used` gives the 0-based target index of
        each channel, and every other channel is zero.  Any count but one
        channel per index of `used` is a ValueError naming the driven
        channels: the closed-form fixtures read only those."""
        if self.dim != len(used):
            raise ValueError(f"controls give {self.dim} channels; need one per driven index "
                             f"({len(used)}): channels {[i + 1 for i in used]} of {r}")
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
            raise ValueError(f"ordering must be a permutation of 1..{r}, got {self.ordering}")
        if self.controls.dim != r:
            raise ValueError(f"controls give {self.controls.dim} channels; need one per basis "
                             f"element ({r})")


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


def _sweep(alg: LieAlgebra, ordering, v, b, grid: TimeGrid, cols, guarded):
    """The integral over `grid` of the rates M(v)^-1 b of the exponents
    `cols`, 0 at the first node: one `wn_matrix` call over the nodes, one
    stacked solve and one cumulative quadrature.  v is one exponent vector
    or one per node of the grid; b has one row per node.  A guarded solve
    is `linsolve`'s; an unguarded one is `stack_solve`'s, where a singular
    matrix gives non-finite rates from its node on instead of an error."""
    M = wn_matrix(alg, ordering, v)
    f = linsolve(M, b) if guarded else stack_solve(M, b)
    return cumulative_quadrature_samples(f[:, cols], grid)


def _node_breakdown(exc: SingularMatrixError, nodes):
    """The WNBreakdownError of a guard failure on a stack of one M(v) per node."""
    k = exc.index[0]
    return WNBreakdownError(nodes[k], exc.cond, node=k)


def _wn_solve_levels(problem: WNProblem, b, levels) -> Trajectory:
    # later levels' exponents are still 0 in M(v) and do not enter; the first
    # level depends on no exponent, so M(0) serves every node
    alg, ordering, grid = problem.algebra, problem.ordering, problem.grid
    nodes = grid.nodes
    v = np.zeros(b.shape)
    for depth, level in enumerate(levels):
        try:
            v[:, level] = _sweep(alg, ordering, v if depth else v[0], b, grid, level, True)
        except SingularMatrixError as exc:
            raise _node_breakdown(exc, nodes) from None
        _reject_non_finite(v[:, level], "exponent", nodes)
    return Trajectory(grid, v, meta="wei-norman")


def _group_first_iterate(problem: WNProblem, b):
    """The exponents of the group's Magnus curve over the problem's uniform
    grid, or None where no chart is filed for the algebra and the ordering
    (`second_kind_chart`) or the grid has fewer than four nodes.

    The curve is `magnus_scan` of A = -b on the filed chart, its midpoints
    from the node samples by `cubic_midpoints`, and the chart's map takes
    it to the second-kind coordinates x of the ordering, which are -v
    (`wn_reconstruct`).  A hyperbolic drive can take the curve past
    overflow, and a point can leave the map's domain: such rows are not
    finite, and their windows start flat."""
    filed = second_kind_chart(problem.algebra, problem.ordering)
    if filed is None or len(b) < 4:
        return None
    chart, to_second = filed
    with np.errstate(all="ignore"):
        return -to_second(magnus_scan(chart, -b, cubic_midpoints(-b), problem.grid.uniform_dt))


def _wn_solve_sweeps(problem: WNProblem, b) -> Trajectory:
    # the sweeps solve unguarded, as only committed rows enter the answer;
    # the guard then checks each node's M(v) once, at the solved exponents
    alg, ordering, nodes = problem.algebra, problem.ordering, problem.grid.nodes

    def sweep(a, e, w):
        gw = TimeGrid.uniform(nodes[a], nodes[e], e - a)
        return w[0] + _sweep(alg, ordering, w, b[a:e + 1], gw, slice(None), False)

    def stuck(a, e, va):
        return _wn_solve_rk4(problem, va, TimeGrid.from_nodes(nodes[a:e + 1])).states

    first = _group_first_iterate(problem, b)
    v = picard_windows(sweep, np.zeros(alg.dim), len(nodes) - 1, False, stuck, first)
    try:
        linsolve(wn_matrix(alg, ordering, v), b)
    except SingularMatrixError as exc:
        raise _node_breakdown(exc, nodes) from None
    return Trajectory(problem.grid, v, meta="wei-norman")


def _wn_solve_rk4(problem: WNProblem, v0, grid: TimeGrid) -> Trajectory:
    """The exponents from v0 over `grid` by RK4 (`numerics.sweep_rk4`), the
    controls sampled once at `rk4_stage_times(grid)`.  An M(v) solve that
    fails the condition guard raises WNBreakdownError carrying the stage's
    time and the condition number."""
    alg, ordering = problem.algebra, problem.ordering

    def f(t, v, b):
        try:
            return linsolve(wn_matrix(alg, ordering, v), b)
        except SingularMatrixError as exc:
            raise WNBreakdownError(t[exc.index[0]], exc.cond)

    table = problem.controls(rk4_stage_times(grid))
    return sweep_rk4(f, v0, grid, table, "wei-norman")


def wn_solve(problem: WNProblem) -> Trajectory:
    """Integrate the Wei-Norman system with v(t0) = 0.

    The exponents integrate by quadrature sweeps, each one `wn_matrix`
    call over the nodes, one stacked solve and one cumulative quadrature.
    When the rates of the ordering have dependency levels (probed once per
    algebra and ordering), one sweep per level solves them.  An ordering
    with a dependency cycle on a uniform grid of two steps or more takes
    Picard sweeps v <- v(t_a) + int_{t_a}^t M(v)^-1 b behind a sliding
    frontier t_a (`numerics.picard_windows` gives the rules; windows halve
    down to two steps, and a two-step window that still fails runs by RK4
    over its own nodes).  Where `groups.second_kind_chart` files a chart
    for the algebra and the ordering, the windows start from the group's
    Magnus curve on it mapped to exponents (`_group_first_iterate`), which
    changes only the sweep count and the exponents' last bits; any other
    windows start flat.  On any other grid a cyclic ordering runs RK4 (by
    `numerics.sweep_rk4`): the second-order trapezoid is the only
    quadrature rule there.  On a coarse grid the quadrature trails RK4:
    on sl2 with b = (3 cos t, 0, -3 cos t) over [0, 6] at dt = 0.003, the
    sweeps are 1.3e-9 from an RK4 solve on an 8x finer grid, RK4 on the
    same grid 1.5e-10; at the default 2000 steps per unit time both stay
    near 1e-12.

    The controls are sampled once: at the nodes for quadrature, at the RK4
    stage times otherwise; non-finite samples, and non-finite exponents on
    the levelled path, raise NumericsError naming the node.  The condition
    guard of `linsolve` checks every M(v) solve of the levels and of the
    RK4 stages, and each node's M(v) once at the exponents the cyclic sweeps
    solved; the sweeps themselves solve unguarded, and a singular matrix
    in a sweep's stack gives non-finite rates, which fail only its window.
    A guard failure raises WNBreakdownError carrying the time (on the
    levels and after the sweeps also the node) and the condition number it
    measured; the caller may re-order the factorization and restart.  A
    window of sweeps that stalls is no breakdown by itself: the RK4 that
    takes it over raises only where the guard does.
    """
    alg, grid = problem.algebra, problem.grid
    levels = _dependency_levels(alg, problem.ordering)
    if levels is None and (grid.uniform_dt is None or len(grid.nodes) < 3):
        return _wn_solve_rk4(problem, np.zeros(alg.dim), grid)
    b = problem.controls(grid.nodes)
    _reject_non_finite(b, "control sample", grid.nodes)
    if levels is not None:
        return _wn_solve_levels(problem, b, levels)
    return _wn_solve_sweeps(problem, b)


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
        if self.coords.shape != (len(grid.nodes), chart.coord_dim):
            raise DimensionError(f"curve coordinates have shape {self.coords.shape}, not "
                                 f"{(len(grid.nodes), chart.coord_dim)} (nodes, coord_dim)")
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

    def coordinate_velocity(self, diff) -> np.ndarray:
        """dg/dt in chart coordinates at every node, (n, d): `diff`
        (`diff_samples` or `diff_samples4`) of the node coordinates on the
        curve's uniform grid, each coordinate step taken through the chart's
        wrap so that a wrapped angle moves continuously."""
        dt = self.grid.uniform_step("a curve's coordinate velocity at its nodes")
        steps = np.diff(self.coords, axis=0)
        if self.chart.wrap_fn is not None:
            steps = self.chart.wrap_fn(steps)
        return diff(np.concatenate([self.coords[:1], self.coords[0] + np.cumsum(steps, axis=0)]), dt)

    def node_log_derivatives(self, diff) -> np.ndarray:
        """The right log-derivative (dg/dt) g^{-1} at every node, (n, r):
        `coordinate_velocity(diff)` mapped to the algebra by `_trivialize`,
        all nodes in one pass."""
        return _trivialize(self.chart, self.coords, self.coordinate_velocity(diff), left=False)

    def at_node(self, k: int) -> GroupElement:
        return GroupElement(self.chart, self.coords[k])


def wn_reconstruct(v: Trajectory, ordering, chart: GroupChart) -> GroupCurve:
    """g(t) = prod_i exp(-v_i(t) a_{s_i}) in the given chart; g(t0) = identity.

    Each factor exp(-v_i(t) a_{s_i}) comes from one `exp_basis` call over
    all nodes (on a matrix chart the closed-form one-parameter exponential
    of the representation matrix, where it has one), the factors are
    multiplied with batched chart laws, and the nodes are checked against
    the chart once; a failure names the node and its time.  A second-kind
    chart with the same ordering has those exponents as its coordinates by
    definition, so each node is -v(t) with no composition.
    """
    if chart.chart_kind == "canonical_second" and chart.ordering == tuple(ordering):
        coords = -v.states
    else:
        coords = exp_basis(chart, ordering[0] - 1, -v.states[:, 0])
        for i, idx in enumerate(ordering[1:], 1):
            coords = chart.compose_fn(coords, exp_basis(chart, idx - 1, -v.states[:, i]))
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
