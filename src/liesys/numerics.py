"""Shared numerics: fixed-step RK4, composite quadrature, central
differences and a dense small linear solve.

Everything here is deliberately plain: uniform grids keep trajectory
comparisons node-exact, which is what the test suite relies on.

Time-dependent inputs of an RK4 solve are sampled once, as a stage table:
rows at `rk4_stage_times(grid)`, the nodes interleaved with the step
midpoints.  `integrate_rk4` hands step k the rows 2k, 2k+1 and 2k+2 (the
stage times t_k, t_k + dt_k/2 and t_{k+1}), so the right-hand side never
evaluates its inputs itself.

`sweep_rk4` runs the library's RK4 solves by Picard sweeps over windows
of at most `_WINDOW` steps (waveform relaxation: Lelarasmee, Ruehli &
Sangiovanni-Vincentelli, IEEE TCAD 1 (1982) 131).  A sweep evaluates the
four stages once over the whole window and rebuilds it as one running sum
of the step increments, the loop's float operations in its order; a window
is accepted when a sweep leaves it bitwise unchanged.  After k sweeps the
first k steps are exact, so one sweep more than the window's steps always
suffices.  A window whose updates stop shrinking above roundoff, or one of
whose stages raises, runs by `integrate_rk4` one state at a time, which
names any failure as the loop does.  The right-hand side takes batches, so
realizations give batched `fields` and `domain`, and reductions a batched
`hom_rhs`; `batch_guard` checks them at construction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import LieSysError, NumericsError, SingularMatrixError

# Default resolution: 2000 uniform steps per unit time. All quoted
# tolerances in the tests assume this.
STEPS_PER_UNIT_TIME = 2000
# Picard sweeps (here and in the Wei-Norman engine): the widest window in
# steps, and the update, relative to max(1, |x|), that counts as roundoff
_WINDOW = 128
_ROUNDOFF = 64 * np.finfo(float).eps
# a batched call must agree with the single-row calls to this relative error
_BATCH_RTOL = 1e-12


@dataclass(frozen=True)
class TimeGrid:
    """Integration grid, either uniform (t0, t1, n_steps) or explicit nodes."""

    t0: float
    t1: float
    n_steps: int | None = None
    nodes_: np.ndarray | None = field(default=None, repr=False)
    # the node array, built once and read-only so no caller can change it
    _nodes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.nodes_ is not None:
            nodes = np.array(self.nodes_, dtype=float)
            if nodes.ndim != 1 or len(nodes) < 2 or np.any(np.diff(nodes) <= 0):
                raise NumericsError("grid nodes must be strictly increasing")
            object.__setattr__(self, "nodes_", nodes)
        else:
            if not (self.t1 > self.t0):
                raise NumericsError("need t0 < t1")
            if self.n_steps is None or self.n_steps < 1:
                raise NumericsError("n_steps must be a positive integer")
            nodes = np.linspace(self.t0, self.t1, self.n_steps + 1)
        nodes.flags.writeable = False
        object.__setattr__(self, "_nodes", nodes)

    @classmethod
    def uniform(cls, t0, t1, n_steps=None):
        if n_steps is None:
            n_steps = max(1, int(round(STEPS_PER_UNIT_TIME * (t1 - t0))))
        return cls(float(t0), float(t1), int(n_steps))

    @classmethod
    def from_nodes(cls, nodes):
        nodes = np.asarray(nodes, dtype=float)
        return cls(float(nodes[0]), float(nodes[-1]), None, nodes)

    @property
    def nodes(self) -> np.ndarray:
        return self._nodes

    @property
    def uniform_dt(self) -> float | None:
        if self.nodes_ is None:
            return (self.t1 - self.t0) / self.n_steps
        dts = np.diff(self.nodes_)
        if np.allclose(dts, dts[0], rtol=1e-12, atol=1e-15):
            return float(dts[0])
        return None


@dataclass
class Trajectory:
    """Sampled states on a grid; states has shape (n_nodes, dim)."""

    grid: TimeGrid
    states: np.ndarray
    meta: str = ""

    def __post_init__(self):
        self.states = np.atleast_2d(np.asarray(self.states, dtype=float))
        if self.states.shape[0] != len(self.grid.nodes):
            raise NumericsError("state count must equal node count")

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    def component(self, i: int) -> np.ndarray:
        return self.states[:, i]

    def at(self, t: float) -> np.ndarray:
        """Linear interpolation between nodes."""
        return interp_columns(t, self.grid.nodes, self.states)

    def to_csv(self, path):
        header = "t," + ",".join(f"x{i+1}" for i in range(self.dim))
        data = np.column_stack([self.grid.nodes, self.states])
        np.savetxt(path, data, delimiter=",", header=header, comments="")

    def to_json(self, path):
        payload = {
            "t": self.grid.nodes.tolist(),
            "states": self.states.tolist(),
            "meta": self.meta,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)

    @classmethod
    def from_csv(cls, path):
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        grid = TimeGrid.from_nodes(data[:, 0])
        return cls(grid, data[:, 1:])


def interp_columns(t, nodes, samples) -> np.ndarray:
    """np.interp(t, nodes, samples[:, j]) for every column of an (n, m)
    sample array, with one search: the value at a node is that node's row,
    t beyond either end takes the end row, and between nodes
    slope * (t - nodes[j]) + samples[j] as np.interp computes it.  An array
    of times gives one row per time, (..., m)."""
    t = np.asarray(t, dtype=float)
    last = len(nodes) - 1
    j = np.searchsorted(nodes, t, side="right") - 1
    lo = np.clip(j, 0, last - 1)
    slope = (samples[lo + 1] - samples[lo]) / (nodes[lo + 1] - nodes[lo])[..., None]
    between = slope * (t - nodes[lo])[..., None] + samples[lo]
    on_row = (j < 0) | (j == last) | (nodes[np.clip(j, 0, last)] == t)
    return np.where(on_row[..., None], samples[np.clip(j, 0, last)], between)


def rk4_stage_times(grid: TimeGrid) -> np.ndarray:
    """The times at which RK4 on the grid evaluates its right-hand side:
    the n + 1 nodes interleaved with the n midpoints t_k + dt_k / 2."""
    nodes = grid.nodes
    out = np.empty(2 * len(nodes) - 1)
    out[::2] = nodes
    out[1::2] = nodes[:-1] + 0.5 * np.diff(nodes)
    return out


def rk4_step(f, t, x, dt, rows=None):
    """One classical RK4 step from t to t + dt.

    Without `rows`, f is called as f(t, x).  With rows = (u_0, u_half, u_1),
    the stage-table rows at t, t + dt/2 and t + dt, each stage passes its row
    as f(t, x, u)."""
    h = 0.5 * dt
    if rows is None:
        k1 = np.asarray(f(t, x), dtype=float)
        k2 = np.asarray(f(t + h, x + h * k1), dtype=float)
        k3 = np.asarray(f(t + h, x + h * k2), dtype=float)
        k4 = np.asarray(f(t + dt, x + dt * k3), dtype=float)
    else:
        u0, uh, u1 = rows
        k1 = np.asarray(f(t, x, u0), dtype=float)
        k2 = np.asarray(f(t + h, x + h * k1, uh), dtype=float)
        k3 = np.asarray(f(t + h, x + h * k2, uh), dtype=float)
        k4 = np.asarray(f(t + dt, x + dt * k3, u1), dtype=float)
    return x + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def integrate_rk4(f, x0, grid: TimeGrid, meta="", table=None) -> Trajectory:
    """Classical fixed-step RK4 sampled at the grid nodes.

    f(t, x) gives the derivative.  When the right-hand side depends on
    time-dependent inputs, sample them once at `rk4_stage_times(grid)` and
    pass that (2n + 1, ...) array as `table`; f is then called as
    f(t, x, u) with u the table row at the stage time.

    Each step's result is checked once: a non-finite value in any stage
    makes it non-finite, and NumericsError then names the step's start time
    and state."""
    nodes = grid.nodes
    if table is not None and len(table) != 2 * len(nodes) - 1:
        raise NumericsError(f"stage table needs {2 * len(nodes) - 1} rows, got {len(table)}")
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    states = np.empty((len(nodes), len(x)))
    states[0] = x
    # a memoryview indexes to Python floats, whose arithmetic is several
    # times faster than numpy scalars', and copies no node
    times = memoryview(nodes)
    rows = None
    for k in range(len(nodes) - 1):
        t = times[k]
        dt = times[k + 1] - t
        if table is not None:
            rows = (table[2 * k], table[2 * k + 1], table[2 * k + 2])
        step = rk4_step(f, t, x, dt, rows)
        if not np.isfinite(step).all():
            raise NumericsError(f"non-finite RK4 step from t={t:.6g}", t=t, state=x)
        states[k + 1] = x = step
    return Trajectory(grid, states, meta)


def _rk4_window(f, xa, t, dt, rows):
    """Picard sweeps of the RK4 recurrence from state xa over the steps of
    widths dt starting at times t, with stage-table rows `rows`: the window's
    states once a sweep leaves them bitwise unchanged, or None when the
    largest update stops shrinking above roundoff, a stage raises
    LieSysError or the fixed point is not finite."""
    h = 0.5 * dt
    times = (t, t + h, t + dt)
    u0, uh, u1 = rows[:-1:2], rows[1::2], rows[2::2]
    hc, dtc, sixth = h[:, None], dt[:, None], (dt / 6.0)[:, None]
    X, last = np.broadcast_to(xa, (len(dt) + 1, len(xa))), np.inf
    # unconverged iterates may overflow or leave a function's domain; a
    # window that ends there runs by the loop, which warns and raises
    with np.errstate(all="ignore"):
        for _ in range(len(dt) + 1):
            x = X[:-1]
            try:
                k1 = f(times[0], x, u0)
                k2 = f(times[1], x + hc * k1, uh)
                k3 = f(times[1], x + hc * k2, uh)
                k4 = f(times[2], x + dtc * k3, u1)
            except LieSysError:
                return None
            incr = sixth * (k1 + 2.0 * (k2 + k3) + k4)
            new = np.add.accumulate(np.concatenate([X[:1], incr]))
            if (new == X).all():
                return new if np.isfinite(new).all() else None
            update = np.max(np.abs(new - X))
            if not (update <= _ROUNDOFF * max(1.0, np.max(np.abs(new))) or update < last):
                return None              # also catches NaN
            X, last = new, update
    return None


def sweep_rk4(f, x0, grid: TimeGrid, table, meta="") -> Trajectory:
    """Classical fixed-step RK4 sampled at the grid nodes, by windowed
    Picard sweeps (see the module docstring); the result is `integrate_rk4`
    on f one state at a time, to the last bit.

    f(t, x, u) takes (m,) times, (m, d) states and the (m, ...) rows of
    `table` at those times and returns the (m, d) derivatives; `table`
    holds the inputs sampled at `rk4_stage_times(grid)`."""
    nodes = grid.nodes
    n = len(nodes) - 1
    if len(table) != 2 * n + 1:
        raise NumericsError(f"stage table needs {2 * n + 1} rows, got {len(table)}")
    x = np.atleast_1d(np.asarray(x0, dtype=float))
    states = np.empty((n + 1, len(x)))
    states[0] = x
    dt = np.diff(nodes)

    def one(t, x, u):       # f on one state, for the step-by-step loop
        return f(np.array([t]), x[None], u[None])[0]

    for a in range(0, n, _WINDOW):
        e = min(a + _WINDOW, n)
        rows = table[2 * a:2 * e + 1]
        window = _rk4_window(f, states[a], nodes[a:e], dt[a:e], rows)
        if window is None:
            window = integrate_rk4(one, states[a], TimeGrid.from_nodes(nodes[a:e + 1]),
                                   table=rows).states
        states[a + 1:e + 1] = window[1:]
    return Trajectory(grid, states, meta)


def batch_guard(fn, what, dims, avoid=()):
    """Call fn once on a batch of distinct rows, one (B, d) argument per
    size d in `dims` (None gives a (B,) argument), and return the result.
    It must equal the B single-row calls stacked, in shape and to
    `_BATCH_RTOL` in value, or LieSysError names `what`.  B is the smallest
    size from 2 that is in neither `dims` nor `avoid`, so a result that
    ignores the batch axis cannot pass by broadcasting."""
    sizes = set(dims) | set(avoid)
    B = next(b for b in range(2, len(sizes) + 3) if b not in sizes)
    level = 0.1 * np.arange(1, B + 1)
    args = [level if d is None else level[:, None] + 0.01 * np.arange(d) for d in dims]
    out = fn(*args)
    batch = np.asarray(out, dtype=float)
    rows = np.asarray([fn(*(a[k] for a in args)) for k in range(B)], dtype=float)
    if batch.shape != rows.shape:
        raise LieSysError(f"{what}: a batch of {B} states gives {batch.shape}, not the "
                          f"single calls stacked {rows.shape}")
    gap = float(np.max(np.abs(batch - rows), initial=0.0))
    if not gap <= _BATCH_RTOL * max(1.0, float(np.max(np.abs(rows), initial=0.0))):
        raise LieSysError(f"{what}: a batch of {B} states differs from the single calls "
                          f"by {gap:.3g}")
    return out


def quadrature(f, grid: TimeGrid) -> np.ndarray:
    """Cumulative integral B(t) = int_{t0}^t f, sampled on the grid nodes.

    Composite Simpson on uniform grids, trapezoid fallback otherwise.
    """
    nodes = grid.nodes
    samples = np.asarray([f(t) for t in nodes], dtype=float)
    if not np.all(np.isfinite(samples)):
        raise NumericsError("non-finite integrand sample")
    return cumulative_quadrature_samples(samples, grid)


def _cumulative_simpson(y, dx):
    # scipy.integrate.cumulative_simpson's scheme along axis 0: each
    # sub-interval integral comes from the parabola through three samples,
    # taken forwards (h1) for even and backwards (h2) for odd intervals
    h1 = dx / 3 * (5 * y[:-2] / 4 + 2 * y[1:-1] - y[2:] / 4)
    h2 = dx / 3 * (5 * y[2:] / 4 + 2 * y[1:-1] - y[:-2] / 4)
    sub = np.empty_like(y[1:])
    sub[:-1:2] = h1[::2]
    sub[1::2] = h2[::2]
    sub[-1] = h2[-1]
    out = np.zeros_like(y)
    out[1:] = np.cumsum(sub, axis=0)
    return out


def cumulative_quadrature_samples(samples, grid: TimeGrid) -> np.ndarray:
    """Cumulative integral of (n, ...) node samples along axis 0, 0 at the
    first node: composite Simpson on a uniform grid of three nodes or more,
    the trapezoid otherwise."""
    samples = np.asarray(samples, dtype=float)
    dt = grid.uniform_dt
    if dt is not None and len(samples) >= 3:
        return _cumulative_simpson(samples, dt)
    steps = np.diff(grid.nodes).reshape((-1,) + (1,) * (samples.ndim - 1))
    out = np.zeros_like(samples)
    out[1:] = np.cumsum(0.5 * steps * (samples[1:] + samples[:-1]), axis=0)
    return out


def _norm1(M):
    # largest absolute column sum of each matrix; the ufunc reductions skip
    # ndarray.sum's Python wrapper, which is most of the cost on a 3x3 matrix
    return np.maximum.reduce(np.add.reduce(np.abs(M), -2), -1)


def _inverse_or_nan(M):
    try:
        return np.linalg.inv(M)
    except np.linalg.LinAlgError:
        return np.full_like(M, np.nan)


def linsolve(M, b, cond_limit=1e12):
    """Solve Mx = b with a condition guard taken from the same factorization.

    M is one (r, r) matrix or a (..., r, r) stack, b broadcasts against
    the stack as (..., r) right-hand sides.  Each inverse comes from one LU
    factorization; the 1-norm condition number ||M||_1 ||M^-1||_1 follows
    from it at the cost of two column sums.  A singular matrix, or a
    condition above `cond_limit` or not finite, raises SingularMatrixError
    carrying the condition and, for a stack, the index of the first failing
    matrix; the Wei-Norman solver interprets that as a chart breakdown.
    """
    M = np.asarray(M, dtype=float)
    try:
        Minv = np.linalg.inv(M)
    except np.linalg.LinAlgError:
        # one singular matrix fails the whole stack: invert each on its own
        Minv = np.reshape([_inverse_or_nan(m) for m in M.reshape((-1,) + M.shape[-2:])],
                          M.shape)
    cond = _norm1(M) * _norm1(Minv)
    ok = cond <= cond_limit
    # one matrix skips .all(), which costs a fifth of a 3x3 solve
    if not (ok.all() if ok.ndim else ok):
        index = tuple(int(i) for i in np.unravel_index(np.argmin(ok), ok.shape))
        bad = float(cond[index])
        raise SingularMatrixError(np.inf if np.isnan(bad) else bad, index=index or None)
    return (Minv @ np.asarray(b, dtype=float)[..., None])[..., 0]


def central_diff(f, t, h=1e-5, order=2):
    """Central difference of a vector-valued callable at t: the three-point
    stencil, or the five-point one for order=4."""
    def at(s):
        return np.asarray(f(s), dtype=float)
    if order == 4:
        return (8.0 * (at(t + h) - at(t - h)) - (at(t + 2 * h) - at(t - 2 * h))) / (12.0 * h)
    return (at(t + h) - at(t - h)) / (2.0 * h)


def diff_samples(values, dt):
    """Differentiate sampled values: central interior, one-sided 2nd order ends."""
    values = np.asarray(values, dtype=float)
    if len(values) < 3:
        raise NumericsError(f"second-order differentiation needs 3 samples, got {len(values)}")
    out = np.empty_like(values)
    out[1:-1] = (values[2:] - values[:-2]) / (2.0 * dt)
    out[0] = (-3.0 * values[0] + 4.0 * values[1] - values[2]) / (2.0 * dt)
    out[-1] = (3.0 * values[-1] - 4.0 * values[-2] + values[-3]) / (2.0 * dt)
    return out


def diff_samples4(values, dt):
    """Fourth-order differentiation of samples (five-point stencils).

    Interior nodes take the central stencil; the two nodes at each end take
    the one-sided five-point stencil, so at least six samples are needed."""
    values = np.asarray(values, dtype=float)
    if len(values) < 6:
        raise NumericsError(f"fourth-order differentiation needs 6 samples, got {len(values)}")
    out = np.empty_like(values)
    out[2:-2] = (8.0 * (values[3:-1] - values[1:-3])
                 - (values[4:] - values[:-4])) / (12.0 * dt)
    fwd = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / (12.0 * dt)
    out[0] = fwd @ values[:5]
    out[1] = fwd @ values[1:6]
    out[-1] = -(fwd @ values[-1:-6:-1])
    out[-2] = -(fwd @ values[-2:-7:-1])
    return out


def second_diff_samples(values, dt):
    """Second derivative of sampled values on the interior (ends copied)."""
    values = np.asarray(values, dtype=float)
    out = np.empty_like(values)
    out[1:-1] = (values[2:] - 2.0 * values[1:-1] + values[:-2]) / dt**2
    out[0] = out[1]
    out[-1] = out[-2]
    return out
