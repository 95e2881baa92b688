"""Shared numerics: fixed-step RK4, composite quadrature, central
differences and a dense small linear solve.

Everything here is deliberately plain: uniform grids keep trajectory
comparisons node-exact, which is what the test suite relies on.  A
`TimeGrid` is its nodes: t0, t1 and n_steps are read off them, and its
uniform step is fixed when it is built.

Time-dependent inputs of an RK4 solve are sampled once, as a stage table:
rows at `rk4_stage_times(grid)`, the nodes interleaved with the step
midpoints.  `integrate_rk4` hands step k the rows 2k, 2k+1 and 2k+2 (the
stage times t_k, t_k + dt_k/2 and t_{k+1}), so the right-hand side never
evaluates its inputs itself.

`picard_windows` solves by Picard sweeps behind a sliding frontier
(waveform relaxation with a moving window: Lelarasmee, Ruehli &
Sangiovanni-Vincentelli, IEEE TCAD 1 (1982) 131).  Each sweep covers
`_WINDOW` steps from the frontier, the last settled node; a remainder of
fewer than two steps joins the window.  Its first iterate is what the last
sweep left beyond the frontier, or the frontier state after a restart, and
the window's rows beyond that come from the caller's first iterate over the
whole grid where it has one and it is finite there, or repeat the last row
otherwise.  Rows near the frontier settle first, as
Picard's error at a distance t behind a settled start falls like
(Lt)^k / k! (Miekkala & Nevanlinna, SIAM J. Sci. Stat. Comput. 8 (1987)
459), so a sweep commits its settled prefix and the frontier slides on:

- an exact caller, whose row j depends only on rows < j of the iterate,
  commits up to the first row the sweep changed, that row included: the
  rows before it are unchanged, so it is the fixed point's to the last bit,
  and every sweep settles at least one step;
- any other caller commits up to the last even row before the first update
  above roundoff (`_ROUNDOFF` times the window's largest |x|, so the rule
  does not change with the state's scale), and never stops one step short
  of the grid end.  Windows thus start on even nodes, where a cumulative
  Simpson sum depends on no later sample: each window's Simpson pairs are
  the grid's, and the result is one global pass to roundoff.

A window fails when a sweep raises LieSysError, when a committed row is not
finite, when the largest update over the rows carried from the last sweep
does not shrink against those rows' updates there while above roundoff, or
when `_MAX_SWEEPS` sweeps pass without the frontier moving.  An exact
caller's windows never halve.  Any other caller's failed window halves,
down to the two steps Simpson needs, and restarts from the frontier; once
the frontier has advanced a full width at a reduced width, the width
doubles back.  A failed window that does not halve goes to the caller's
`stuck`, which solves it or raises.

`sweep_rk4` runs the library's RK4 solves on that driver as an exact
caller.  A sweep evaluates the four stages once over the whole window and
rebuilds it as one running sum of the step increments, the loop's float
operations in its order, so every committed row is the loop's result.  A
failed window runs by `integrate_rk4` one state at a time, which names any
failure as the loop does.  A right-hand side linear in the state,
x' = B(t) x, has RK4 steps that are matrices, x_{k+1} = R_k x_k, and
`linear_rk4_states` multiplies them by `prefix_product`, as the Magnus
scan of `groups` does its group steps, for a first iterate within
roundoff of the loop's states: as the exact commit rule alone decides each
committed row, the iterate changes the number of sweeps, never a bit of the
result.  The right-hand side takes batches, so
realizations give batched `fields` and `domain`, and reductions a batched
`hom_rhs`; `batch_guard` checks them at construction.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import LieSysError, NumericsError, SingularMatrixError

# Default resolution: 2000 uniform steps per unit time. All quoted
# tolerances in the tests assume this.
STEPS_PER_UNIT_TIME = 2000
# Picard sweeps: the widest window in steps, the most sweeps that may pass
# without the frontier moving, and the update, relative to the window's
# largest |x|, that counts as roundoff
_WINDOW = 512
_MAX_SWEEPS = 40
_ROUNDOFF = 64 * np.finfo(float).eps
# the rows per block of `prefix_product`
_SCAN_BLOCK = 16
# the last update of a frontier row that no sweep has carried yet
_UNSWEPT = np.array([np.inf])
# a batched call must agree with the single-row calls to this relative error
_BATCH_RTOL = 1e-12
# the largest max|M|^2 / max|adj M| at which a 3x3 inverse keeps its
# adjugate (see `_adjugate`): on random stacks up to cond 1e8, the adjugate
# stayed within 1.1 eps cond(M) of LAPACK's inverse up to 16, and reached
# 6 eps cond(M) at 64; the M(v) of the criterion-1 systems stay below 6
_CANCEL = 16.0
# the largest 1-norm condition `linsolve` accepts (above it: a chart breakdown)
_BREAKDOWN_COND = 1e10


class TimeGrid:
    """Integration grid: its nodes, strictly increasing and read-only, from
    which t0, t1 and n_steps are read.  `uniform_dt`, the step of a uniform
    grid or None, is fixed when the grid is built: (t1 - t0) / n_steps by
    `uniform`, and the first step by `TimeGrid(nodes)` (`from_nodes`) when
    every step is within 1e-12 of it.  Grids compare and hash by their
    nodes."""

    __slots__ = ("_nodes", "_dt")

    def __init__(self, nodes):
        nodes = np.array(nodes, dtype=float)
        steps = np.diff(nodes) if nodes.ndim == 1 else np.empty(0)
        if len(steps) == 0 or not (steps > 0).all():
            raise NumericsError("grid nodes must be strictly increasing")
        uniform = np.allclose(steps, steps[0], rtol=1e-12, atol=1e-15)
        self._fix(nodes, float(steps[0]) if uniform else None)

    def _fix(self, nodes, dt):
        nodes.flags.writeable = False
        self._nodes, self._dt = nodes, dt

    @classmethod
    def uniform(cls, t0, t1, n_steps=None):
        if n_steps is None:
            n_steps = max(1, int(round(STEPS_PER_UNIT_TIME * (t1 - t0))))
        t0, t1, n = float(t0), float(t1), int(n_steps)
        if not (t1 > t0):
            raise NumericsError("need t0 < t1")
        if n < 1:
            raise NumericsError("n_steps must be a positive integer")
        grid = cls.__new__(cls)
        grid._fix(np.linspace(t0, t1, n + 1), (t1 - t0) / n)
        return grid

    @classmethod
    def from_nodes(cls, nodes):
        return cls(nodes)

    @property
    def nodes(self) -> np.ndarray:
        return self._nodes

    @property
    def uniform_dt(self) -> float | None:
        return self._dt

    def uniform_step(self, what) -> float:
        """`uniform_dt`, or NumericsError when the grid is not uniform."""
        if self._dt is None:
            raise NumericsError(f"{what} needs a uniform grid")
        return self._dt

    t0 = property(lambda self: float(self._nodes[0]))
    t1 = property(lambda self: float(self._nodes[-1]))
    n_steps = property(lambda self: len(self._nodes) - 1)

    def __eq__(self, other):
        return isinstance(other, TimeGrid) and np.array_equal(self._nodes, other._nodes)

    def __hash__(self):
        return hash((len(self._nodes), self.t0, self.t1))

    def __repr__(self):
        return f"TimeGrid(t0={self.t0}, t1={self.t1}, n_steps={self.n_steps})"


@dataclass(eq=False)   # equal and hashed as itself only
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

    def to_csv(self, path):
        header = "t," + ",".join(f"x{i+1}" for i in range(self.dim))
        data = np.column_stack([self.grid.nodes, self.states])
        np.savetxt(path, data, delimiter=",", header=header, comments="")

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


def rk4_step(f, t, x, dt, rows):
    """One classical RK4 step from t to t + dt.  rows = (u_0, u_half, u_1)
    are the stage-table rows at t, t + dt/2 and t + dt, and each stage
    passes its row as f(t, x, u)."""
    h = 0.5 * dt
    u0, uh, u1 = rows
    k1 = np.asarray(f(t, x, u0), dtype=float)
    k2 = np.asarray(f(t + h, x + h * k1, uh), dtype=float)
    k3 = np.asarray(f(t + h, x + h * k2, uh), dtype=float)
    k4 = np.asarray(f(t + dt, x + dt * k3, u1), dtype=float)
    return x + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def integrate_rk4(f, x0, grid: TimeGrid, table=None) -> Trajectory:
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
    # without a table, every stage passes f a row of None that it drops
    g, rows = (f, None) if table is not None else ((lambda t, x, u: f(t, x)), (None,) * 3)
    for k in range(len(nodes) - 1):
        t = times[k]
        dt = times[k + 1] - t
        if table is not None:
            rows = (table[2 * k], table[2 * k + 1], table[2 * k + 2])
        step = rk4_step(g, t, x, dt, rows)
        if not np.isfinite(step).all():
            raise NumericsError(f"non-finite RK4 step from t={t:.6g}", t=t, state=x)
        states[k + 1] = x = step
    return Trajectory(grid, states, "")


def _sweep_once(sweep, a, e, X, last, exact):
    """One sweep of the carried iterate X over the nodes a..e: the new
    iterate, its largest update per row and the rows it settles (see the
    module docstring), or None when the sweep fails."""
    # unconverged iterates may overflow or leave a function's domain
    with np.errstate(all="ignore"):
        try:
            new = sweep(a, e, X)
        except LieSysError:
            return None
        # ufunc reductions skip np.max's Python wrapper
        update = np.maximum.reduce(np.abs(new - X), axis=1)
        tol = _ROUNDOFF * np.maximum.reduce(np.abs(new), axis=None)
        carried = np.maximum.reduce(update[:len(last)])
        if not (carried <= tol or carried < np.maximum.reduce(last)):    # also catches NaN
            return None
        # two finite floats differ by 0 only when equal; NaN counts as moved
        moved = ~(update[1:] <= (0.0 if exact else tol))
        j = int(np.argmax(moved))       # row j + 1 is the first that moved
        if not moved[j]:
            p = len(X) - 1
        else:
            p = j + 1 if exact else j // 2 * 2
        if not np.isfinite(new[:p + 1]).all():
            return None
    return new, update, p


def picard_windows(sweep, x0, n, exact, stuck, first=None) -> np.ndarray:
    """The (n + 1, d) states of a solve from x0 over n steps by Picard
    sweeps behind a sliding frontier (see the module docstring).

    sweep(a, e, X) maps an iterate X over the nodes a..e, (e - a + 1, d)
    with X[0] the state at node a, to the next one, which starts at X[0];
    with `exact`, its row j depends on the rows < j of X only.
    A failed window halves only without `exact`, and only while it is
    wider than two steps; stuck(a, e, x_a) returns the states over the
    nodes a..e of a failed window that does not halve, or raises.
    `first`, (n + 1, d) states over all nodes, gives a window the rows
    beyond its carried iterate where they are all finite; without it, or
    where they are not, the carried iterate's last row is repeated."""
    states = np.empty((n + 1, np.size(x0)))
    states[0] = x0
    a, width, advanced, idle = 0, _WINDOW, 0, 0
    # the carried iterate from node a and its rows' last updates; the
    # frontier row alone has none
    X, last = states[:1], _UNSWEPT
    while a < n:
        e = n if n - a - width < 2 else a + width
        fresh = None if first is None else first[a + len(X):e + 1]
        if fresh is None or not np.isfinite(fresh).all():
            fresh = np.repeat(X[-1:], e - a + 1 - len(X), axis=0)
        X = np.concatenate([X, fresh])
        out = _sweep_once(sweep, a, e, X, last, exact)
        if out is not None:
            new, update, p = out
            if not exact and a + p == n - 1:
                p -= 2      # Simpson needs two steps after the frontier
            idle = 0 if p else idle + 1
        if out is None or idle == _MAX_SWEEPS:
            if not exact and width > 2:
                width, advanced = width // 2, 0
            else:
                states[a + 1:e + 1] = stuck(a, e, states[a])[1:]
                a = e
            X, last, idle = states[a:a + 1], _UNSWEPT, 0
            continue
        states[a + 1:a + p + 1] = new[1:p + 1]
        X, last = new[p:], update[p:]
        a, advanced = a + p, advanced + p
        if width < _WINDOW and advanced >= width:
            width, advanced = 2 * width, 0
    return states


def sweep_rk4(f, x0, grid: TimeGrid, table, meta="", first=None) -> Trajectory:
    """Classical fixed-step RK4 sampled at the grid nodes, by windowed
    Picard sweeps (see the module docstring); the result is `integrate_rk4`
    on f one state at a time, to the last bit.

    f(t, x, u) takes (m,) times, (m, d) states and the (m, ...) rows of
    `table` at those times and returns the (m, d) derivatives; `table`
    holds the inputs sampled at `rk4_stage_times(grid)`.  `first`, an
    (n + 1, d) approximation of the states such as `linear_rk4_states` or
    a reduction's projected group curve gives, seeds the windows' iterates
    (`picard_windows`): the closer it is, the fewer sweeps, and any first
    iterate gives the same bits."""
    nodes = grid.nodes
    n = len(nodes) - 1
    if len(table) != 2 * n + 1:
        raise NumericsError(f"stage table needs {2 * n + 1} rows, got {len(table)}")
    # the per-step constants, built once and sliced by each sweep
    dt = np.diff(nodes)
    t = nodes[:-1]
    th, t1, u0, uh, u1 = t + 0.5 * dt, t + dt, table[:-1:2], table[1::2], table[2::2]
    hc, wc, sixth = 0.5 * dt[:, None], dt[:, None], (dt / 6.0)[:, None]

    def sweep(a, e, X):
        x, s = X[:-1], slice(a, e)
        k1 = f(t[s], x, u0[s])
        k2 = f(th[s], x + hc[s] * k1, uh[s])
        k3 = f(th[s], x + hc[s] * k2, uh[s])
        k4 = f(t1[s], x + wc[s] * k3, u1[s])
        incr = sixth[s] * (k1 + 2.0 * (k2 + k3) + k4)
        return np.add.accumulate(np.concatenate([X[:1], incr]))

    def one(t, x, u):       # f on one state, for the step-by-step loop
        return f(np.array([t]), x[None], u[None])[0]

    def stuck(a, e, xa):
        return integrate_rk4(one, xa, TimeGrid.from_nodes(nodes[a:e + 1]),
                             table=table[2 * a:2 * e + 1]).states

    return Trajectory(grid, picard_windows(sweep, x0, n, True, stuck, first), meta)


def prefix_product(h, compose, identity):
    """Set h[k] = h[k] h[k-1] ... h[0] in place along the first axis, for
    any point shape: (n, d) chart coordinates with a chart's `compose_fn`,
    or (n, d, d) matrices with `np.matmul`.  compose(a, b) is the product
    a b over matching leading axes, and `identity` one point.

    Work-efficient and in log depth (Hillis & Steele, Commun. ACM 29 (1986)
    1170): a scan within blocks of `_SCAN_BLOCK` rows, the last padded with
    the identity so that the law sees only group points, then the prefix
    product of the blocks' totals, by which each next block is multiplied.
    A row's product tree depends on its index alone, so a prefix of h gives
    the same rows to the last bit."""
    n, point = len(h), h.shape[1:]
    blocks = -(-n // _SCAN_BLOCK)
    P = np.empty((blocks * _SCAN_BLOCK,) + point)
    P[:n] = h
    P[n:] = identity
    P = P.reshape((blocks, _SCAN_BLOCK) + point)
    shift = 1
    while shift < _SCAN_BLOCK:
        P[:, shift:] = compose(P[:, shift:], P[:, :-shift])
        shift *= 2
    if blocks > 1:
        total = P[:-1, -1].copy()
        prefix_product(total, compose, identity)
        # the laws take matching batch axes, so the totals are broadcast
        P[1:] = compose(P[1:], np.broadcast_to(total[:, None], P[1:].shape))
    h[:] = P.reshape((-1,) + point)[:n]


def cubic_midpoints(A) -> np.ndarray:
    """The (n - 1, ...) values at the step midpoints of a uniform grid from
    the (n, ...) samples A at its n >= 4 nodes, by the cubic through the
    four nearest nodes: (-1, 9, 9, -1)/16 inside and (5, 15, -5, 1)/16
    one-sided at each end.  Its O(dt^4) error keeps a fourth-order step
    fourth order in the sampled inputs, where a linear midpoint would make
    it second order."""
    half = np.empty_like(A[1:])
    half[1:-1] = (9.0 * (A[1:-2] + A[2:-1]) - (A[:-3] + A[3:])) / 16.0
    end = np.array([5.0, 15.0, -5.0, 1.0]) / 16.0
    half[0], half[-1] = end @ A[:4], end @ A[:-5:-1]
    return half


def linear_rk4_states(a0, ah, a1, x0) -> np.ndarray:
    """The (n + 1, d) states of RK4 on x' = B(t) x from x0, given the
    (n, d, d) matrices dt_k B at the stage times t_k, t_k + dt_k/2 and
    t_{k+1} of each step.

    Step k is x_{k+1} = R_k x_k with R_k = I + (D1 + 2 D2 + 2 D3 + D4) / 6,
    D1 = dt_k B(t_k), D2 = dt_k B(t_k + dt_k/2) (I + D1 / 2),
    D3 = dt_k B(t_k + dt_k/2) (I + D2 / 2), D4 = dt_k B(t_{k+1}) (I + D3).
    The products R_k ... R_0 come from `prefix_product` and are applied to
    x0 as one product.  The states round otherwise than the loop's, within
    a few eps of them on the catalog's systems; a product that overflows
    gives non-finite rows, not an error."""
    n, d = a0.shape[:2]
    with np.errstate(all="ignore"):
        d2 = ah + 0.5 * (ah @ a0)
        d3 = ah + 0.5 * (ah @ d2)
        d4 = a1 + a1 @ d3
        R = (a0 + 2.0 * (d2 + d3) + d4) / 6.0
        R.reshape(n, -1)[:, ::d + 1] += 1.0      # the identity
        prefix_product(R, np.matmul, np.eye(d))
        states = np.empty((n + 1, d))
        states[0] = x0
        states[1:] = (R.reshape(n * d, d) @ x0).reshape(n, d)
    return states


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


# The small-stack kernels below work on a (r, r, ...) layout of a (..., r, r)
# stack, entry (i, j) of every matrix one contiguous array: each step is then
# one vectorized pass, where numpy's reductions over a 3-long last axis are
# several times slower.  Forward substitution and the adjugate go entry by
# entry, with no BLAS call, and LAPACK inverts each matrix on its own, so a
# batch gives its stacked single-matrix results bit for bit.  The
# kernels only read that layout, so a stack already held entries first (as
# `algebra.wn_matrix` returns M(v)) is used as it is, not copied.

def _entries(M):
    n = M.ndim
    S = M.transpose((n - 2, n - 1, *range(n - 2)))
    return S if S.flags.c_contiguous else S.copy()


def _norm1(S):
    # the largest absolute column sum of each matrix
    return np.maximum.reduce(np.add.reduce(np.abs(S), 0), 0)


_CYCLIC = np.array([0, 1, 2, 0, 1])


@functools.cache
def _upper(r):
    # the (rows, columns) above the diagonal of an r x r matrix
    return np.triu_indices(r, 1)


def _unit_lower(S):
    """Whether every matrix is exactly 0 above its diagonal and exactly 1 on
    it; a NaN anywhere there makes it not."""
    r = len(S)
    rows, cols = _upper(r)
    return not S[rows, cols].any() and (S[range(r), range(r)] == 1.0).all()


def _adjugate(S):
    """The adjugate and the determinant of each 3x3 matrix, entry by entry,
    and where the adjugate is accurate.

    Cofactor C_ij is the 2x2 minor of the rows and columns after i and j,
    taken cyclically, and adj[j, i] = C_ij.  Each cofactor is the
    difference of two products of size at most max|M|^2, so its rounding
    error is about eps max|M|^2, and the inverse's error relative to its
    norm about eps cond(M) max|M|^2 / max|adj M|.  That ratio is 1 to 2 on a
    well-scaled matrix and large only when the cofactors cancel, as with
    two small singular values; the adjugate counts as accurate where it is
    at most `_CANCEL`."""
    E = S[_CYCLIC][:, _CYCLIC]      # entry (k, l) of E is entry (k % 3, l % 3)
    C = E[1:4, 1:4] * E[2:5, 2:5] - E[1:4, 2:5] * E[2:5, 1:4]
    t = S[0] * C[0]
    det = t[0] + t[1] + t[2]
    size = np.maximum.reduce(np.abs(S), (0, 1))
    fine = size * size <= _CANCEL * np.maximum.reduce(np.abs(C), (0, 1))
    return np.swapaxes(C, 0, 1), det, fine


def _apply(X, b):
    # x_i = sum_j X_ij b_j for each matrix of X, its stack broadcasting
    # against b's (..., r), one elementwise pass per j
    n = X.ndim
    t = X.transpose((*range(2, n), 0, 1)) * b[..., None, :]
    x = t[..., 0]
    for j in range(1, t.shape[-1]):
        x = x + t[..., j]
    return x


def _inverse_or_nan(M):
    try:
        return np.linalg.inv(M)
    except np.linalg.LinAlgError:
        return np.full_like(M, np.nan)


def _lapack_inverse(M):
    try:
        return _entries(np.linalg.inv(M))
    except np.linalg.LinAlgError:
        # one singular matrix fails the whole stack: invert each on its own
        each = [_inverse_or_nan(m) for m in M.reshape((-1,) + M.shape[-2:])]
        return _entries(np.reshape(each, M.shape))


def _inverse(M, S):
    """The inverse of each matrix of a (..., r, r) stack M, given M and its
    entries S (`_entries`) and laid out as S, by the route the stack's
    structure allows:

    - a unit lower-triangular stack (exactly 0 above the diagonal and
      exactly 1 on it) by forward substitution: row i of the inverse is e_i
      minus M_ij times row j for each j < i;
    - any other 3x3 stack by its adjugate over its determinant, entry by
      entry, but for the matrices whose cofactors cancel (`_adjugate`);
    - those matrices and any other stack by `np.linalg.inv`.

    A singular matrix gives non-finite entries, not an error.  The adjugate
    is exact algebra but not backward stable (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., SIAM 2002, 14.6); on the
    matrices it keeps, it stays within a few eps cond(M) of LU's inverse.
    On a unit lower-triangular 3x3 matrix it is forward substitution's
    inverse, entry for entry, so a stack that mixes such matrices with
    others still gives each its single-matrix result."""
    r = len(S)
    if _unit_lower(S):
        X = np.zeros_like(S)
        X[range(r), range(r)] = 1.0
        with np.errstate(all="ignore"):
            for i in range(1, r):
                for j in range(i):
                    X[i, :j + 1] -= S[i, j] * X[j, :j + 1]
        return X
    if r != 3:
        return _lapack_inverse(M)
    with np.errstate(all="ignore"):
        adj, det, fine = _adjugate(S)
        X = adj / det
    if not fine.all():
        X[:, :, ~fine] = _lapack_inverse(M[~fine])
    return X


def stack_solve(M, b):
    """x = M^-1 b for each matrix of a (..., r, r) stack and its (..., r)
    right-hand side, with no condition guard: `_inverse` applied to b, so
    `linsolve` without its guard, bit for bit.  A batch gives the stacked
    single-matrix results bit for bit, and a singular matrix non-finite
    rows, not an error."""
    M = np.asarray(M, dtype=float)
    return _apply(_inverse(M, _entries(M)), np.asarray(b, dtype=float))


def linsolve(M, b):
    """Solve Mx = b with a condition guard taken from the same inverse.

    M is one (r, r) matrix or a (..., r, r) stack, b broadcasts against
    the stack as (..., r) right-hand sides.  The inverse is `_inverse`'s:
    forward substitution on a unit lower-triangular stack, the adjugate on
    any other 3x3 matrix whose cofactors do not cancel, LAPACK's LU
    otherwise.  The 1-norm condition number ||M||_1 ||M^-1||_1 follows from
    it at the cost of two column sums.  A singular matrix, or a condition
    above `_BREAKDOWN_COND` or not finite, raises SingularMatrixError carrying
    the condition and, for a stack, the index of the first failing matrix;
    the Wei-Norman solver interprets that as a chart breakdown.  Its levels
    and RK4 stages solve through this guard; its cyclic sweeps solve
    unguarded by `stack_solve`, a singular stack failing only its window,
    and the guard then checks each node's M(v) once, at the solved
    exponents.
    """
    M = np.asarray(M, dtype=float)
    S = _entries(M)
    Minv = _inverse(M, S)
    with np.errstate(all="ignore"):
        cond = _norm1(S) * _norm1(Minv)
    ok = cond <= _BREAKDOWN_COND
    # one matrix skips .all(), which costs a fifth of a 3x3 solve
    if not (ok.all() if ok.ndim else ok):
        index = tuple(int(i) for i in np.unravel_index(np.argmin(ok), ok.shape))
        bad = float(cond[index])
        raise SingularMatrixError(np.inf if np.isnan(bad) else bad, index=index or None)
    return _apply(Minv, np.asarray(b, dtype=float))


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
