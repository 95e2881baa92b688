"""Shared numerics: fixed-step RK4, adaptive RK45, composite quadrature,
central differences and a dense small linear solve.

Everything here is deliberately plain: uniform grids keep trajectory
comparisons node-exact, which is what the test suite relies on.

Time-dependent inputs of an RK4 solve are sampled once, as a stage table:
rows at `rk4_stage_times(grid)`, the nodes interleaved with the step
midpoints.  `integrate_rk4` hands step k the rows 2k, 2k+1 and 2k+2 (the
stage times t_k, t_k + dt_k/2 and t_{k+1}), so the right-hand side never
evaluates its inputs itself.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericsError, SingularMatrixError

# Default resolution: 2000 uniform steps per unit time. All quoted
# tolerances in the tests assume this.
STEPS_PER_UNIT_TIME = 2000


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


def _check_finite(dx, t, x):
    if not np.isfinite(dx).all():
        raise NumericsError("non-finite derivative", t=t, state=np.array(x))


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
    u0, uh, u1 = ((), (), ()) if rows is None else ((rows[0],), (rows[1],), (rows[2],))
    k1 = np.asarray(f(t, x, *u0), dtype=float)
    _check_finite(k1, t, x)
    k2 = np.asarray(f(t + 0.5 * dt, x + 0.5 * dt * k1, *uh), dtype=float)
    k3 = np.asarray(f(t + 0.5 * dt, x + 0.5 * dt * k2, *uh), dtype=float)
    k4 = np.asarray(f(t + dt, x + dt * k3, *u1), dtype=float)
    _check_finite(k4, t + dt, x)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate_rk4(f, x0, grid: TimeGrid, meta="", table=None) -> Trajectory:
    """Classical fixed-step RK4 sampled at the grid nodes.

    f(t, x) gives the derivative.  When the right-hand side depends on
    time-dependent inputs, sample them once at `rk4_stage_times(grid)` and
    pass that (2n + 1, ...) array as `table`; f is then called as
    f(t, x, u) with u the table row at the stage time."""
    nodes = grid.nodes
    if table is not None and len(table) != 2 * len(nodes) - 1:
        raise NumericsError(f"stage table needs {2 * len(nodes) - 1} rows, got {len(table)}")
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    states = np.empty((len(nodes), len(x)))
    states[0] = x
    for k in range(len(nodes) - 1):
        rows = None if table is None else table[2 * k:2 * k + 3]
        x = rk4_step(f, nodes[k], x, nodes[k + 1] - nodes[k], rows)
        _check_finite(x, nodes[k + 1], x)
        states[k + 1] = x
    return Trajectory(grid, states, meta)


# Fehlberg 4(5) coefficients.
_RKF_A = (0.0, 0.25, 3.0 / 8.0, 12.0 / 13.0, 1.0, 0.5)
_RKF_B = (
    (),
    (0.25,),
    (3.0 / 32.0, 9.0 / 32.0),
    (1932.0 / 2197.0, -7200.0 / 2197.0, 7296.0 / 2197.0),
    (439.0 / 216.0, -8.0, 3680.0 / 513.0, -845.0 / 4104.0),
    (-8.0 / 27.0, 2.0, -3544.0 / 2565.0, 1859.0 / 4104.0, -11.0 / 40.0),
)
_RKF_C5 = (16.0 / 135.0, 0.0, 6656.0 / 12825.0, 28561.0 / 56430.0, -9.0 / 50.0, 2.0 / 55.0)
_RKF_C4 = (25.0 / 216.0, 0.0, 1408.0 / 2565.0, 2197.0 / 4104.0, -1.0 / 5.0, 0.0)


def integrate_rk45(f, x0, t0, t1, rtol=1e-8, atol=1e-10, max_steps=200000):
    """Adaptive RKF45; returns (nodes, states) at the accepted steps.

    Provided for spot checks; the fixed-step RK4 is the default used
    throughout because it keeps grids node-exact.
    """
    t = float(t0)
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    dt = (t1 - t0) / 100.0
    ts, xs = [t], [x.copy()]
    n = 0
    while t < t1:
        n += 1
        if n > max_steps:
            raise NumericsError("rk45: too many steps", t=t, state=x)
        dt = min(dt, t1 - t)
        ks = []
        for i in range(6):
            xi = x.copy()
            for j, b in enumerate(_RKF_B[i]):
                xi = xi + dt * b * ks[j]
            ks.append(np.asarray(f(t + _RKF_A[i] * dt, xi), dtype=float))
        x5 = x + dt * sum(c * k for c, k in zip(_RKF_C5, ks))
        x4 = x + dt * sum(c * k for c, k in zip(_RKF_C4, ks))
        err = np.max(np.abs(x5 - x4))
        scale = atol + rtol * max(1.0, float(np.max(np.abs(x5))))
        if err <= scale or dt < 1e-14:
            t += dt
            x = x5
            ts.append(t)
            xs.append(x.copy())
        dt = dt * min(4.0, max(0.1, 0.9 * (scale / max(err, 1e-300)) ** 0.2))
    return np.array(ts), np.array(xs)


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
    samples = np.asarray(samples, dtype=float)
    dt = grid.uniform_dt
    if dt is not None and len(samples) >= 3:
        return _cumulative_simpson(samples, dt)
    nodes = grid.nodes
    out = np.zeros_like(samples)
    acc = np.zeros(samples.shape[1:] if samples.ndim > 1 else ())
    for k in range(1, len(nodes)):
        acc = acc + 0.5 * (nodes[k] - nodes[k - 1]) * (samples[k] + samples[k - 1])
        out[k] = acc
    return out


def _norm1(M):
    # largest absolute column sum; the ufunc reductions skip ndarray.sum's
    # Python wrapper, which is most of the cost on a 3x3 matrix
    return np.maximum.reduce(np.add.reduce(np.abs(M), 0))


def linsolve(M, b, cond_limit=1e12):
    """Solve Mx = b with a condition guard taken from the same factorization.

    The inverse comes from one LU factorization; the 1-norm condition
    number ||M||_1 ||M^-1||_1 follows from it at the cost of two column
    sums.  A singular matrix, or a condition above `cond_limit` or not
    finite, raises SingularMatrixError carrying the condition; the
    Wei-Norman solver interprets that as a chart breakdown.
    """
    M = np.asarray(M, dtype=float)
    try:
        Minv = np.linalg.inv(M)
    except np.linalg.LinAlgError:
        raise SingularMatrixError(np.inf)
    cond = _norm1(M) * _norm1(Minv)
    if not cond <= cond_limit:
        raise SingularMatrixError(cond)
    return Minv @ np.asarray(b, dtype=float)


def central_diff(f, t, h=1e-5):
    """Second-order central difference of a vector-valued callable."""
    return (np.asarray(f(t + h), dtype=float) - np.asarray(f(t - h), dtype=float)) / (2.0 * h)


def diff_samples(values, dt):
    """Differentiate sampled values: central interior, one-sided 2nd order ends."""
    values = np.asarray(values, dtype=float)
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
