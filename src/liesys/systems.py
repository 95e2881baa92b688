"""Lie systems realized on state manifolds: generator fields, direct
integration, solution through a group action, and superposition rules."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .algebra import LieAlgebra
from .errors import CoincidenceError, DomainExitError, LieSysError
from .groups import GroupChart, _on_chart, _same_chart
from .numerics import (  # integrate_rk4 stays bound here: the span tests in perfbench patch it
    TimeGrid,
    Trajectory,
    batch_guard,
    integrate_rk4,
    rk4_stage_times,
    sweep_rk4,
)
from .weinorman import ControlSignal, GroupCurve

INFINITY = float("inf")


@dataclass
class LieSystemRealization:
    """A Lie system X(t, x) = sum_a b_a(t) X_a(x) on a state manifold, plus
    an optional group action that integrates it by the one curve through
    the identity.

    `fields(x)` takes (..., state_dim) states and returns the stacked
    fields, (..., r, state_dim), whose row a at each state is X_a(x);
    `domain(x)` takes the same states and returns a (...) bool array.  Both
    are checked once at construction by `numerics.batch_guard`: on a batch
    of states they must give the single-state calls stacked.
    `action(g, x)` moves one state x by (..., coord_dim) coordinates g of
    `action_chart` and returns (..., state_dim) states, one per point of g,
    so a whole curve goes through one call."""

    algebra: LieAlgebra
    state_dim: int
    fields: Callable                          # (..., state_dim) -> (..., r, state_dim)
    action: Callable | None = None            # ((..., d) coords, x) -> (..., state_dim)
    action_chart: GroupChart | None = None
    domain: Callable | None = None            # (..., state_dim) -> (...) bool
    name: str = ""
    domain_note: str = ""

    def __post_init__(self):
        dims = (self.algebra.dim, self.state_dim)
        shape = np.shape(batch_guard(self.fields, f"{self.name}: fields", (self.state_dim,), dims))
        if shape[1:] != dims:
            raise LieSysError(f"{self.name}: fields give {shape[1:]}, need one row per basis "
                              f"element: {dims}")
        if self.domain is not None:
            batch_guard(self.domain, f"{self.name}: domain", (self.state_dim,), dims)

    def check_domain(self, t, x):
        """Raise DomainExitError at the first of the (..., state_dim) states
        x outside the domain, naming that state and its time in t."""
        if self.domain is None:
            return
        outside = ~np.asarray(self.domain(x), dtype=bool)
        if outside.any():
            k = np.unravel_index(np.argmax(outside), outside.shape)
            t = float(np.broadcast_to(t, outside.shape)[k])
            raise DomainExitError(t, x[k], f"{self.name}: left the validity domain at t={t}")


def field_eval(sys: LieSystemRealization, b, t: float, x) -> np.ndarray:
    """sum_a b_a(t) X_a(x); b is the ControlSignal or its values at t."""
    x = np.asarray(x, dtype=float)
    sys.check_domain(t, x)
    coeffs = b(t) if callable(b) else b
    return coeffs @ sys.fields(x)


def solve_direct(sys: LieSystemRealization, b: ControlSignal, x0, grid: TimeGrid) -> Trajectory:
    """RK4 on the realization's vector field by `sweep_rk4`, with the
    controls sampled once at the RK4 stage times.  Every stage state is
    checked against the domain, as `field_eval` checks it."""
    fields, check_domain = sys.fields, sys.check_domain

    def stage(t, x, u):
        check_domain(t, x)
        return (u[:, None, :] @ fields(x))[:, 0]

    return sweep_rk4(stage, x0, grid, b(rk4_stage_times(grid)), meta=sys.name)


def solve_via_group(sys: LieSystemRealization, gcurve: GroupCurve, x0) -> Trajectory:
    """x(t) = action(g(t), x0) at the curve's nodes, from one check of the
    whole curve against its chart and one action call."""
    if sys.action is None:
        raise LieSysError(f"{sys.name}: no group action cataloged")
    if sys.action_chart is not None:
        _same_chart(gcurve.chart, sys.action_chart)
    coords = _on_chart(gcurve.chart, gcurve.coords, "group curve", gcurve.grid.nodes)
    states = sys.action(coords, np.asarray(x0, dtype=float))
    return Trajectory(gcurve.grid, states, meta=f"{sys.name} (group action)")


def generator_bracket_residual(sys: LieSystemRealization, points, h=1e-5) -> float:
    """Consistency of vector-field brackets with the structure constants.

    [X_a, X_b](x) = J_b X_a - J_a X_b, with the Jacobians J_a taken by
    central differences of the stacked field along each state axis, must
    equal sum_g c[a,b,g] X_g(x).  The fields at every point and at its
    2 state_dim offsets x +- h e_j come from one batched call.  Accuracy is
    finite-difference limited.
    """
    n = sys.state_dim
    x = np.asarray(points, dtype=float).reshape(-1, 1, n)
    step = h * np.eye(n)
    F = sys.fields(np.concatenate([x, x + step, x - step], axis=1))
    V = F[:, 0]
    # J[p, a, i, j] = d X_a^i / d x_j at point p
    J = np.moveaxis((F[:, 1:n + 1] - F[:, n + 1:]) / (2.0 * h), 1, -1)
    lb = np.einsum("pbij,paj->pabi", J, V) - np.einsum("paij,pbj->pabi", J, V)
    expect = np.einsum("abg,pgi->pabi", sys.algebra.structure, V)
    return float(np.max(np.abs(lb - expect), initial=0.0))


def action_property_residual(sys: LieSystemRealization, elements, points) -> float:
    """Phi(e, x) = x and Phi(g, Phi(h, x)) = Phi(gh, x) at probe points, for
    the pairs (g, h) of consecutive rows of the (m, coord_dim) chart
    coordinates `elements`."""
    chart = sys.action_chart
    pairs = len(elements) // 2
    g, h = elements[0:2 * pairs:2], elements[1:2 * pairs:2]
    gh = chart.compose_fn(g, h)
    worst = 0.0
    for x in points:
        x = np.asarray(x, dtype=float)
        lhs = np.array([sys.action(gk, sys.action(hk, x)) for gk, hk in zip(g, h)])
        worst = max(worst, float(np.max(np.abs(sys.action(chart.identity_coords, x) - x))),
                    float(np.max(np.abs(lhs - sys.action(gh, x)))))
    return worst


# ---------------------------------------------------------------------------
# superposition rules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SuperpositionRule:
    kind: str          # 'linear' | 'affine' | 'riccati' | 'sl2_complex'
    arity: int
    constant_dim: int

    @classmethod
    def linear(cls, n):
        return cls("linear", n, n)

    @classmethod
    def affine(cls, n):
        return cls("affine", n + 1, n)

    @classmethod
    def riccati(cls):
        return cls("riccati", 3, 1)

    @classmethod
    def sl2_complex(cls):
        return cls("sl2_complex", 3, 2)


def _pole_guard(den, tol, scale, what):
    """Raise CoincidenceError at the first node (leading axis) where
    |den| < tol * scale, naming `what` and its smallest flagged magnitude
    there; a single state is node 0 and scale broadcasts against den."""
    mag = np.abs(den)
    bad = np.atleast_1d(mag < tol * scale)
    if np.any(bad):
        mag = np.broadcast_to(np.atleast_1d(mag), bad.shape).reshape(len(bad), -1)
        bad = bad.reshape(len(bad), -1)
        k = int(np.argmax(bad.any(axis=1)))
        raise CoincidenceError(k, f"{what} vanished at node {k} "
                                  f"(magnitude {np.min(mag[k][bad[k]]):.3g})")


def _homography(M, y):
    """(M00 y + M01) / (M10 y + M11) over the leading axes of M."""
    return (M[..., 0, 0] * y + M[..., 0, 1]) / (M[..., 1, 0] * y + M[..., 1, 1])


def riccati_superposition(x1, x2, x3, k):
    """General Riccati solution from three particulars and a projective k,
    elementwise over states or stacked nodes.

    k = 0, infinity, 1 return x1, x2, x3 respectively.
    """
    x1, x2, x3 = (np.asarray(v, dtype=float) for v in (x1, x2, x3))
    if k == INFINITY:
        return x2.copy()
    den = (x3 - x2) + k * (x1 - x3)
    _pole_guard(den, 1e-14, 1.0 + np.max(np.abs([x1, x2, x3]), axis=0),
                "Riccati superposition denominator")
    return (x1 * (x3 - x2) + k * x2 * (x1 - x3)) / den


def sl2_complex_superposition(p1, p2, p3, k1, k2):
    """Superposition for the coupled real/imaginary Riccati system, on
    (..., 2) states or stacked nodes.

    Implemented as the complex Moebius superposition with u = y + iz and
    k = k1 + i k2; (k1, k2) = (0,0) gives p1, k -> infinity gives p2 and
    (1, 0) gives p3.
    """
    # (..., 1) complex arrays, so one state and stacked nodes take the same
    # array arithmetic
    u1, u2, u3 = (p[..., :1] + 1j * p[..., 1:2] for p in np.asarray([p1, p2, p3], dtype=float))
    if k1 == INFINITY or k2 == INFINITY:
        u = u2
    else:
        k = complex(k1, k2)
        den = (u3 - u2) + k * (u1 - u3)
        _pole_guard(den, 1e-14, 1.0, "coupled-Riccati superposition denominator")
        u = (u1 * (u3 - u2) + k * u2 * (u1 - u3)) / den
    return np.concatenate([u.real, u.imag], axis=-1)


def superpose(rule: SuperpositionRule, particulars, constants):
    """Evaluate a superposition rule on states, or once on the stacked node
    arrays of whole trajectories."""
    on_grid = bool(particulars) and isinstance(particulars[0], Trajectory)
    parts = [np.asarray(p.states if on_grid else p, dtype=float) for p in particulars]
    if len(parts) != rule.arity:
        raise LieSysError(f"{rule.kind} rule needs {rule.arity} particular solutions")
    if rule.kind == "linear":
        out = sum(k * p for k, p in zip(constants, parts))
    elif rule.kind == "affine":
        out = parts[0].copy()
        for k, p in zip(constants, parts[1:]):
            out = out + k * (p - parts[0])
    elif rule.kind == "riccati":
        out = riccati_superposition(parts[0], parts[1], parts[2], constants[0])
    elif rule.kind == "sl2_complex":
        out = sl2_complex_superposition(parts[0], parts[1], parts[2], constants[0], constants[1])
    else:
        raise LieSysError(f"unknown superposition kind {rule.kind!r}")
    if on_grid:
        return Trajectory(particulars[0].grid, out, meta=f"superposition ({rule.kind})")
    return out


def cross_ratio(x, x1, x2, x3):
    """(x - x1)/(x - x2) : (x3 - x1)/(x3 - x2), elementwise over nodes."""
    arrays = [np.asarray(v.states[:, 0] if isinstance(v, Trajectory) else v, dtype=float)
              for v in (x, x1, x2, x3)]
    x, x1, x2, x3 = arrays
    den = (x - x2) * (x3 - x1)
    _pole_guard(den, 1e-14, 1.0 + np.max(np.abs(x)), "cross-ratio denominator")
    return (x - x1) * (x3 - x2) / den
