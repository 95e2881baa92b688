"""Lie systems realized on state manifolds: generator fields, direct
integration, solution through a group action, and superposition rules."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .algebra import LieAlgebra
from .errors import CoincidenceError, DomainExitError, LieSysError
from .groups import GroupChart
from .numerics import TimeGrid, Trajectory, integrate_rk4, rk4_stage_times
from .weinorman import ControlSignal, GroupCurve

INFINITY = float("inf")


@dataclass
class LieSystemRealization:
    """Generator vector fields on a state manifold, plus an optional group
    action that integrates the system by the one curve through the identity."""

    algebra: LieAlgebra
    state_dim: int
    generators: list                          # r callables x -> dx
    action: Callable | None = None            # (GroupElement, x) -> x
    action_chart: GroupChart | None = None
    domain: Callable | None = None            # x -> bool
    name: str = ""
    domain_note: str = ""

    def __post_init__(self):
        if len(self.generators) != self.algebra.dim:
            raise LieSysError("need one generator per basis element")

    def check_domain(self, t, x):
        if self.domain is not None and not self.domain(x):
            raise DomainExitError(t, x, f"{self.name}: left the validity domain at t={t}")


def field_eval(sys: LieSystemRealization, b, t: float, x) -> np.ndarray:
    """sum_a b_a(t) X_a(x); b is the ControlSignal or its values at t."""
    x = np.asarray(x, dtype=float)
    sys.check_domain(t, x)
    coeffs = b(t) if callable(b) else b
    out = np.zeros(sys.state_dim)
    for ba, X in zip(coeffs, sys.generators):
        if ba != 0.0:
            out += ba * np.asarray(X(x), dtype=float)
    return out


def solve_direct(sys: LieSystemRealization, b: ControlSignal, x0, grid: TimeGrid) -> Trajectory:
    """RK4 on the realization's vector field, with the controls sampled once
    at the RK4 stage times."""
    return integrate_rk4(lambda t, x, u: field_eval(sys, u, t, x), x0, grid, meta=sys.name,
                         table=b(rk4_stage_times(grid)))


def solve_via_group(sys: LieSystemRealization, gcurve: GroupCurve, x0) -> Trajectory:
    """x(t) = action(g(t), x0) sampled at the curve's nodes."""
    if sys.action is None:
        raise LieSysError(f"{sys.name}: no group action cataloged")
    if sys.action_chart is not None and gcurve.chart is not sys.action_chart:
        ch, ac = gcurve.chart, sys.action_chart
        if (ch.group_name, ch.chart_kind, ch.ordering) != (ac.group_name, ac.chart_kind, ac.ordering):
            raise LieSysError(f"{sys.name}: curve chart does not match the action chart")
    x0 = np.asarray(x0, dtype=float)
    nodes = gcurve.grid.nodes
    states = np.empty((len(nodes), sys.state_dim))
    for k in range(len(nodes)):
        states[k] = sys.action(gcurve.at_node(k), x0)
    return Trajectory(gcurve.grid, states, meta=f"{sys.name} (group action)")


def generator_bracket_residual(sys: LieSystemRealization, points, h=1e-5) -> float:
    """Consistency of vector-field brackets with the structure constants.

    [X_a, X_b](x) computed with central-difference Jacobians must equal
    sum_g c[a,b,g] X_g(x).  Accuracy is finite-difference limited.
    """
    r = sys.algebra.dim
    worst = 0.0
    for x in points:
        x = np.asarray(x, dtype=float)
        vals = [np.asarray(X(x), dtype=float) for X in sys.generators]
        jacs = []
        for X in sys.generators:
            J = np.empty((sys.state_dim, sys.state_dim))
            for j in range(sys.state_dim):
                e = np.zeros(sys.state_dim)
                e[j] = h
                J[:, j] = (np.asarray(X(x + e), float) - np.asarray(X(x - e), float)) / (2 * h)
            jacs.append(J)
        for a in range(r):
            for bb in range(a + 1, r):
                lb = jacs[bb] @ vals[a] - jacs[a] @ vals[bb]
                expect = np.zeros(sys.state_dim)
                for g in range(r):
                    cval = sys.algebra.structure[a, bb, g]
                    if cval != 0.0:
                        expect += cval * vals[g]
                worst = max(worst, float(np.max(np.abs(lb - expect))))
    return worst


def action_property_residual(sys: LieSystemRealization, elements, points) -> float:
    """Phi(e, x) = x and Phi(g, Phi(h, x)) = Phi(gh, x) at probe points."""
    from .groups import compose

    worst = 0.0
    ident = sys.action_chart.identity()
    for x in points:
        x = np.asarray(x, dtype=float)
        worst = max(worst, float(np.max(np.abs(sys.action(ident, x) - x))))
        for g, hh in zip(elements[::2], elements[1::2]):
            lhs = sys.action(g, sys.action(hh, x))
            rhs = sys.action(compose(g, hh), x)
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
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


def _as_states(parts):
    return [np.asarray(p, dtype=float) for p in parts]


def riccati_superposition(x1, x2, x3, k):
    """General Riccati solution from three particulars and a projective k.

    k = 0, infinity, 1 return x1, x2, x3 respectively.
    """
    x1, x2, x3 = (np.asarray(v, dtype=float) for v in (x1, x2, x3))
    if k == INFINITY:
        return x2.copy()
    den = (x3 - x2) + k * (x1 - x3)
    if np.any(np.abs(den) < 1e-14 * (1.0 + np.max(np.abs([x1, x2, x3])))):
        bad = int(np.argmin(np.abs(den)))
        raise CoincidenceError(bad, "Riccati superposition denominator vanished")
    return (x1 * (x3 - x2) + k * x2 * (x1 - x3)) / den


def sl2_complex_superposition(p1, p2, p3, k1, k2):
    """Superposition for the coupled real/imaginary Riccati system.

    Implemented as the complex Moebius superposition with u = y + iz and
    k = k1 + i k2; (k1, k2) = (0,0) gives p1, k -> infinity gives p2 and
    (1, 0) gives p3.
    """
    u1, u2, u3 = (complex(p[0], p[1]) for p in (p1, p2, p3))
    if k1 == INFINITY or k2 == INFINITY:
        return np.array([u2.real, u2.imag])
    k = complex(k1, k2)
    den = (u3 - u2) + k * (u1 - u3)
    if abs(den) < 1e-14:
        raise CoincidenceError(0, "coupled-Riccati superposition denominator vanished")
    u = (u1 * (u3 - u2) + k * u2 * (u1 - u3)) / den
    return np.array([u.real, u.imag])


def superpose(rule: SuperpositionRule, particulars, constants):
    """Evaluate a superposition rule on states or whole trajectories."""
    if particulars and isinstance(particulars[0], Trajectory):
        grids = [p.grid for p in particulars]
        states = [p.states for p in particulars]
        out = np.empty_like(states[0])
        for kk in range(states[0].shape[0]):
            out[kk] = superpose(rule, [s[kk] for s in states], constants)
        return Trajectory(grids[0], out, meta=f"superposition ({rule.kind})")
    parts = _as_states(particulars)
    if len(parts) != rule.arity:
        raise LieSysError(f"{rule.kind} rule needs {rule.arity} particular solutions")
    if rule.kind == "linear":
        return sum(k * p for k, p in zip(constants, parts))
    if rule.kind == "affine":
        out = parts[0].copy()
        for k, p in zip(constants, parts[1:]):
            out = out + k * (p - parts[0])
        return out
    if rule.kind == "riccati":
        return riccati_superposition(parts[0], parts[1], parts[2], constants[0])
    if rule.kind == "sl2_complex":
        return sl2_complex_superposition(parts[0], parts[1], parts[2], constants[0], constants[1])
    raise LieSysError(f"unknown superposition kind {rule.kind!r}")


def cross_ratio(x, x1, x2, x3):
    """(x - x1)/(x - x2) : (x3 - x1)/(x3 - x2), elementwise over nodes."""
    arrays = [np.asarray(v.states[:, 0] if isinstance(v, Trajectory) else v, dtype=float)
              for v in (x, x1, x2, x3)]
    x, x1, x2, x3 = arrays
    den = (x - x2) * (x3 - x1)
    if np.any(np.abs(den) < 1e-14 * (1.0 + np.max(np.abs(x)))):
        raise CoincidenceError(int(np.argmin(np.abs(den))))
    return (x - x1) * (x3 - x2) / den
