"""Registry of the concrete Lie systems in the catalog: realization,
algebra, group action (when available), closed-form Wei-Norman solutions
(when available), and domain notes.

Actions are written in the same convention as the group charts: the
curve through the identity reconstructed from Wei-Norman exponents v
acts with coordinates -v; for a realization with action this makes
solve_via_group(wn_reconstruct(wn_solve(...))) reproduce solve_direct.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import catalog_algebra, eps_parameter
from .errors import UnknownNameError
from .groups import _mk_matrix_chart, get_chart
from .numerics import TimeGrid, Trajectory, cumulative_quadrature_samples
from .systems import LieSystemRealization
from .weinorman import ControlSignal, GroupCurve, WNProblem, wn_reconstruct, wn_solve


@dataclass
class CatalogEntry:
    name: str
    realization: LieSystemRealization
    used_channels: tuple            # 1-based algebra indices driven by controls
    wn_ordering: tuple | None = None
    wn_closed_form: object = None   # (controls, grid) -> states array
    closed_form: object = None      # (controls, grid, x0) -> Trajectory
    notes: str = ""

    @property
    def algebra(self):
        return self.realization.algebra

    def pad_controls(self, b: ControlSignal) -> ControlSignal:
        if b.dim == self.algebra.dim:
            return b
        return b.pad(self.algebra.dim, [i - 1 for i in self.used_channels])

    def ordering(self):
        return self.wn_ordering or tuple(range(1, self.algebra.dim + 1))

    def wn_group_curve(self, b: ControlSignal, grid: TimeGrid) -> GroupCurve:
        prob = WNProblem(self.algebra, self.pad_controls(b), grid, self.ordering())
        return wn_reconstruct(wn_solve(prob), self.ordering(), self.realization.action_chart)


_REGISTRY: dict = {}


def register(name):
    def deco(fn):
        _REGISTRY[name] = fn
        return fn
    return deco


_cache: dict = {}


def get_system(name: str, **params) -> CatalogEntry:
    key = (name, tuple(sorted(params.items())))
    if key in _cache:
        return _cache[key]
    if name not in _REGISTRY:
        raise UnknownNameError(f"unknown system {name!r}")
    entry = _REGISTRY[name](**params)
    _cache[key] = entry
    return entry


def list_systems():
    return sorted(_REGISTRY)


def _cum(samples, grid):
    return cumulative_quadrature_samples(np.asarray(samples), grid)


def _bsamp(b, grid, i):
    return b(grid.nodes)[:, i]


# ---------------------------------------------------------------------------
# Heisenberg family
# ---------------------------------------------------------------------------


def _h3_wn_closed(b, grid):
    b1 = _bsamp(b, grid, 0)
    b2 = _bsamp(b, grid, 1)
    B1 = _cum(b1, grid)
    return np.column_stack([B1, _cum(b2, grid), _cum(b2 * B1, grid)])


@register("brockett")
def _brockett():
    alg = catalog_algebra("h3")
    chart = get_chart("H3", "canonical_second", (1, 2, 3))

    gens = [
        lambda x: np.array([1.0, 0.0, -x[1]]),
        lambda x: np.array([0.0, 1.0, x[0]]),
        lambda x: np.array([0.0, 0.0, 2.0]),
    ]

    def action(g, x):
        a, b, c = g.coords
        return np.array([x[0] - a, x[1] - b,
                         x[2] + a * x[1] - b * x[0] - a * b - 2.0 * c])

    sys = LieSystemRealization(alg, 3, gens, action, chart, name="brockett")

    def closed_form(b, grid, x0):
        v = _h3_wn_closed(b, grid)
        x0 = np.asarray(x0, dtype=float)
        out = np.column_stack([
            x0[0] + v[:, 0], x0[1] + v[:, 1],
            x0[2] + x0[0] * v[:, 1] - x0[1] * v[:, 0] - v[:, 0] * v[:, 1] + 2.0 * v[:, 2]])
        return Trajectory(grid, out, meta="brockett closed form")

    return CatalogEntry("brockett", sys, (1, 2), wn_closed_form=_h3_wn_closed,
                        closed_form=closed_form)


@register("brockett_variant")
def _brockett_variant():
    alg = catalog_algebra("h3")
    chart = get_chart("H3", "canonical_second", (1, 2, 3))
    gens = [
        lambda x: np.array([1.0, 0.0, -x[1]]),
        lambda x: np.array([0.0, 1.0, 0.0]),
        lambda x: np.array([0.0, 0.0, 1.0]),
    ]

    def action(g, x):
        a, b, c = g.coords
        return np.array([x[0] - a, x[1] - b, x[2] + a * x[1] - a * b - c])

    sys = LieSystemRealization(alg, 3, gens, action, chart, name="brockett_variant")
    return CatalogEntry("brockett_variant", sys, (1, 2), wn_closed_form=_h3_wn_closed)


@register("hopping_robot_lin")
def _hopping(m_l: float = 1.0):
    alg = catalog_algebra("h3")
    chart = get_chart("H3", "canonical_second", (1, 2, 3))
    k1 = m_l / (1.0 + m_l)
    k2 = 2.0 * m_l / (1.0 + m_l) ** 2
    gens = [
        lambda x: np.array([1.0, 0.0, -(k1 + k2 * x[1])]),
        lambda x: np.array([0.0, 1.0, 0.0]),
        lambda x: np.array([0.0, 0.0, k2]),
    ]

    def action(g, x):
        a, b, c = g.coords
        return np.array([x[0] - a, x[1] - b,
                         x[2] + k2 * (a * x[1] - c - a * b) + a * k1])

    sys = LieSystemRealization(alg, 3, gens, action, chart, name="hopping_robot_lin")
    return CatalogEntry("hopping_robot_lin", sys, (1, 2), wn_closed_form=_h3_wn_closed,
                        notes="Taylor approximation linear in the leg extension")


@register("unicycle_feedback")
def _unicycle_feedback():
    alg = catalog_algebra("h3")
    chart = get_chart("H3", "canonical_second", (1, 2, 3))
    gens = [
        lambda x: np.array([0.0, 0.0, math.cos(x[2]) ** 2]),
        lambda x: np.array([math.tan(x[2]), 1.0, 0.0]),
        lambda x: np.array([1.0, 0.0, 0.0]),
    ]

    def action(g, x):
        a, b, c = g.coords
        return np.array([x[0] - c - b * math.tan(x[2]), x[1] - b,
                         math.atan(math.tan(x[2]) - a)])

    sys = LieSystemRealization(
        alg, 3, gens, action, chart,
        domain=lambda x: abs(x[2]) < math.pi / 2 - 1e-9,
        name="unicycle_feedback",
        domain_note="steering angle restricted to (-pi/2, pi/2)")
    return CatalogEntry("unicycle_feedback", sys, (1, 2), wn_closed_form=_h3_wn_closed)


# ---------------------------------------------------------------------------
# rigid body with two oscillators (G4)
# ---------------------------------------------------------------------------


@register("rb_two_oscillators")
def _rb_two():
    alg = catalog_algebra("g4")
    chart = get_chart("G4", "canonical_second", (1, 2, 3, 4))
    gens = [
        lambda x: np.array([1.0, 0.0, -x[1] ** 2]),
        lambda x: np.array([0.0, 1.0, x[0] ** 2]),
        lambda x: np.array([0.0, 0.0, 2.0 * (x[0] + x[1])]),
        lambda x: np.array([0.0, 0.0, 2.0]),
    ]

    def action(g, x):
        a, b, c, d = g.coords
        return np.array([
            x[0] - a, x[1] - b,
            x[2] + a * x[1] ** 2 - b * x[0] ** 2 - 2.0 * (a * b + c) * x[1]
            - 2.0 * c * x[0] + a * b * b - 2.0 * d])

    sys = LieSystemRealization(alg, 3, gens, action, chart, name="rb_two_oscillators")

    def wn_closed(b, grid):
        b1, b2 = _bsamp(b, grid, 0), _bsamp(b, grid, 1)
        B1, B2 = _cum(b1, grid), _cum(b2, grid)
        return np.column_stack([
            B1, B2, _cum(b2 * B1, grid),
            _cum(b2 * (0.5 * B1**2 + B1 * B2), grid)])

    return CatalogEntry("rb_two_oscillators", sys, (1, 2), wn_closed_form=wn_closed)


# ---------------------------------------------------------------------------
# Brockett extensions (G5, G7) and the non-sinusoid systems (G8)
# ---------------------------------------------------------------------------


@register("brockett_deg2")
def _brockett_deg2():
    alg = catalog_algebra("g5")
    chart = get_chart("G5", "canonical_second", (1, 2, 3, 4, 5))
    gens = [
        lambda x: np.array([1.0, 0.0, -x[1], 0.0, x[1] ** 2]),
        lambda x: np.array([0.0, 1.0, x[0], x[0] ** 2, 0.0]),
        lambda x: np.array([0.0, 0.0, 2.0, 2.0 * x[0], -2.0 * x[1]]),
        lambda x: np.array([0.0, 0.0, 0.0, 2.0, 0.0]),
        lambda x: np.array([0.0, 0.0, 0.0, 0.0, -2.0]),
    ]

    def action(g, x):
        a, b, c, d, e = g.coords
        return np.array([
            x[0] - a, x[1] - b,
            x[2] + a * x[1] - b * x[0] - 2.0 * c - a * b,
            x[3] - b * x[0] ** 2 - 2.0 * c * x[0] - 2.0 * d,
            x[4] - a * x[1] ** 2 + 2.0 * (a * b + c) * x[1] + 2.0 * e - a * b * b])

    sys = LieSystemRealization(alg, 5, gens, action, chart, name="brockett_deg2")

    def wn_closed(b, grid):
        b1, b2 = _bsamp(b, grid, 0), _bsamp(b, grid, 1)
        B1, B2 = _cum(b1, grid), _cum(b2, grid)
        return np.column_stack([
            B1, B2, _cum(b2 * B1, grid),
            0.5 * _cum(b2 * B1**2, grid), _cum(b2 * B1 * B2, grid)])

    return CatalogEntry("brockett_deg2", sys, (1, 2), wn_closed_form=wn_closed,
                        notes="plate-ball kinematics to second degree")


@register("nikolaev_deg2")
def _nikolaev2():
    alg = catalog_algebra("g5")
    gens = [
        lambda x: np.array([1.0, 0.0, 0.0, 0.0, 0.0]),
        lambda x: np.array([0.0, 1.0, x[0], x[0] ** 2, 2.0 * x[0] * x[1]]),
        lambda x: np.array([0.0, 0.0, 1.0, 2.0 * x[0], 2.0 * x[1]]),
        lambda x: np.array([0.0, 0.0, 0.0, 2.0, 0.0]),
        lambda x: np.array([0.0, 0.0, 0.0, 0.0, 2.0]),
    ]
    sys = LieSystemRealization(alg, 5, gens, name="nikolaev_deg2")
    return CatalogEntry("nikolaev_deg2", sys, (1, 2))


@register("brockett_deg3")
def _brockett_deg3():
    alg = catalog_algebra("g7")
    gens = [
        lambda x: np.array([1, 0, -x[1], 0, x[1] ** 2, 0, x[1] ** 3, x[0] ** 2 * x[1]], float),
        lambda x: np.array([0, 1, x[0], x[0] ** 2, 0, x[0] ** 3, 0, x[0] * x[1] ** 2], float),
        lambda x: np.array([0, 0, 2, 2 * x[0], -2 * x[1], 3 * x[0] ** 2, -3 * x[1] ** 2,
                            x[1] ** 2 - x[0] ** 2], float),
        lambda x: np.array([0, 0, 0, 2, 0, 6 * x[0], 0, -2 * x[0]], float),
        lambda x: np.array([0, 0, 0, 0, -2, 0, -6 * x[1], 2 * x[1]], float),
        lambda x: np.array([0, 0, 0, 0, 0, 6, 0, -2], float),
        lambda x: np.array([0, 0, 0, 0, 0, 0, -6, 2], float),
    ]
    sys = LieSystemRealization(alg, 8, gens, name="brockett_deg3")
    return CatalogEntry("brockett_deg3", sys, (1, 2),
                        notes="controllable orbit-wise only; no cataloged action")


@register("murray_nonsinusoid")
def _murray():
    alg = catalog_algebra("g8")
    gens = [
        lambda x: np.array([1, 0, 0, x[2], 0, x[3], 0, 0], float),
        lambda x: np.array([0, 1, x[0], 0, x[2], 0, x[3], x[4]], float),
        lambda x: np.array([0, 0, 1, -x[0], 0, 0, x[2], 0], float),
        lambda x: np.array([0, 0, 0, -2, 0, x[0], 0, 0], float),
        lambda x: np.array([0, 0, 0, 0, -1, 0, 2 * x[0], 0], float),
        lambda x: np.array([0, 0, 0, 0, 0, 3, 0, 0], float),
        lambda x: np.array([0, 0, 0, 0, 0, 0, 2, 0], float),
        lambda x: np.array([0, 0, 0, 0, 0, 0, 0, 1], float),
    ]
    sys = LieSystemRealization(alg, 8, gens, name="murray_nonsinusoid")

    def wn_closed(b, grid):
        b1, b2 = _bsamp(b, grid, 0), _bsamp(b, grid, 1)
        B1, B2 = _cum(b1, grid), _cum(b2, grid)
        return np.column_stack([
            B1, B2, _cum(b2 * B1, grid), 0.5 * _cum(b2 * B1**2, grid),
            _cum(b2 * B1 * B2, grid), _cum(b2 * B1**3, grid) / 6.0,
            0.5 * _cum(b2 * B1**2 * B2, grid), 0.5 * _cum(b2 * B1 * B2**2, grid)])

    return CatalogEntry("murray_nonsinusoid", sys, (1, 2), wn_closed_form=wn_closed,
                        notes="not steerable by simple sinusoids")


@register("nikolaev_deg8")
def _nikolaev8():
    alg = catalog_algebra("gbar", n=10)

    def gen(i):
        # X_1 = d/dx1; X_2 = d/dx2 + sum_j x1^(j+3) d/dx_{j+2};
        # X_k = [X_1, X_{k-1}] differentiates the powers in x1
        def f(x):
            out = np.zeros(7)
            if i == 0:
                out[0] = 1.0
                return out
            if i == 1:
                out[1] = 1.0
                for j in range(5):
                    out[2 + j] = x[0] ** (4 + j)
                return out
            order = i - 1
            for j in range(5):
                p = 4 + j
                if p - order >= 0:
                    coef = 1.0
                    for q in range(order):
                        coef *= (p - q)
                    out[2 + j] = coef * x[0] ** (p - order)
            return out
        return f

    sys = LieSystemRealization(alg, 7, [gen(i) for i in range(10)], name="nikolaev_deg8")
    return CatalogEntry("nikolaev_deg8", sys, (1, 2))


# ---------------------------------------------------------------------------
# SE(2): the unicycle and its straightened sibling
# ---------------------------------------------------------------------------


def _se2_wn_closed(b, grid):
    b1, b2 = _bsamp(b, grid, 0), _bsamp(b, grid, 1)
    B1 = _cum(b1, grid)
    return np.column_stack([
        B1, _cum(b2 * np.cos(B1), grid), _cum(b2 * np.sin(B1), grid)])


@register("unicycle")
def _unicycle():
    alg = catalog_algebra("se2")
    chart = get_chart("SE2", "canonical_second", (1, 2, 3))
    gens = [
        lambda x: np.array([0.0, 0.0, 1.0]),
        lambda x: np.array([math.sin(x[2]), math.cos(x[2]), 0.0]),
        lambda x: np.array([math.cos(x[2]), -math.sin(x[2]), 0.0]),
    ]

    def action(g, x):
        th, a, b = g.coords
        return np.array([
            x[0] - b * math.cos(x[2]) - a * math.sin(x[2]),
            x[1] + b * math.sin(x[2]) - a * math.cos(x[2]),
            x[2] - th])

    sys = LieSystemRealization(alg, 3, gens, action, chart, name="unicycle")

    def closed_form(b, grid, x0):
        v = _se2_wn_closed(b, grid)
        x0 = np.asarray(x0, dtype=float)
        out = np.column_stack([
            x0[0] + v[:, 2] * np.cos(x0[2]) + v[:, 1] * np.sin(x0[2]),
            x0[1] + v[:, 1] * np.cos(x0[2]) - v[:, 2] * np.sin(x0[2]),
            x0[2] + v[:, 0]])
        return Trajectory(grid, out, meta="unicycle closed form")

    return CatalogEntry("unicycle", sys, (1, 2), wn_closed_form=_se2_wn_closed,
                        closed_form=closed_form)


@register("unicycle_y")
def _unicycle_y():
    alg = catalog_algebra("se2")
    chart = get_chart("SE2", "canonical_second", (1, 2, 3))
    gens = [
        lambda x: np.array([1.0, x[2], -x[1]]),
        lambda x: np.array([0.0, 1.0, 0.0]),
        lambda x: np.array([0.0, 0.0, 1.0]),
    ]

    def action(g, x):
        th, a, b = g.coords
        ct, st = math.cos(th), math.sin(th)
        return np.array([
            x[0] - th,
            x[1] * ct - x[2] * st - a * ct + b * st,
            x[1] * st + x[2] * ct - a * st - b * ct])

    sys = LieSystemRealization(alg, 3, gens, action, chart, name="unicycle_y")
    return CatalogEntry("unicycle_y", sys, (1, 2), wn_closed_form=_se2_wn_closed)


# ---------------------------------------------------------------------------
# chained and power forms (Gbar_n)
# ---------------------------------------------------------------------------


@register("kinematic_car_chained")
def _kinematic_car():
    alg = catalog_algebra("gbar", n=4)
    chart = get_chart("Gbar4", "canonical_second", (1, 2, 3, 4))
    gens = [
        lambda x: np.array([1.0, 0.0, x[1], x[2]]),
        lambda x: np.array([0.0, 1.0, 0.0, 0.0]),
        lambda x: np.array([0.0, 0.0, -1.0, 0.0]),
        lambda x: np.array([0.0, 0.0, 0.0, 1.0]),
    ]

    def action(g, x):
        a, b, c, d = g.coords
        return np.array([
            x[0] - a, x[1] - b,
            x[2] - a * x[1] + a * b + c,
            x[3] - a * x[2] + 0.5 * a * a * x[1] - 0.5 * a * a * b - a * c - d])

    sys = LieSystemRealization(alg, 4, gens, action, chart, name="kinematic_car_chained")

    def wn_closed(b, grid):
        b1, b2 = _bsamp(b, grid, 0), _bsamp(b, grid, 1)
        B1, B2 = _cum(b1, grid), _cum(b2, grid)
        return np.column_stack([
            B1, B2, _cum(b2 * B1, grid), 0.5 * _cum(b2 * B1**2, grid)])

    return CatalogEntry("kinematic_car_chained", sys, (1, 2), wn_closed_form=wn_closed,
                        notes="front-wheel car after feedback nilpotentization")


@register("martinet")
def _martinet():
    alg = catalog_algebra("gbar", n=4)
    chart = get_chart("Gbar4", "canonical_second", (1, 2, 3, 4))
    gens = [
        lambda x: np.array([0.0, 1.0, 0.0, 0.0]),
        lambda x: np.array([1.0, 0.0, x[1], 0.5 * x[1] ** 2]),
        lambda x: np.array([0.0, 0.0, 1.0, x[1]]),
        lambda x: np.array([0.0, 0.0, 0.0, 1.0]),
    ]

    def action(g, x):
        a, b, c, d = g.coords
        return np.array([
            x[0] - b, x[1] - a,
            x[2] - c - b * x[1],
            x[3] - d - c * x[1] - 0.5 * b * x[1] ** 2])

    sys = LieSystemRealization(alg, 4, gens, action, chart, name="martinet")
    return CatalogEntry("martinet", sys, (1, 2), notes="abnormal-extremal test bed")


def _power_generators(n, dim=None):
    # X_{a_1} = d/dx1; X_{a_j} = d/dx_j + sum_{k>j} x1^(k-j)/(k-j)! d/dx_k
    dim = dim or n
    def gen(i):
        def f(x):
            out = np.zeros(dim)
            if i == 0:
                out[0] = 1.0
                return out
            out[i] = 1.0
            fact = 1.0
            for k in range(i + 2, dim + 1):
                fact *= (k - i - 1)
                out[k - 1] = x[0] ** (k - i - 1) / fact
            return out
        return f
    return [gen(i) for i in range(n)]


@register("trailer_power5")
def _trailer():
    alg = catalog_algebra("gbar", n=5)
    chart = get_chart("Gbar5", "canonical_second", (1, 2, 3, 4, 5))
    gens = _power_generators(5)

    def action(g, x):
        a, b, c, d, e = g.coords
        return np.array([
            x[0] - a, x[1] - b,
            x[2] - b * x[0] - c,
            x[3] - 0.5 * b * x[0] ** 2 - c * x[0] - d,
            x[4] - b * x[0] ** 3 / 6.0 - 0.5 * c * x[0] ** 2 - d * x[0] - e])

    sys = LieSystemRealization(alg, 5, gens, action, chart, name="trailer_power5")

    def wn_closed(b, grid):
        b1, b2 = _bsamp(b, grid, 0), _bsamp(b, grid, 1)
        B1, B2 = _cum(b1, grid), _cum(b2, grid)
        return np.column_stack([
            B1, B2, _cum(b2 * B1, grid), 0.5 * _cum(b2 * B1**2, grid),
            _cum(b2 * B1**3, grid) / 6.0])

    return CatalogEntry("trailer_power5", sys, (1, 2), wn_closed_form=wn_closed,
                        notes="car-trailer after two feedback transformations; the "
                              "original trailer realization has no simple action")


@register("chained_n")
def _chained(n: int = 4):
    if not 3 <= n <= 10:
        raise UnknownNameError("chained_n supports 3 <= n <= 10")
    alg = catalog_algebra("gbar", n=n)

    def gen(i):
        def f(x):
            out = np.zeros(n)
            if i == 0:
                out[0] = 1.0
                out[2:] = x[1:n - 1]
                return out
            if i == 1:
                out[1] = 1.0
            else:
                out[i] = (-1.0) ** (i + 1)
            return out
        return f

    sys = LieSystemRealization(alg, n, [gen(i) for i in range(n)], name=f"chained_{n}")
    return CatalogEntry("chained_n", sys, (1, 2))


@register("power_n")
def _power(n: int = 4):
    if not 3 <= n <= 10:
        raise UnknownNameError("power_n supports 3 <= n <= 10")
    alg = catalog_algebra("gbar", n=n)
    sys = LieSystemRealization(alg, n, _power_generators(n), name=f"power_{n}")
    return CatalogEntry("power_n", sys, (1, 2))


# ---------------------------------------------------------------------------
# elastic Euler problem, SO(3) and SE(3) kinematics
# ---------------------------------------------------------------------------


@register("elastic_euler")
def _elastic(eps: int = 1):
    eps = eps_parameter(eps)
    alg = catalog_algebra("g_eps", eps=eps)
    chart = get_chart("Geps", "matrix", eps=eps)
    gens = [
        lambda x: np.array([-x[1], x[0], 0.0]),
        lambda x: np.array([x[2], 0.0, -eps * x[0]]),
        lambda x: np.array([0.0, -x[2], eps * x[1]]),
    ]

    def action(g, x):
        return g.matrix() @ np.asarray(x, dtype=float)

    sys = LieSystemRealization(alg, 3, gens, action, chart, name=f"elastic_euler(eps={eps:+d})")
    return CatalogEntry("elastic_euler", sys, (1, 2, 3),
                        notes="generalized elastic problem; eps in {-1, 0, 1}")


@register("so3_kinematics")
def _so3_kin():
    alg = catalog_algebra("so3")
    chart = get_chart("SO3", "matrix")
    gens = [
        lambda x: np.array([-x[1], x[0], 0.0]),
        lambda x: np.array([x[2], 0.0, -x[0]]),
        lambda x: np.array([0.0, -x[2], x[1]]),
    ]

    def action(g, x):
        return g.matrix() @ np.asarray(x, dtype=float)

    sys = LieSystemRealization(alg, 3, gens, action, chart, name="so3_kinematics")
    return CatalogEntry("so3_kinematics", sys, (1, 2, 3))


@register("se3_kinematics")
def _se3_kin():
    alg = catalog_algebra("se3")
    chart = get_chart("SE3", "matrix")
    gens = [
        lambda x: np.array([-x[1], x[0], 0.0]),
        lambda x: np.array([x[2], 0.0, -x[0]]),
        lambda x: np.array([0.0, -x[2], x[1]]),
        lambda x: np.array([1.0, 0.0, 0.0]),
        lambda x: np.array([0.0, 1.0, 0.0]),
        lambda x: np.array([0.0, 0.0, 1.0]),
    ]

    def action(g, x):
        M = g.matrix()
        return M[:3, :3] @ np.asarray(x, dtype=float) + M[:3, 3]

    sys = LieSystemRealization(alg, 3, gens, action, chart, name="se3_kinematics")
    return CatalogEntry("se3_kinematics", sys, (1, 2, 3, 4, 5, 6))


# ---------------------------------------------------------------------------
# Hamiltonian examples (classical flows)
# ---------------------------------------------------------------------------


def _affine_rep_from_fields(mats, trans):
    """Algebra rep for an affine action: A_i = -(linear | translation)."""
    out = []
    for M, t in zip(mats, trans):
        A = np.zeros((3, 3))
        A[:2, :2] = -np.asarray(M)
        A[:2, 2] = -np.asarray(t)
        out.append(A)
    return out


_quadh_chart = None


def _get_quadh_chart():
    global _quadh_chart
    if _quadh_chart is None:
        alg = catalog_algebra("r2sl2")
        mats = [np.array([[0.0, 1.0], [0.0, 0.0]]),
                np.array([[0.5, 0.0], [0.0, -0.5]]),
                np.array([[0.0, 0.0], [-1.0, 0.0]]),
                np.zeros((2, 2)), np.zeros((2, 2))]
        trans = [np.zeros(2), np.zeros(2), np.zeros(2),
                 np.array([-1.0, 0.0]), np.array([0.0, -1.0])]
        _quadh_chart = _mk_matrix_chart("QuadH", alg, _affine_rep_from_fields(mats, trans))
    return _quadh_chart


@register("quadratic_hamiltonian_classical")
def _quadh():
    alg = catalog_algebra("r2sl2")
    chart = _get_quadh_chart()
    gens = [
        lambda x: np.array([x[1], 0.0]),
        lambda x: np.array([0.5 * x[0], -0.5 * x[1]]),
        lambda x: np.array([0.0, -x[0]]),
        lambda x: np.array([-1.0, 0.0]),
        lambda x: np.array([0.0, -1.0]),
    ]

    def action(g, x):
        M = g.matrix()
        return M[:2, :2] @ np.asarray(x, dtype=float) + M[:2, 2]

    sys = LieSystemRealization(alg, 2, gens, action, chart,
                               name="quadratic_hamiltonian_classical")
    return CatalogEntry("quadratic_hamiltonian_classical", sys, (1, 2, 3, 4, 5),
                        wn_ordering=(4, 5, 1, 2, 3),
                        notes="b = (alpha, beta, gamma, -delta, epsilon) from the "
                              "quadratic Hamiltonian")


_tdlin_chart = None


def _get_tdlin_chart():
    global _tdlin_chart
    if _tdlin_chart is None:
        alg = catalog_algebra("h3c")
        mats = [np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((2, 2)), np.zeros((2, 2))]
        trans = [np.zeros(2), np.array([0.0, 1.0]), np.array([1.0, 0.0])]
        _tdlin_chart = _mk_matrix_chart("TdLin", alg, _affine_rep_from_fields(mats, trans))
    return _tdlin_chart


@register("td_linear_potential_classical")
def _tdlin(m: float = 1.0):
    alg = catalog_algebra("h3c")
    chart = _get_tdlin_chart()
    gens = [
        lambda x: np.array([x[1], 0.0]),
        lambda x: np.array([0.0, 1.0]),
        lambda x: np.array([1.0, 0.0]),
    ]

    def action(g, x):
        M = g.matrix()
        return M[:2, :2] @ np.asarray(x, dtype=float) + M[:2, 2]

    sys = LieSystemRealization(alg, 2, gens, action, chart,
                               name="td_linear_potential_classical")

    def closed_form(b, grid, x0):
        # controls are b = (1/m, -f, 0); closed flow by two quadratures
        f_vals = -_bsamp(b, grid, 1)
        mi = _bsamp(b, grid, 0)
        F1 = _cum(f_vals, grid)
        F2 = _cum(F1 * mi, grid)
        q0, p0 = float(x0[0]), float(x0[1])
        q = q0 + p0 * _cum(mi, grid) - F2
        p = p0 - F1
        return Trajectory(grid, np.column_stack([q, p]), meta="linear-potential flow")

    return CatalogEntry("td_linear_potential_classical", sys, (1, 2),
                        closed_form=closed_form,
                        notes="controls (1/m, -f(t)); flow by two quadratures")


@register("driven_oscillator")
def _driven_osc():
    alg = catalog_algebra("oscq")
    gens = [
        lambda x: np.array([x[1], -x[0]]),
        lambda x: np.array([0.0, -1.0]),
        lambda x: np.array([1.0, 0.0]),
        lambda x: np.array([0.0, 0.0]),
    ]

    def wn_closed(b, grid):
        b1, b2 = _bsamp(b, grid, 0), _bsamp(b, grid, 1)
        B1 = _cum(b1, grid)
        v2 = _cum(b2 * np.cos(B1), grid)
        v3 = _cum(b2 * np.sin(B1), grid)
        v4 = _cum(v2 * b2 * np.sin(B1), grid)
        return np.column_stack([B1, v2, v3, v4])

    def closed_form(b, grid, x0):
        v = wn_closed(b, grid)
        q0, p0 = float(x0[0]), float(x0[1])
        qi = q0 + v[:, 2]
        pi = p0 - v[:, 1]
        c, s = np.cos(v[:, 0]), np.sin(v[:, 0])
        return Trajectory(grid, np.column_stack([qi * c + pi * s, -qi * s + pi * c]),
                          meta="driven oscillator flow")

    sys = LieSystemRealization(alg, 2, gens, name="driven_oscillator")
    return CatalogEntry("driven_oscillator", sys, (1, 2), wn_closed_form=wn_closed,
                        closed_form=closed_form,
                        notes="controls (omega(t), f(t)); central channel acts trivially "
                              "on the classical phase space")


# ---------------------------------------------------------------------------
# SL(2) and SL(3) families
# ---------------------------------------------------------------------------


def _homography(M, y):
    den = M[1, 0] * y + M[1, 1]
    return (M[0, 0] * y + M[0, 1]) / den


@register("sl2_riccati_pair")
def _sl2_pair():
    alg = catalog_algebra("sl2")
    chart = get_chart("SL2", "matrix")
    gens = [
        lambda x: np.array([1.0, 1.0]),
        lambda x: np.array([x[0], x[1]]),
        lambda x: np.array([x[0] ** 2, x[1] ** 2]),
    ]

    def action(g, x):
        M = g.matrix()
        return np.array([_homography(M, x[0]), _homography(M, x[1])])

    sys = LieSystemRealization(alg, 2, gens, action, chart, name="sl2_riccati_pair")
    return CatalogEntry("sl2_riccati_pair", sys, (1, 2, 3))


@register("sl2_linear")
def _sl2_linear():
    alg = catalog_algebra("sl2")
    chart = get_chart("SL2", "matrix")
    gens = [
        lambda x: np.array([x[1], 0.0]),
        lambda x: np.array([0.5 * x[0], -0.5 * x[1]]),
        lambda x: np.array([0.0, -x[0]]),
    ]

    def action(g, x):
        return g.matrix() @ np.asarray(x, dtype=float)

    sys = LieSystemRealization(alg, 2, gens, action, chart, name="sl2_linear")
    return CatalogEntry("sl2_linear", sys, (1, 2, 3))


@register("sl2_complex")
def _sl2_complex():
    alg = catalog_algebra("sl2")
    chart = get_chart("SL2", "matrix")
    gens = [
        lambda x: np.array([1.0, 0.0]),
        lambda x: np.array([x[0], x[1]]),
        lambda x: np.array([x[0] ** 2 - x[1] ** 2, 2.0 * x[0] * x[1]]),
    ]

    def action(g, x):
        M = g.matrix()
        u = complex(x[0], x[1])
        w = (M[0, 0] * u + M[0, 1]) / (M[1, 0] * u + M[1, 1])
        return np.array([w.real, w.imag])

    sys = LieSystemRealization(alg, 2, gens, action, chart, name="sl2_complex")
    return CatalogEntry("sl2_complex", sys, (1, 2, 3),
                        notes="real/imaginary split of the complex Riccati equation")


@register("sl2_mixed_1")
def _sl2_mixed1():
    alg = catalog_algebra("sl2")
    chart = get_chart("SL2", "matrix")
    gens = [
        lambda x: np.array([1.0, 0.0]),
        lambda x: np.array([x[0], 0.5 * x[1]]),
        lambda x: np.array([x[0] ** 2, x[0] * x[1]]),
    ]

    def action(g, x):
        M = g.matrix()
        den = M[1, 0] * x[0] + M[1, 1]
        return np.array([_homography(M, x[0]), x[1] / den])

    sys = LieSystemRealization(alg, 2, gens, action, chart, name="sl2_mixed_1")
    return CatalogEntry("sl2_mixed_1", sys, (1, 2, 3))


@register("sl2_mixed_2")
def _sl2_mixed2():
    alg = catalog_algebra("sl2")
    chart = get_chart("SL2", "matrix")
    gens = [
        lambda x: np.array([1.0, 0.0]),
        lambda x: np.array([x[0], -x[1]]),
        lambda x: np.array([x[0] ** 2, -(2.0 * x[0] * x[1] + 1.0)]),
    ]

    def action(g, x):
        M = g.matrix()
        al, be, ga, de = M[0, 0], M[0, 1], M[1, 0], M[1, 1]
        den = ga * x[0] + de
        return np.array([
            _homography(M, x[0]),
            den * (ga * (1.0 + x[0] * x[1]) + de * x[1])])

    sys = LieSystemRealization(alg, 2, gens, action, chart, name="sl2_mixed_2")
    return CatalogEntry("sl2_mixed_2", sys, (1, 2, 3))


@register("sl3_matrix_riccati")
def _sl3_riccati():
    alg = catalog_algebra("sl3")
    chart = get_chart("SL3", "matrix")
    gens = [
        lambda x: np.array([x[1], 0.0]),
        lambda x: np.array([0.5 * x[0], -0.5 * x[1]]),
        lambda x: np.array([0.0, -x[0]]),
        lambda x: np.array([0.5 * x[0], 0.5 * x[1]]),
        lambda x: np.array([1.0, 0.0]),
        lambda x: np.array([0.0, 1.0]),
        lambda x: np.array([x[0] ** 2, x[0] * x[1]]),
        lambda x: np.array([x[0] * x[1], x[1] ** 2]),
    ]

    def action(g, x):
        M = g.matrix()
        Y = np.asarray(x, dtype=float)
        den = M[2, :2] @ Y + M[2, 2]
        return (M[:2, :2] @ Y + M[:2, 2]) / den

    sys = LieSystemRealization(alg, 2, gens, action, chart, name="sl3_matrix_riccati")
    return CatalogEntry("sl3_matrix_riccati", sys, tuple(range(1, 9)),
                        notes="projective action on the plane; matrix Riccati equation")


@register("sl3_linear")
def _sl3_linear():
    alg = catalog_algebra("sl3")
    chart = get_chart("SL3", "matrix")
    gens = [
        lambda x: np.array([x[1], 0.0, 0.0]),
        lambda x: np.array([0.5 * x[0], -0.5 * x[1], 0.0]),
        lambda x: np.array([0.0, -x[0], 0.0]),
        lambda x: np.array([x[0] / 6.0, x[1] / 6.0, -x[2] / 3.0]),
        lambda x: np.array([x[2], 0.0, 0.0]),
        lambda x: np.array([0.0, x[2], 0.0]),
        lambda x: np.array([0.0, 0.0, -x[0]]),
        lambda x: np.array([0.0, 0.0, -x[1]]),
    ]

    def action(g, x):
        return g.matrix() @ np.asarray(x, dtype=float)

    sys = LieSystemRealization(alg, 3, gens, action, chart, name="sl3_linear")
    return CatalogEntry("sl3_linear", sys, tuple(range(1, 9)))


# ---------------------------------------------------------------------------
# scalar affine equation and the y-z auxiliary system
# ---------------------------------------------------------------------------


@register("affine_scalar")
def _affine_scalar():
    alg = catalog_algebra("aff")
    chart = get_chart("Aff", "canonical_second", (1, 2))
    gens = [
        lambda x: np.array([1.0]),
        lambda x: np.array([x[0]]),
    ]

    def action(g, x):
        a, b = g.coords
        return np.array([math.exp(-b) * x[0] - a])

    sys = LieSystemRealization(alg, 1, gens, action, chart, name="affine_scalar")

    def closed_form(b, grid, x0):
        b1, b2 = _bsamp(b, grid, 0), _bsamp(b, grid, 1)
        B2 = _cum(b2, grid)
        inner = _cum(b1 * np.exp(-B2), grid)
        y = np.exp(B2) * (float(x0[0]) + inner)
        return Trajectory(grid, y[:, None], meta="affine closed form")

    return CatalogEntry("affine_scalar", sys, (1, 2), closed_form=closed_form,
                        notes="dy/dt = b2 y + b1")


@register("yz_physics")
def _yz():
    alg = catalog_algebra("r2sl2yz")
    gens = [
        lambda x: np.array([1.0, 0.0]),
        lambda x: np.array([x[0], 0.5 * x[1]]),
        lambda x: np.array([x[0] ** 2, x[0] * x[1]]),
        lambda x: np.array([0.0, 1.0]),
        lambda x: np.array([0.0, x[0]]),
    ]
    sys = LieSystemRealization(alg, 2, gens, name="yz_physics")
    return CatalogEntry("yz_physics", sys, (1, 2, 3, 4, 5),
                        notes="y' + y^2 = a, z' + yz = b is b = (a, 0, -1, b, 0)")
