"""Registry of the concrete Lie systems in the catalog: realization,
algebra, group action (when available), closed-form Wei-Norman solutions
(when available), and domain notes.

Each realization gives its fields stacked and batched: `fields(x)` takes
(..., state_dim) states and returns the (..., r, state_dim) array whose row
a is X_a(x) at each state.  The rows are written over the state components
x[..., i] (`_coords`, `_stacked`), so one state and a batch run the same
array arithmetic and give the same bits; a domain is a (...) bool array of
the same components.  A matrix group acting linearly
or by affine maps needs no hand-written rows: its fields are read off the
chart's representation, X_a(x) = -A_a x (`_linear_system`) or
X_a(x) = -(L_a x + c_a) for A_a = [[L_a, c_a], [0, 0]] (`_affine_system`).
Each action takes
(..., coord_dim) chart coordinates g and one state x: canonical charts
unpack g with `g.T`, as the chart laws do, and matrix charts reshape it into
matrices, so a whole curve moves x in one call.

Actions are written in the same convention as the group charts: the
curve through the identity reconstructed from Wei-Norman exponents v
acts with coordinates -v; for a realization with action this makes
solve_via_group(wn_reconstruct(wn_solve(...))) reproduce solve_direct,
and a closed flow is the action of the closed-form exponents, -v, on x0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import catalog_algebra, eps_parameter
from .errors import UnknownNameError
from .groups import _mk_matrix_chart, _square, get_chart
from .numerics import TimeGrid, Trajectory, cumulative_quadrature_samples
from .systems import LieSystemRealization, _homography
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


def _coords(x):
    """The components x[..., i] of (..., d) states: (...) arrays, 0-d for
    one state, so that one state takes array arithmetic as a batch does."""
    x = np.asarray(x, dtype=float)
    return [x[..., i] for i in range(x.shape[-1])]


def _stacked(x, rows):
    """The (..., r, d) stacked field at the (..., d) states x, from its r rows
    of d entries, each a number or a (...) array over the states."""
    out = np.empty(np.shape(x)[:-1] + (len(rows), len(rows[0])))
    for a, row in enumerate(rows):
        for i, entry in enumerate(row):
            out[..., a, i] = entry
    return out


def _matrix_field(mats):
    """x -> (..., r, d) rows A_a x of the (r, d, d) matrices `mats`: one
    stack of matrix-vector products over the states."""
    flat = np.ascontiguousarray(mats).reshape(-1, mats.shape[-1])

    def field(x):
        x = np.asarray(x, dtype=float)
        return (flat @ x[..., None])[..., 0].reshape(x.shape[:-1] + mats.shape[:2])

    return field


def _linear_action(g, x):
    """x -> G x: a matrix group on its defining space."""
    return _square(g) @ np.asarray(x, dtype=float)


def _affine_action(g, x):
    """x -> A x + c for g = [[A, c], [0, 1]]."""
    M = _square(g)
    return M[..., :-1, :-1] @ np.asarray(x, dtype=float) + M[..., :-1, -1]


def _linear_system(chart, name):
    """The matrix group of `chart` acting linearly on its defining space:
    the fields X_a(x) = -A_a x of its representation A_a."""
    rep = np.stack(chart.algebra_rep)
    return LieSystemRealization(chart.algebra, rep.shape[-1], _matrix_field(-rep),
                                _linear_action, chart, name=name)


def _affine_system(chart, name):
    """The matrix group of `chart`, with representation A_a = [[L_a, c_a],
    [0, 0]], acting by affine maps: the fields X_a(x) = -(L_a x + c_a)."""
    rep = np.stack(chart.algebra_rep)
    field, c = _matrix_field(-rep[:, :-1, :-1]), -rep[:, :-1, -1]
    return LieSystemRealization(chart.algebra, c.shape[-1], lambda x: field(x) + c,
                                _affine_action, chart, name=name)


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

    def fields(x):
        x0, x1, _ = _coords(x)
        return _stacked(x, [[1.0, 0.0, -x1], [0.0, 1.0, x0], [0.0, 0.0, 2.0]])

    def action(g, x):
        a, b, c = g.T
        return np.array([x[0] - a, x[1] - b,
                         x[2] + a * x[1] - b * x[0] - a * b - 2.0 * c]).T

    sys = LieSystemRealization(alg, 3, fields, action, chart, name="brockett")

    def closed_form(b, grid, x0):
        return Trajectory(grid, action(-_h3_wn_closed(b, grid), x0), meta="brockett closed form")

    return CatalogEntry("brockett", sys, (1, 2), wn_closed_form=_h3_wn_closed,
                        closed_form=closed_form)


@register("brockett_variant")
def _brockett_variant():
    alg = catalog_algebra("h3")
    chart = get_chart("H3", "canonical_second", (1, 2, 3))

    def fields(x):
        _, x1, _ = _coords(x)
        return _stacked(x, [[1.0, 0.0, -x1], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])

    def action(g, x):
        a, b, c = g.T
        return np.array([x[0] - a, x[1] - b, x[2] + a * x[1] - a * b - c]).T

    sys = LieSystemRealization(alg, 3, fields, action, chart, name="brockett_variant")
    return CatalogEntry("brockett_variant", sys, (1, 2), wn_closed_form=_h3_wn_closed)


@register("hopping_robot_lin")
def _hopping(m_l: float = 1.0):
    alg = catalog_algebra("h3")
    chart = get_chart("H3", "canonical_second", (1, 2, 3))
    k1 = m_l / (1.0 + m_l)
    k2 = 2.0 * m_l / (1.0 + m_l) ** 2

    def fields(x):
        _, x1, _ = _coords(x)
        return _stacked(x, [[1.0, 0.0, -(k1 + k2 * x1)], [0.0, 1.0, 0.0], [0.0, 0.0, k2]])

    def action(g, x):
        a, b, c = g.T
        return np.array([x[0] - a, x[1] - b,
                         x[2] + k2 * (a * x[1] - c - a * b) + a * k1]).T

    sys = LieSystemRealization(alg, 3, fields, action, chart, name="hopping_robot_lin")
    return CatalogEntry("hopping_robot_lin", sys, (1, 2), wn_closed_form=_h3_wn_closed,
                        notes="Taylor approximation linear in the leg extension")


@register("unicycle_feedback")
def _unicycle_feedback():
    alg = catalog_algebra("h3")
    chart = get_chart("H3", "canonical_second", (1, 2, 3))

    def fields(x):
        x2 = _coords(x)[2]
        c = np.cos(x2)
        return _stacked(x, [[0.0, 0.0, c * c], [np.tan(x2), 1.0, 0.0], [1.0, 0.0, 0.0]])

    def action(g, x):
        a, b, c = g.T
        tan = math.tan(x[2])
        return np.array([x[0] - c - b * tan, x[1] - b, np.arctan(tan - a)]).T

    sys = LieSystemRealization(
        alg, 3, fields, action, chart,
        domain=lambda x: np.abs(_coords(x)[2]) < math.pi / 2 - 1e-9,
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

    def fields(x):
        x0, x1, _ = _coords(x)
        return _stacked(x, [[1.0, 0.0, -x1 ** 2], [0.0, 1.0, x0 ** 2],
                            [0.0, 0.0, 2.0 * (x0 + x1)], [0.0, 0.0, 2.0]])

    def action(g, x):
        a, b, c, d = g.T
        return np.array([
            x[0] - a, x[1] - b,
            x[2] + a * x[1] ** 2 - b * x[0] ** 2 - 2.0 * (a * b + c) * x[1]
            - 2.0 * c * x[0] + a * b * b - 2.0 * d]).T

    sys = LieSystemRealization(alg, 3, fields, action, chart, name="rb_two_oscillators")

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

    def fields(x):
        x0, x1 = _coords(x)[:2]
        return _stacked(x, [
            [1.0, 0.0, -x1, 0.0, x1 ** 2],
            [0.0, 1.0, x0, x0 ** 2, 0.0],
            [0.0, 0.0, 2.0, 2.0 * x0, -2.0 * x1],
            [0.0, 0.0, 0.0, 2.0, 0.0],
            [0.0, 0.0, 0.0, 0.0, -2.0],
        ])

    def action(g, x):
        a, b, c, d, e = g.T
        return np.array([
            x[0] - a, x[1] - b,
            x[2] + a * x[1] - b * x[0] - 2.0 * c - a * b,
            x[3] - b * x[0] ** 2 - 2.0 * c * x[0] - 2.0 * d,
            x[4] - a * x[1] ** 2 + 2.0 * (a * b + c) * x[1] + 2.0 * e - a * b * b]).T

    sys = LieSystemRealization(alg, 5, fields, action, chart, name="brockett_deg2")

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

    def fields(x):
        x0, x1 = _coords(x)[:2]
        return _stacked(x, [
            [1.0, 0.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, x0, x0 ** 2, 2.0 * x0 * x1],
            [0.0, 0.0, 1.0, 2.0 * x0, 2.0 * x1],
            [0.0, 0.0, 0.0, 2.0, 0.0],
            [0.0, 0.0, 0.0, 0.0, 2.0],
        ])

    sys = LieSystemRealization(alg, 5, fields, name="nikolaev_deg2")
    return CatalogEntry("nikolaev_deg2", sys, (1, 2))


@register("brockett_deg3")
def _brockett_deg3():
    alg = catalog_algebra("g7")

    def fields(x):
        x0, x1 = _coords(x)[:2]
        return _stacked(x, [
            [1, 0, -x1, 0, x1 ** 2, 0, x1 ** 3, x0 ** 2 * x1],
            [0, 1, x0, x0 ** 2, 0, x0 ** 3, 0, x0 * x1 ** 2],
            [0, 0, 2, 2 * x0, -2 * x1, 3 * x0 ** 2, -3 * x1 ** 2, x1 ** 2 - x0 ** 2],
            [0, 0, 0, 2, 0, 6 * x0, 0, -2 * x0],
            [0, 0, 0, 0, -2, 0, -6 * x1, 2 * x1],
            [0, 0, 0, 0, 0, 6, 0, -2],
            [0, 0, 0, 0, 0, 0, -6, 2],
        ])

    sys = LieSystemRealization(alg, 8, fields, name="brockett_deg3")
    return CatalogEntry("brockett_deg3", sys, (1, 2),
                        notes="controllable orbit-wise only; no cataloged action")


@register("murray_nonsinusoid")
def _murray():
    alg = catalog_algebra("g8")

    def fields(x):
        x0, _, x2, x3, x4 = _coords(x)[:5]
        return _stacked(x, [
            [1, 0, 0, x2, 0, x3, 0, 0],
            [0, 1, x0, 0, x2, 0, x3, x4],
            [0, 0, 1, -x0, 0, 0, x2, 0],
            [0, 0, 0, -2, 0, x0, 0, 0],
            [0, 0, 0, 0, -1, 0, 2 * x0, 0],
            [0, 0, 0, 0, 0, 3, 0, 0],
            [0, 0, 0, 0, 0, 0, 2, 0],
            [0, 0, 0, 0, 0, 0, 0, 1],
        ])

    sys = LieSystemRealization(alg, 8, fields, name="murray_nonsinusoid")

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
    # X_1 = d/dx1; X_2 = d/dx2 + sum_{p=4..8} x1^p d/dx_{p-1};
    # X_k = [X_1, X_{k-1}] differentiates the powers in x1 k - 2 times,
    # so the coefficient of x1^(p-k+2) is the falling factorial p!/(p-k+2)!
    powers = np.arange(4, 9)
    coef = np.array([[float(math.perm(p, k)) for p in powers] for k in range(9)])
    expo = np.maximum(powers - np.arange(9)[:, None], 0)
    base = np.zeros((10, 7))
    base[0, 0] = base[1, 1] = 1.0

    def fields(x):
        x = np.asarray(x, dtype=float)
        out = np.broadcast_to(base, x.shape[:-1] + base.shape).copy()
        out[..., 1:, 2:] = coef * x[..., 0, None, None] ** expo
        return out

    sys = LieSystemRealization(alg, 7, fields, name="nikolaev_deg8")
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

    def fields(x):
        x2 = _coords(x)[2]
        s, c = np.sin(x2), np.cos(x2)
        return _stacked(x, [[0.0, 0.0, 1.0], [s, c, 0.0], [c, -s, 0.0]])

    def action(g, x):
        th, a, b = g.T
        s, c = math.sin(x[2]), math.cos(x[2])
        return np.array([x[0] - b * c - a * s, x[1] + b * s - a * c, x[2] - th]).T

    sys = LieSystemRealization(alg, 3, fields, action, chart, name="unicycle")

    def closed_form(b, grid, x0):
        return Trajectory(grid, action(-_se2_wn_closed(b, grid), x0), meta="unicycle closed form")

    return CatalogEntry("unicycle", sys, (1, 2), wn_closed_form=_se2_wn_closed,
                        closed_form=closed_form)


@register("unicycle_y")
def _unicycle_y():
    alg = catalog_algebra("se2")
    chart = get_chart("SE2", "canonical_second", (1, 2, 3))

    def fields(x):
        _, x1, x2 = _coords(x)
        return _stacked(x, [[1.0, x2, -x1], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])

    def action(g, x):
        th, a, b = g.T
        ct, st = np.cos(th), np.sin(th)
        return np.array([
            x[0] - th,
            x[1] * ct - x[2] * st - a * ct + b * st,
            x[1] * st + x[2] * ct - a * st - b * ct]).T

    sys = LieSystemRealization(alg, 3, fields, action, chart, name="unicycle_y")
    return CatalogEntry("unicycle_y", sys, (1, 2), wn_closed_form=_se2_wn_closed)


# ---------------------------------------------------------------------------
# chained and power forms (Gbar_n)
# ---------------------------------------------------------------------------


@register("kinematic_car_chained")
def _kinematic_car():
    alg = catalog_algebra("gbar", n=4)
    chart = get_chart("Gbar4", "canonical_second", (1, 2, 3, 4))

    def fields(x):
        _, x1, x2, _ = _coords(x)
        return _stacked(x, [[1.0, 0.0, x1, x2], [0.0, 1.0, 0.0, 0.0],
                            [0.0, 0.0, -1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])

    def action(g, x):
        a, b, c, d = g.T
        return np.array([
            x[0] - a, x[1] - b,
            x[2] - a * x[1] + a * b + c,
            x[3] - a * x[2] + 0.5 * a * a * x[1] - 0.5 * a * a * b - a * c - d]).T

    sys = LieSystemRealization(alg, 4, fields, action, chart, name="kinematic_car_chained")

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

    def fields(x):
        x1 = _coords(x)[1]
        return _stacked(x, [[0.0, 1.0, 0.0, 0.0], [1.0, 0.0, x1, 0.5 * x1 ** 2],
                            [0.0, 0.0, 1.0, x1], [0.0, 0.0, 0.0, 1.0]])

    def action(g, x):
        a, b, c, d = g.T
        return np.array([
            x[0] - b, x[1] - a,
            x[2] - c - b * x[1],
            x[3] - d - c * x[1] - 0.5 * b * x[1] ** 2]).T

    sys = LieSystemRealization(alg, 4, fields, action, chart, name="martinet")
    return CatalogEntry("martinet", sys, (1, 2), notes="abnormal-extremal test bed")


def _power_fields(n):
    """The power form: X_{a_1} = d/dx1 and
    X_{a_j} = d/dx_j + sum_{k>j} x1^(k-j)/(k-j)! d/dx_k."""
    expo = np.arange(n) - np.arange(n)[:, None]       # k - j
    rows = expo >= 0
    rows[0, 1:] = False
    expo = np.where(rows, expo, 0)
    fact = np.array([math.factorial(k) for k in range(n)], dtype=float)[expo]

    def fields(x):
        x = np.asarray(x, dtype=float)
        return np.where(rows, x[..., 0, None, None] ** expo / fact, 0.0)
    return fields


@register("trailer_power5")
def _trailer():
    alg = catalog_algebra("gbar", n=5)
    chart = get_chart("Gbar5", "canonical_second", (1, 2, 3, 4, 5))

    def action(g, x):
        a, b, c, d, e = g.T
        return np.array([
            x[0] - a, x[1] - b,
            x[2] - b * x[0] - c,
            x[3] - 0.5 * b * x[0] ** 2 - c * x[0] - d,
            x[4] - b * x[0] ** 3 / 6.0 - 0.5 * c * x[0] ** 2 - d * x[0] - e]).T

    sys = LieSystemRealization(alg, 5, _power_fields(5), action, chart, name="trailer_power5")

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
    # X_1 = d/dx1 + sum_{k>=3} x_{k-1} d/dx_k, X_2 = d/dx2, X_k = (-1)^k d/dx_k
    base = np.diag([1.0, 1.0] + [(-1.0) ** (i + 1) for i in range(2, n)])

    def fields(x):
        x = np.asarray(x, dtype=float)
        out = np.broadcast_to(base, x.shape[:-1] + base.shape).copy()
        out[..., 0, 2:] = x[..., 1:n - 1]
        return out

    sys = LieSystemRealization(alg, n, fields, name=f"chained_{n}")
    return CatalogEntry("chained_n", sys, (1, 2))


@register("power_n")
def _power(n: int = 4):
    if not 3 <= n <= 10:
        raise UnknownNameError("power_n supports 3 <= n <= 10")
    alg = catalog_algebra("gbar", n=n)
    sys = LieSystemRealization(alg, n, _power_fields(n), name=f"power_{n}")
    return CatalogEntry("power_n", sys, (1, 2))


# ---------------------------------------------------------------------------
# elastic Euler problem, SO(3) and SE(3) kinematics
# ---------------------------------------------------------------------------


@register("elastic_euler")
def _elastic(eps: int = 1):
    eps = eps_parameter(eps)
    sys = _linear_system(get_chart("Geps", "matrix", eps=eps), f"elastic_euler(eps={eps:+d})")
    return CatalogEntry("elastic_euler", sys, (1, 2, 3),
                        notes="generalized elastic problem; eps in {-1, 0, 1}")


@register("so3_kinematics")
def _so3_kin():
    sys = _linear_system(get_chart("SO3", "matrix"), "so3_kinematics")
    return CatalogEntry("so3_kinematics", sys, (1, 2, 3))


@register("se3_kinematics")
def _se3_kin():
    sys = _affine_system(get_chart("SE3", "matrix"), "se3_kinematics")
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
    sys = _affine_system(_get_quadh_chart(), "quadratic_hamiltonian_classical")
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
    sys = _affine_system(_get_tdlin_chart(), "td_linear_potential_classical")

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

    def fields(x):
        x0, x1 = _coords(x)
        return _stacked(x, [[x1, -x0], [0.0, -1.0], [1.0, 0.0], [0.0, 0.0]])

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

    sys = LieSystemRealization(alg, 2, fields, name="driven_oscillator")
    return CatalogEntry("driven_oscillator", sys, (1, 2), wn_closed_form=wn_closed,
                        closed_form=closed_form,
                        notes="controls (omega(t), f(t)); central channel acts trivially "
                              "on the classical phase space")


# ---------------------------------------------------------------------------
# SL(2) and SL(3) families
# ---------------------------------------------------------------------------


@register("sl2_riccati_pair")
def _sl2_pair():
    alg = catalog_algebra("sl2")

    def fields(x):
        x0, x1 = _coords(x)
        return _stacked(x, [[1.0, 1.0], [x0, x1], [x0 ** 2, x1 ** 2]])

    def action(g, x):
        M = _square(g)
        return np.stack([_homography(M, x[0]), _homography(M, x[1])], axis=-1)

    sys = LieSystemRealization(alg, 2, fields, action, get_chart("SL2", "matrix"),
                               name="sl2_riccati_pair")
    return CatalogEntry("sl2_riccati_pair", sys, (1, 2, 3))


@register("sl2_linear")
def _sl2_linear():
    sys = _linear_system(get_chart("SL2", "matrix"), "sl2_linear")
    return CatalogEntry("sl2_linear", sys, (1, 2, 3))


@register("sl2_complex")
def _sl2_complex():
    alg = catalog_algebra("sl2")

    def fields(x):
        x0, x1 = _coords(x)
        return _stacked(x, [[1.0, 0.0], [x0, x1], [x0 ** 2 - x1 ** 2, 2.0 * x0 * x1]])

    def action(g, x):
        w = _homography(_square(g), complex(x[0], x[1]))
        return np.stack([w.real, w.imag], axis=-1)

    sys = LieSystemRealization(alg, 2, fields, action, get_chart("SL2", "matrix"),
                               name="sl2_complex")
    return CatalogEntry("sl2_complex", sys, (1, 2, 3),
                        notes="real/imaginary split of the complex Riccati equation")


@register("sl2_mixed_1")
def _sl2_mixed1():
    alg = catalog_algebra("sl2")

    def fields(x):
        x0, x1 = _coords(x)
        return _stacked(x, [[1.0, 0.0], [x0, 0.5 * x1], [x0 ** 2, x0 * x1]])

    def action(g, x):
        M = _square(g)
        den = M[..., 1, 0] * x[0] + M[..., 1, 1]
        return np.stack([_homography(M, x[0]), x[1] / den], axis=-1)

    sys = LieSystemRealization(alg, 2, fields, action, get_chart("SL2", "matrix"),
                               name="sl2_mixed_1")
    return CatalogEntry("sl2_mixed_1", sys, (1, 2, 3))


@register("sl2_mixed_2")
def _sl2_mixed2():
    alg = catalog_algebra("sl2")

    def fields(x):
        x0, x1 = _coords(x)
        return _stacked(x, [[1.0, 0.0], [x0, -x1], [x0 ** 2, -(2.0 * x0 * x1 + 1.0)]])

    def action(g, x):
        M = _square(g)
        ga, de = M[..., 1, 0], M[..., 1, 1]
        den = ga * x[0] + de
        return np.stack([_homography(M, x[0]), den * (ga * (1.0 + x[0] * x[1]) + de * x[1])],
                        axis=-1)

    sys = LieSystemRealization(alg, 2, fields, action, get_chart("SL2", "matrix"),
                               name="sl2_mixed_2")
    return CatalogEntry("sl2_mixed_2", sys, (1, 2, 3))


@register("sl3_matrix_riccati")
def _sl3_riccati():
    alg = catalog_algebra("sl3")

    def fields(x):
        x0, x1 = _coords(x)
        return _stacked(x, [
            [x1, 0.0], [0.5 * x0, -0.5 * x1], [0.0, -x0], [0.5 * x0, 0.5 * x1],
            [1.0, 0.0], [0.0, 1.0], [x0 ** 2, x0 * x1], [x0 * x1, x1 ** 2]])

    def action(g, x):
        M = _square(g)
        Y = np.asarray(x, dtype=float)
        den = M[..., 2, :2] @ Y + M[..., 2, 2]
        return (M[..., :2, :2] @ Y + M[..., :2, 2]) / den[..., None]

    sys = LieSystemRealization(alg, 2, fields, action, get_chart("SL3", "matrix"),
                               name="sl3_matrix_riccati")
    return CatalogEntry("sl3_matrix_riccati", sys, tuple(range(1, 9)),
                        notes="projective action on the plane; matrix Riccati equation")


@register("sl3_linear")
def _sl3_linear():
    sys = _linear_system(get_chart("SL3", "matrix"), "sl3_linear")
    return CatalogEntry("sl3_linear", sys, tuple(range(1, 9)))


# ---------------------------------------------------------------------------
# scalar affine equation and the y-z auxiliary system
# ---------------------------------------------------------------------------


@register("affine_scalar")
def _affine_scalar():
    alg = catalog_algebra("aff")
    chart = get_chart("Aff", "canonical_second", (1, 2))

    def action(g, x):
        a, b = g.T
        return np.array([np.exp(-b) * x[0] - a]).T

    sys = LieSystemRealization(alg, 1, lambda x: _stacked(x, [[1.0], _coords(x)]), action,
                               chart, name="affine_scalar")

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

    def fields(x):
        x0, x1 = _coords(x)
        return _stacked(x, [[1.0, 0.0], [x0, 0.5 * x1], [x0 ** 2, x0 * x1],
                            [0.0, 1.0], [0.0, x0]])

    sys = LieSystemRealization(alg, 2, fields, name="yz_physics")
    return CatalogEntry("yz_physics", sys, (1, 2, 3, 4, 5),
                        notes="y' + y^2 = a, z' + yz = b is b = (a, 0, -1, b, 0)")
