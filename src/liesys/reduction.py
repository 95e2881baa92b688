"""Subgroup reduction: given a particular solution on a homogeneous space
G/H and a lift g1(t), the right-invariant system factorizes as
g(t) = g1(t) h(t), where h obeys a right-invariant system on H with
coefficients

    R_{h^{-1}*h}(dh/dt) = -Ad(g1^{-1}) (sum_a b_a a_a) - L_{g1^{-1}*g1}(dg1/dt)

The right-hand side must lie in the subalgebra; its span coordinates are
the reduced coefficients c_mu(t), written so that the reduced equation is
R(dh/dt) = -sum_mu c_mu(t) h_mu.

The reduction and the reconstruction are nodewise formulas; both run over
the node coordinate arrays in blocks of `_BLOCK` nodes, which bounds the
memory their temporaries take.  The subgroup solve takes its step
exponentials in the same blocks and multiplies them together as a
log-depth prefix product, one batched composition per block and level,
so no group product runs node by node.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import bracket_coords, span_is_subalgebra
from .errors import LieSysError, NumericsError, UnknownNameError
from .groups import (  # left_log_derivative stays importable from here
    GroupChart,
    _adjoint,
    _matvec,
    _on_chart,
    _trivialize,
    exp_algebra,
    get_chart,
    left_log_derivative,
)
from .numerics import (
    TimeGrid,
    Trajectory,
    batch_guard,
    diff_samples4,
    interp_columns,
    rk4_stage_times,
    sweep_rk4,
)
from .weinorman import ControlSignal, GroupCurve

_BLOCK = 512


@dataclass
class ReductionSetup:
    """Inputs of the reduction algorithm.

    span holds algebra vectors spanning the subalgebra h; lift is the
    chart-tagged curve g1(t) projecting onto the homogeneous solution.
    """

    chart: GroupChart
    span: list
    lift: GroupCurve
    controls: ControlSignal
    grid: TimeGrid

    def __post_init__(self):
        flags = span_is_subalgebra(self.chart.algebra, self.span)
        if not flags["subalgebra"]:
            raise LieSysError("the given span is not a subalgebra")
        self.span_matrix = np.column_stack(
            [np.asarray(v, dtype=float) for v in self.span])


def reduce_to_subgroup(setup: ReductionSetup, tol: float = 1e-5):
    """Reduced coefficients c_mu(t) on the grid nodes.

    The lift's coordinate velocity is the fourth-order difference of its
    node coordinates (one-sided five-point stencils at the two nodes next to
    each end); Ad(g1^{-1}) and the left trivialization then apply nodewise.
    Every lift node and its inverse is checked against the chart constraint,
    and every node's right-hand side must lie in span(h); the off-span
    tolerance scales with the control magnitude.  A failure names the stage,
    the node, its time and the measured error.  Returns (coefficients,
    report).
    """
    chart = setup.chart
    nodes = setup.grid.nodes
    dt = setup.grid.uniform_dt
    if dt is None:
        raise NumericsError("reduction: the lift's log-derivative needs a uniform grid")
    S = setup.span_matrix
    Spinv = np.linalg.pinv(S)
    b = setup.controls(nodes)
    dg1 = diff_samples4(setup.lift.coords, dt)
    coeffs = np.empty((len(nodes), S.shape[1]))
    resid = np.empty(len(nodes))
    for start in range(0, len(nodes), _BLOCK):
        sl = slice(start, start + _BLOCK)
        g1 = _on_chart(chart, setup.lift.coords[sl], "lift", nodes[sl], start)
        g1_inv = _on_chart(chart, chart.inverse_fn(g1), "lift inverse", nodes[sl], start)
        xi = -_matvec(_adjoint(chart, g1_inv), b[sl]) - _trivialize(chart, g1, dg1[sl], left=True)
        c = -(xi @ Spinv.T)
        resid[sl] = np.max(np.abs(xi + c @ S.T), axis=-1)
        coeffs[sl] = c
    k = int(np.argmax(resid))
    bound = tol * max(1.0, float(np.max(np.abs(b))))
    if not resid[k] <= bound:
        raise LieSysError(
            f"reduction: lift does not project to a solution: off-span residual "
            f"{resid[k]:.3g} at node {k} (t={nodes[k]:.6g}) exceeds {bound:.3g}")
    return coeffs, {"off_span_residual": float(resid[k]), "at": nodes[k]}


def solve_on_subgroup(setup: ReductionSetup, coeffs: np.ndarray) -> GroupCurve:
    """Integrate R_{h^{-1}*h}(dh/dt) = -sum_mu c_mu(t) h_mu with h(t0) = e.

    Fourth-order Magnus on the stage table: with A(t) = -sum_mu c_mu(t) h_mu
    at the step's ends and midpoint, step k is h_{k+1} = exp(Omega_k) h_k with
    Omega_k = dt/6 (A_k + 4 A_{k+1/2} + A_{k+1}) + dt^2/12 [A_{k+1}, A_k]
    (Blanes, Casas, Oteo & Ros, Phys. Rep. 470 (2009) 151), the bracket from
    the structure constants.  The exp(Omega_k) come from one `exp_algebra`
    call per `_BLOCK` steps, which bounds its temporaries.  The reduced
    coefficients are given at the grid nodes and the midpoint values
    interpolate them linearly, so the scheme is fourth order in those
    values, not in the c_mu(t) they sample.

    The products h_{k+1} = exp(Omega_k) ... exp(Omega_0) are a prefix
    product, taken in log depth (Hillis & Steele, Commun. ACM 29 (1986)
    1170): at shift = 1, 2, 4, ... node k becomes h_k h_{k-shift}.  Each
    level runs over `_BLOCK`-node slices from the top down, so every read
    is still the previous level's value; the product tree depends on the
    node index alone, so the result does not depend on `_BLOCK`.
    """
    chart, nodes = setup.chart, setup.grid.nodes
    A = -(interp_columns(rk4_stage_times(setup.grid), nodes, coeffs) @ setup.span_matrix.T)
    a0, half, a1 = A[:-1:2], A[1::2], A[2::2]
    dt = np.diff(nodes)[:, None]
    omega = (dt / 6.0 * (a0 + 4.0 * half + a1)
             + dt ** 2 / 12.0 * bracket_coords(chart.algebra, a1, a0))
    n = len(nodes)
    h = np.empty((n, chart.coord_dim))
    h[0] = chart.identity_coords
    for start in range(0, n - 1, _BLOCK):
        h[start + 1:start + 1 + _BLOCK] = exp_algebra(chart, omega[start:start + _BLOCK])
    shift = 1
    while shift < n:
        for stop in range(n, shift, -_BLOCK):
            start = max(shift, stop - _BLOCK)
            h[start:stop] = chart.compose_fn(h[start:stop], h[start - shift:stop - shift])
        shift *= 2
    return GroupCurve(chart, setup.grid, h)


def reconstruct_full(g1: GroupCurve, h: GroupCurve) -> GroupCurve:
    """Nodewise product g(t) = g1(t) h(t); both factors and the product are
    checked against the chart constraint at every node."""
    if g1.chart is not h.chart:
        raise LieSysError("lift and subgroup curves must share a chart")
    chart, nodes = g1.chart, g1.grid.nodes
    coords = np.empty_like(g1.coords)
    for start in range(0, len(coords), _BLOCK):
        sl = slice(start, start + _BLOCK)
        a = _on_chart(chart, g1.coords[sl], "lift", nodes[sl], start)
        b = _on_chart(chart, h.coords[sl], "subgroup curve", nodes[sl], start)
        coords[sl] = _on_chart(chart, chart.compose_fn(a, b), "reconstruction", nodes[sl], start)
    return GroupCurve(chart, g1.grid, coords)


def run_reduction(setup: ReductionSetup):
    """Full pipeline: reduce, solve on the subgroup, reconstruct."""
    coeffs, report = reduce_to_subgroup(setup)
    h = solve_on_subgroup(setup, coeffs)
    g = reconstruct_full(setup.lift, h)
    return {"coefficients": coeffs, "subgroup_curve": h,
            "reconstruction": g, **report}


def run_catalog_reduction(case: "ReductionCase", b: ControlSignal,
                          grid: TimeGrid, refine: int = 2):
    """Drive a cataloged reduction end to end.

    The homogeneous solve and reduction run on a `refine`-times finer grid
    (an accuracy tier for the finite-difference log-derivatives); homogeneous
    solution, coefficients, subgroup curve and reconstruction are reported
    restricted to the requested grid.
    """
    fine = TimeGrid.uniform(grid.t0, grid.t1, grid.n_steps * refine)
    setup, hom_fine = case.setup(b, fine)
    out = run_reduction(setup)
    step = refine
    coarse_hom = Trajectory(grid, hom_fine.states[::step], meta=hom_fine.meta)
    coeffs = out["coefficients"][::step]
    h = GroupCurve(case.chart, grid, out["subgroup_curve"].coords[::step])
    g = GroupCurve(case.chart, grid, out["reconstruction"].coords[::step])
    return {"homogeneous": coarse_hom, "coefficients": coeffs,
            "subgroup_curve": h, "reconstruction": g,
            "off_span_residual": out["off_span_residual"]}


# ---------------------------------------------------------------------------
# the catalog of named reductions
# ---------------------------------------------------------------------------


@dataclass
class ReductionCase:
    """A cataloged reduction: homogeneous system, lift shape, span, and the
    closed-form reduced coefficients used as test fixtures.

    `hom_rhs(t, y, b)` takes (...) times, (..., hom_dim) states and (..., r)
    padded controls and returns (..., hom_dim) derivatives; it is checked
    once at construction by `numerics.batch_guard`."""

    name: str
    chart: GroupChart
    span_indices: tuple              # 1-based algebra indices spanning h
    used_channels: tuple
    hom_dim: int
    hom_rhs: object                  # (t, y, padded controls at t) -> dy/dt, batched
    hom_x0: object
    lift_coords: object              # (..., hom_dim) states -> (..., d) chart coords
    expected_coeffs: object          # (..., r) controls, (...) times, states -> (..., s)

    def __post_init__(self):
        dims = (None, self.hom_dim, self.chart.algebra.dim)
        batch_guard(self.hom_rhs, f"{self.name}: hom_rhs", dims)

    def span_vectors(self):
        r = self.chart.algebra.dim
        out = []
        for idx in self.span_indices:
            v = np.zeros(r)
            v[idx - 1] = 1.0
            out.append(v)
        return out

    def pad_controls(self, b: ControlSignal) -> ControlSignal:
        return b.pad(self.chart.algebra.dim, [i - 1 for i in self.used_channels])

    def solve_homogeneous(self, b: ControlSignal, grid: TimeGrid) -> Trajectory:
        table = self.pad_controls(b)(rk4_stage_times(grid))
        return sweep_rk4(self.hom_rhs, self.hom_x0, grid, table, meta=f"{self.name} homogeneous")

    def make_lift(self, hom: Trajectory) -> GroupCurve:
        return GroupCurve(self.chart, hom.grid, self.lift_coords(hom.states))

    def setup(self, b: ControlSignal, grid: TimeGrid) -> ReductionSetup:
        hom = self.solve_homogeneous(b, grid)
        return ReductionSetup(self.chart, self.span_vectors(),
                              self.make_lift(hom), self.pad_controls(b), grid), hom

    def fixture_coeffs(self, b: ControlSignal, hom: Trajectory) -> np.ndarray:
        nodes = hom.grid.nodes
        return self.expected_coeffs(self.pad_controls(b)(nodes), nodes, hom.states)

    def reconstruction_gap(self, b: ControlSignal, g: GroupCurve) -> float:
        """max over the nodes of |(dg/dt) g^{-1} + b|: how far the
        reconstructed curve is from solving the right-invariant system,
        dg/dt by the fourth-order differences of its node coordinates."""
        xi = g.node_log_derivatives(diff_samples4)
        return float(np.max(np.abs(xi + self.pad_controls(b)(g.grid.nodes))))


def _lift_into(base, slots):
    """The lift of (..., hom_dim) states into the chart coordinates `base`,
    with the state components in the coordinate slots `slots`."""
    base = np.asarray(base, dtype=float)

    def lift(y):
        out = np.broadcast_to(base, np.shape(y)[:-1] + base.shape).copy()
        out[..., slots] = y
        return out

    return lift


def _componentwise(formula):
    """expected_coeffs from a formula on the components b.T, y.T of (..., r)
    controls and (..., hom_dim) states that lists the reduced coefficients."""
    return lambda b, t, y: np.array(formula(b.T, t, y.T)).T


def _rhs(formula):
    """hom_rhs from a formula on the components y.T, b.T of (..., hom_dim)
    states and (..., r) controls that lists the derivative's components."""
    return lambda t, y, b: np.array(formula(t, y.T, b.T)).T


_RED: dict = {}


def _register(name, builder):
    _RED[name] = builder


def catalog_reduction(name: str, **params) -> ReductionCase:
    if name not in _RED:
        raise UnknownNameError(f"unknown reduction {name!r}")
    return _RED[name](**params)


def list_reductions():
    return sorted(_RED)


# --- H(3): three subgroup choices (first-kind coordinates) -------------------


def _h3_case(which):
    chart = get_chart("H3", "canonical_first")
    if which == 1:
        return ReductionCase(
            "h3/a1", chart, (1,), (1, 2), 2,
            hom_rhs=_rhs(lambda t, y, b: [-b[1], -b[0] * y[0]]),
            hom_x0=np.zeros(2),
            lift_coords=_lift_into(np.zeros(3), [1, 2]),
            expected_coeffs=_componentwise(lambda bv, t, y: [bv[0]]),
        )
    if which == 2:
        return ReductionCase(
            "h3/a2", chart, (2,), (1, 2), 2,
            hom_rhs=_rhs(lambda t, y, b: [-b[0], b[1] * y[0]]),
            hom_x0=np.zeros(2),
            lift_coords=_lift_into(np.zeros(3), [0, 2]),
            expected_coeffs=_componentwise(lambda bv, t, y: [bv[1]]),
        )
    return ReductionCase(
        "h3/a3", chart, (3,), (1, 2), 2,
        hom_rhs=_rhs(lambda t, y, b: [-b[0], -b[1]]),
        hom_x0=np.zeros(2),
        lift_coords=_lift_into(np.zeros(3), [0, 1]),
        expected_coeffs=_componentwise(lambda bv, t, y: [0.5 * (bv[0] * y[1] - bv[1] * y[0])]),
    )


for _i in (1, 2, 3):
    _register(f"h3/a{_i}", lambda which=_i: _h3_case(which))


# --- SE(2): four subgroup choices --------------------------------------------


def _se2_case(which):
    chart = get_chart("SE2", "canonical_second", (1, 2, 3))
    if which == "a1":
        return ReductionCase(
            "se2/a1", chart, (1,), (1, 2), 2,
            hom_rhs=_rhs(lambda t, z, b: [-b[1] + b[0] * z[1], -b[0] * z[0]]),
            hom_x0=np.zeros(2),
            lift_coords=_lift_into(np.zeros(3), [1, 2]),
            expected_coeffs=_componentwise(lambda bv, t, z: [bv[0]]),
        )
    if which == "a2":
        return ReductionCase(
            "se2/a2", chart, (2,), (1, 2), 2,
            hom_rhs=_rhs(lambda t, z, b: [-b[0], b[1] * np.sin(z[0])]),
            hom_x0=np.zeros(2),
            lift_coords=_lift_into(np.zeros(3), [0, 2]),
            expected_coeffs=_componentwise(lambda bv, t, z: [bv[1] * np.cos(z[0])]),
        )
    if which == "a3":
        return ReductionCase(
            "se2/a3", chart, (3,), (1, 2), 2,
            hom_rhs=_rhs(lambda t, z, b: [-b[0], -b[1] * np.cos(z[0])]),
            hom_x0=np.zeros(2),
            lift_coords=_lift_into(np.zeros(3), [0, 1]),
            expected_coeffs=_componentwise(lambda bv, t, z: [-bv[1] * np.sin(z[0])]),
        )
    return ReductionCase(
        "se2/a2a3", chart, (2, 3), (1, 2), 1,
        hom_rhs=_rhs(lambda t, z, b: [-b[0]]),
        hom_x0=np.zeros(1),
        lift_coords=_lift_into(np.zeros(3), [0]),
        expected_coeffs=_componentwise(
            lambda bv, t, z: [bv[1] * np.cos(z[0]), -bv[1] * np.sin(z[0])]),
    )


for _w in ("a1", "a2", "a3", "a2a3"):
    _register(f"se2/{_w}", lambda which=_w: _se2_case(which))


# --- SL(2,R): the two affine subgroups ---------------------------------------


def _sl2_case(which):
    chart = get_chart("SL2", "matrix")
    if which == "a2a3":
        return ReductionCase(
            "sl2/a2a3", chart, (2, 3), (1, 2, 3), 1,
            hom_rhs=_rhs(lambda t, y, b: [b[0] + b[1] * y[0] + b[2] * y[0] ** 2]),
            hom_x0=np.zeros(1),
            lift_coords=_lift_into([1.0, 0.0, 0.0, 1.0], [1]),
            expected_coeffs=_componentwise(lambda bv, t, y: [bv[1] + 2.0 * bv[2] * y[0], bv[2]]),
        )
    # which == "a1a2": homogeneous coordinate w = 1/y with w(0) = 0
    return ReductionCase(
        "sl2/a1a2", chart, (1, 2), (1, 2, 3), 1,
        hom_rhs=_rhs(lambda t, w, b: [-b[2] - b[1] * w[0] - b[0] * w[0] ** 2]),
        hom_x0=np.zeros(1),
        lift_coords=_lift_into([1.0, 0.0, 0.0, 1.0], [2]),
        expected_coeffs=_componentwise(lambda bv, t, w: [bv[0], bv[1] + 2.0 * bv[0] * w[0]]),
    )


_register("sl2/a2a3", lambda: _sl2_case("a2a3"))
_register("sl2/a1a2", lambda: _sl2_case("a1a2"))


# --- nilpotent towers: quotient by the center / Abelian ideals ---------------


_h3_hom_rhs = _rhs(lambda t, y, b: [-b[0], -b[1], 0.5 * (b[1] * y[0] - b[0] * y[1])])


def _g5_center():
    chart = get_chart("G5", "canonical_first")
    return ReductionCase(
        "g5/center", chart, (4, 5), (1, 2), 3,
        hom_rhs=_h3_hom_rhs, hom_x0=np.zeros(3),
        lift_coords=_lift_into(np.zeros(5), [0, 1, 2]),
        expected_coeffs=_componentwise(lambda bv, t, y: [
            -(0.5 * bv[0] * (y[0] * y[1] / 6.0 - y[2]) - bv[1] * y[0] ** 2 / 12.0),
            -(bv[0] * y[1] ** 2 / 12.0
              - 0.5 * bv[1] * (y[0] * y[1] / 6.0 + y[2])),
        ]),
    )


_register("g5/center", _g5_center)


def _g7_ideal():
    chart = get_chart("G7", "canonical_first")
    return ReductionCase(
        "g7/ideal", chart, (4, 5, 6, 7), (1, 2), 3,
        hom_rhs=_h3_hom_rhs, hom_x0=np.zeros(3),
        lift_coords=_lift_into(np.zeros(7), [0, 1, 2]),
        expected_coeffs=_componentwise(lambda bv, t, y: [
            -(0.5 * bv[0] * (y[0] * y[1] / 6.0 - y[2]) - bv[1] * y[0] ** 2 / 12.0),
            -(bv[0] * y[1] ** 2 / 12.0
              - 0.5 * bv[1] * (y[0] * y[1] / 6.0 + y[2])),
            y[0] * (bv[0] * (y[0] * y[1] - 8.0 * y[2]) - bv[1] * y[0] ** 2) / 24.0,
            y[1] * (bv[0] * y[1] ** 2 - bv[1] * (y[0] * y[1] + 8.0 * y[2])) / 24.0,
        ]),
    )


_register("g7/ideal", _g7_ideal)


def _g8_ideal():
    chart = get_chart("G8", "canonical_first")
    return ReductionCase(
        "g8/ideal", chart, (4, 5, 6, 7, 8), (1, 2), 3,
        hom_rhs=_h3_hom_rhs, hom_x0=np.zeros(3),
        lift_coords=_lift_into(np.zeros(8), [0, 1, 2]),
        expected_coeffs=_componentwise(lambda bv, t, y: [
            -(0.5 * bv[0] * (y[0] * y[1] / 6.0 - y[2]) - bv[1] * y[0] ** 2 / 12.0),
            -(bv[0] * y[1] ** 2 / 12.0
              - 0.5 * bv[1] * (y[0] * y[1] / 6.0 + y[2])),
            y[0] * (bv[0] * (y[0] * y[1] - 8.0 * y[2]) - bv[1] * y[0] ** 2) / 24.0,
            (bv[0] * y[1] * (y[0] * y[1] - 4.0 * y[2])
             - bv[1] * y[0] * (y[0] * y[1] + 4.0 * y[2])) / 12.0,
            y[1] * (bv[0] * y[1] ** 2 - bv[1] * (y[0] * y[1] + 8.0 * y[2])) / 24.0,
        ]),
    )


_register("g8/ideal", _g8_ideal)


def _gbar4_center():
    chart = get_chart("Gbar4", "canonical_first")
    return ReductionCase(
        "gbar4/center", chart, (4,), (1, 2), 3,
        hom_rhs=_h3_hom_rhs, hom_x0=np.zeros(3),
        lift_coords=_lift_into(np.zeros(4), [0, 1, 2]),
        expected_coeffs=_componentwise(lambda bv, t, y: [
            -(0.5 * bv[0] * (y[0] * y[1] / 6.0 - y[2]) - bv[1] * y[0] ** 2 / 12.0)]),
    )


_register("gbar4/center", _gbar4_center)


def _gbar5_ideal():
    chart = get_chart("Gbar5", "canonical_first")
    return ReductionCase(
        "gbar5/ideal", chart, (4, 5), (1, 2), 3,
        hom_rhs=_h3_hom_rhs, hom_x0=np.zeros(3),
        lift_coords=_lift_into(np.zeros(5), [0, 1, 2]),
        expected_coeffs=_componentwise(lambda bv, t, y: [
            -(0.5 * bv[0] * (y[0] * y[1] / 6.0 - y[2]) - bv[1] * y[0] ** 2 / 12.0),
            -(bv[0] * y[0] * (8.0 * y[2] - y[0] * y[1]) / 24.0
              + bv[1] * y[0] ** 3 / 24.0),
        ]),
    )


_register("gbar5/ideal", _gbar5_ideal)


# --- the epsilon family: reduction by the compact generator ------------------


def _geps_case(eps):
    chart = get_chart("Geps", "quaternion", eps=eps)

    @_rhs
    def hom_rhs(t, z, b):
        b1, b2, b3 = b[:3]
        z1, z2 = z
        return [
            b1 * z2 - 0.5 * b2 * (1.0 + eps * (z1**2 - z2**2)) - b3 * eps * z1 * z2,
            -b1 * z1 - b2 * eps * z1 * z2 - 0.5 * b3 * (1.0 - eps * (z1**2 - z2**2)),
        ]

    def lift(z):
        z1, z2 = z.T
        n = 1.0 / np.sqrt(1.0 + eps * (z1 * z1 + z2 * z2))
        return np.array([n, 0.0 * n, n * z1, n * z2]).T

    return ReductionCase(
        f"geps/a1", chart, (1,), (1, 2, 3), 2,
        hom_rhs=hom_rhs, hom_x0=np.zeros(2), lift_coords=lift,
        expected_coeffs=_componentwise(
            lambda bv, t, z: [bv[0] - eps * (bv[2] * z[0] - bv[1] * z[1])]),
    )


_register("su2/a1", lambda: _geps_case(1))
_register("geps/a1", lambda eps=1: _geps_case(eps))


# --- SE(3): both semidirect factors ------------------------------------------


def _se3_so3():
    # H = SO(3); homogeneous space R^3 with the affine action
    chart = get_chart("SE3", "matrix")

    @_rhs
    def hom_rhs(t, x, b):
        b1, b2, b3, b4, b5, b6 = b
        return [
            b4 + b2 * x[2] - b1 * x[1],
            b5 + b1 * x[0] - b3 * x[2],
            b6 + b3 * x[1] - b2 * x[0],
        ]

    return ReductionCase(
        "se3/so3", chart, (1, 2, 3), (1, 2, 3, 4, 5, 6), 3,
        hom_rhs=hom_rhs, hom_x0=np.zeros(3),
        lift_coords=_lift_into(np.eye(4).reshape(-1), [3, 7, 11]),  # the translation column
        expected_coeffs=_componentwise(lambda bv, t, x: [bv[0], bv[1], bv[2]]),
    )


_register("se3/so3", _se3_so3)


def _se3_r3():
    # H = R^3 normal subgroup; homogeneous "solution" is the rotation curve,
    # integrated as a matrix ODE dA/dt = xi_hat A
    chart = get_chart("SE3", "matrix")
    so3rep = np.stack(get_chart("SO3", "matrix").algebra_rep).reshape(3, 9)

    def hom_rhs(t, a_flat, b):
        lead = np.shape(a_flat)[:-1]
        xi = -(b[..., :3] @ so3rep).reshape(lead + (3, 3))
        return (xi @ np.reshape(a_flat, lead + (3, 3))).reshape(lead + (9,))

    def expected(b, t, a_flat):
        # the translation generators carry a sign in the matrix basis, so
        # the reduced coefficients are +A^T (b4, b5, b6)
        A = np.reshape(a_flat, np.shape(a_flat)[:-1] + (3, 3))
        return _matvec(np.swapaxes(A, -1, -2), b[..., 3:])

    return ReductionCase(
        "se3/r3", chart, (4, 5, 6), (1, 2, 3, 4, 5, 6), 9,
        hom_rhs=hom_rhs, hom_x0=np.eye(3).reshape(-1),
        lift_coords=_lift_into(np.eye(4).reshape(-1), [0, 1, 2, 4, 5, 6, 8, 9, 10]),
        expected_coeffs=expected,
    )


_register("se3/r3", _se3_r3)
