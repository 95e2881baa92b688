"""Subgroup reduction: given a particular solution on a homogeneous space
G/H and a lift g1(t), the right-invariant system factorizes as
g(t) = g1(t) h(t), where h obeys a right-invariant system on H with
coefficients

    R_{h^{-1}*h}(dh/dt) = -Ad(g1^{-1}) (sum_a b_a a_a) - L_{g1^{-1}*g1}(dg1/dt)

The right-hand side must lie in the subalgebra; its span coordinates are
the reduced coefficients c_mu(t), written so that the reduced equation is
R(dh/dt) = -sum_mu c_mu(t) h_mu.  The inputs are
`ReductionSetup(span, lift, controls)`; the chart and the grid are the
lift's.

The reduction and the reconstruction are nodewise formulas, each one pass
over all nodes' coordinate arrays; on matrix and quaternion charts the
reduction takes one inverse and one conjugation per node.

Right-invariant curves, dh/dt h^{-1} = A(t) with h(t0) = e, are solved by
one fourth-order Magnus scan, `groups.magnus_scan` (importable from here
too): the step exponentials from one call, multiplied together by
`numerics.prefix_product` in log depth, so no group product runs node by
node.  Two solves here take it: the subgroup solve, and the homogeneous
solve of a cataloged reduction whose quotient G/H is itself a cataloged
group (its `hom_chart`; se3/r3, where G/H = SO(3)).  Every other
homogeneous solve is RK4 by `sweep_rk4` on the case's `hom_rhs`.  Where the
case has a quotient map `project` (the Geps family), the scan also seeds
those sweeps from the group: by the Lie theorem the homogeneous solution is
the full curve g(t) acting on the initial state, so it is the projection of
g(t) lift(z0) (Carinena, Grabowski & Marmo, Rep. Math. Phys. 60 (2007)
237).  The sweeps' exact commit rule decides every row, so the seed
changes only the sweep count.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial

import numpy as np

from .algebra import span_is_subalgebra
from .catalog import arguments
from .errors import LieSysError, NumericsError
from .groups import (  # left_log_derivative and magnus_scan stay importable from here
    GroupChart,
    _inverse_stays_on_chart,
    _matvec,
    _on_chart,
    _pull_back,
    get_chart,
    left_log_derivative,
    magnus_scan,
)
from .numerics import (
    TimeGrid,
    Trajectory,
    batch_guard,
    cubic_midpoints,
    dependency_levels,
    diff_samples4,
    rk4_stage_times,
    sweep_rk4,
)
from .weinorman import ControlSignal, GroupCurve


@dataclass
class ReductionSetup:
    """Inputs of the reduction algorithm.

    span holds algebra vectors spanning the subalgebra h; lift is the
    chart-tagged curve g1(t) projecting onto the homogeneous solution, and
    its chart and grid are the reduction's.
    """

    span: list
    lift: GroupCurve
    controls: ControlSignal

    @property
    def chart(self) -> GroupChart:
        return self.lift.chart

    @property
    def grid(self) -> TimeGrid:
        return self.lift.grid

    def __post_init__(self):
        flags = span_is_subalgebra(self.chart.algebra, self.span)
        if not flags["subalgebra"]:
            raise LieSysError("the given span is not a subalgebra")
        self.span_matrix = np.column_stack(
            [np.asarray(v, dtype=float) for v in self.span])


def reduce_to_subgroup(setup: ReductionSetup):
    """Reduced coefficients c_mu(t) on the grid nodes.

    The lift's coordinate velocity is `GroupCurve.coordinate_velocity` by
    fourth-order differences (one-sided five-point stencils at the two nodes
    next to each end), which needs a uniform grid and continuous chart
    coordinates, so a lift whose angle jumps by 2 pi between two nodes fails
    the off-span check there; `_pull_back` then applies over all nodes at once,
    on matrix and quaternion charts by the checked lift inverse and one
    conjugation per node.  Every lift node is checked against the chart
    constraint, and so is its inverse where `np.linalg.inv` computes it (a
    transpose or conjugate of a checked node is on the chart already);
    every node's right-hand side must lie in span(h); the off-span
    tolerance scales with the control magnitude.  A failure names the
    stage, the node, its time and the measured error.  Returns
    (coefficients, report).
    """
    chart = setup.chart
    nodes = setup.grid.nodes
    S = setup.span_matrix
    b = setup.controls(nodes)
    dg1 = setup.lift.coordinate_velocity(diff_samples4)
    g1 = _on_chart(chart, setup.lift.coords, "lift", nodes)
    g1_inv = chart.inverse_fn(g1)
    if not _inverse_stays_on_chart(chart):
        g1_inv = _on_chart(chart, g1_inv, "lift inverse", nodes)
    xi = -_pull_back(chart, g1, g1_inv, b, dg1)
    coeffs = -(xi @ np.linalg.pinv(S).T)
    resid = np.max(np.abs(xi + coeffs @ S.T), axis=-1)
    k = int(np.argmax(resid))
    bound = 1e-5 * max(1.0, float(np.max(np.abs(b))))
    if not resid[k] <= bound:
        raise LieSysError(
            f"reduction: lift does not project to a solution: off-span residual "
            f"{resid[k]:.3g} at node {k} (t={nodes[k]:.6g}) exceeds {bound:.3g}")
    return coeffs, {"off_span_residual": float(resid[k]), "at": nodes[k]}


def solve_on_subgroup(setup: ReductionSetup, coeffs: np.ndarray) -> GroupCurve:
    """Integrate R_{h^{-1}*h}(dh/dt) = -sum_mu c_mu(t) h_mu with h(t0) = e
    by `magnus_scan`, with A(t) = -sum_mu c_mu(t) h_mu.

    The reduced coefficients are known only at the nodes of a uniform grid,
    so A_{k+1/2} comes from the cubic through the four nearest nodes
    (`numerics.cubic_midpoints`), which keeps the step fourth order in the
    sampled c_mu(t).
    """
    chart, n = setup.chart, len(setup.grid.nodes)
    if n < 4:
        raise NumericsError(f"the subgroup solve's cubic midpoints need 4 nodes, got {n}")
    dt = setup.grid.uniform_step("the subgroup solve's cubic midpoint rule")
    A = -(np.asarray(coeffs, dtype=float) @ setup.span_matrix.T)
    return GroupCurve(chart, setup.grid, magnus_scan(chart, A, cubic_midpoints(A), dt))


def reconstruct_full(g1: GroupCurve, h: GroupCurve) -> GroupCurve:
    """Nodewise product g(t) = g1(t) h(t); the subgroup curve and the
    product are checked against the chart constraint at every node.  The
    lift is not checked again: `reduce_to_subgroup` checks every lift node,
    and a lift node off the chart takes its product off it too, since the
    chart constraints (orthogonal, rigid, unit determinant, unit quaternion
    norm) are multiplicative and a non-finite factor gives a non-finite
    product."""
    if g1.chart is not h.chart:
        raise LieSysError("lift and subgroup curves must share a chart")
    chart, nodes = g1.chart, g1.grid.nodes
    b = _on_chart(chart, h.coords, "subgroup curve", nodes)
    return GroupCurve(chart, g1.grid,
                      _on_chart(chart, chart.compose_fn(g1.coords, b), "reconstruction", nodes))


def run_reduction(setup: ReductionSetup):
    """Full pipeline: reduce, solve on the subgroup, reconstruct."""
    coeffs, report = reduce_to_subgroup(setup)
    h = solve_on_subgroup(setup, coeffs)
    g = reconstruct_full(setup.lift, h)
    return {"coefficients": coeffs, "subgroup_curve": h,
            "reconstruction": g, **report}


def run_catalog_reduction(case: "ReductionCase", b: ControlSignal, grid: TimeGrid):
    """Drive a cataloged reduction end to end on `grid`: the homogeneous
    solve, then `run_reduction`; the result also carries the homogeneous
    solution."""
    setup, hom = case.setup(b, grid)
    return {"homogeneous": hom, **run_reduction(setup)}


# ---------------------------------------------------------------------------
# the catalog of named reductions
# ---------------------------------------------------------------------------


@dataclass
class ReductionCase:
    """A cataloged reduction: homogeneous system, lift shape, span, and the
    closed-form reduced coefficients used as test fixtures.

    The homogeneous system is given one of two ways, and its solve takes
    one of three:
    - `hom_rhs(t, y, b)` and `hom_x0`: RK4 by `sweep_rk4`.  hom_rhs takes
      (...) times, (..., hom_dim) states and (..., r) padded controls and
      returns (..., hom_dim) derivatives, where hom_dim is the length of
      `hom_x0`; it is checked once at construction by
      `numerics.batch_guard`, and probed there, at one random time and one
      random control row per probe, for its `numerics.dependency_levels`,
      stored as `levels` (None on a `hom_chart` case): with levels the
      sweeps take the whole grid as one window, otherwise windows of
      `numerics._WINDOW` steps.  The sweeps start each window flat, or,
      where the case has `project`, from the group: `project` maps
      (..., d) chart coordinates to (..., hom_dim) states and is the left
      inverse of `lift_coords` modulo H, project(lift(z) h) = z, so the
      projection of g(t) lift(hom_x0), with g(t) the full right-invariant
      curve by `magnus_scan`, is the homogeneous solution to the scan's
      order.  It changes the sweep count, never the states' bits;
    - `hom_chart`, when G/H is itself a cataloged group: the homogeneous
      solution is the right-invariant curve on that chart driven by the
      controls outside the span, dy/dt y^{-1} = -sum_i b_i a_i, from the
      identity, by `magnus_scan`; its states are the chart coordinates.  At
      construction its structure constants must equal the full algebra's
      on those indices."""

    name: str
    chart: GroupChart
    span_indices: tuple              # 1-based algebra indices spanning h
    used_channels: tuple
    lift_coords: object              # (..., hom_dim) states -> (..., d) chart coords
    expected_coeffs: object          # (..., r) controls, (...) times, states -> (..., s)
    hom_rhs: object = None           # (t, y, padded controls at t) -> dy/dt, batched
    hom_x0: object = None
    hom_chart: GroupChart | None = None
    project: object = None           # (..., d) chart coords -> (..., hom_dim) states

    def __post_init__(self):
        self.levels = None
        if self.hom_chart is None:
            d, r = np.size(self.hom_x0), self.chart.algebra.dim
            batch_guard(self.hom_rhs, f"{self.name}: hom_rhs", (None, d, r))
            rng = random.Random(54321)

            def at_random_input(y):
                t, *b = (rng.uniform(-2.0, 2.0) for _ in range(r + 1))
                return self.hom_rhs(np.full(len(y), t), y, np.tile(b, (len(y), 1)))

            self.levels = dependency_levels(at_random_input, d)
            return
        q = self.quotient_indices
        if not np.array_equal(self.hom_chart.algebra.structure,
                              self.chart.algebra.structure[np.ix_(q, q, q)]):
            raise LieSysError(
                f"{self.name}: the brackets of hom_chart {self.hom_chart.group_name} differ "
                f"from those of the algebra indices {[i + 1 for i in q]}")

    @property
    def quotient_indices(self) -> list:
        """The 0-based algebra indices outside the span."""
        return [i for i in range(self.chart.algebra.dim) if i + 1 not in self.span_indices]

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
        """The homogeneous solution on the grid's nodes, from the padded
        controls at `rk4_stage_times`; on a `hom_chart` case the table's
        rows ::2 and 1::2 are the scan's node and midpoint values.  A case
        with `project` runs the same scan on the full chart, and the
        projection of its curve times lift(hom_x0) is the first iterate of
        the RK4 sweeps (see the class docstring)."""
        table = self.pad_controls(b)(rk4_stage_times(grid))
        meta, dt = f"{self.name} homogeneous", np.diff(grid.nodes)[:, None]
        if self.hom_chart is not None:
            A = -table[:, self.quotient_indices]
            return Trajectory(grid, magnus_scan(self.hom_chart, A[::2], A[1::2], dt), meta)
        first = None
        if self.project is not None:
            # a hyperbolic drive can take the group curve past overflow while
            # the states stay bounded; the sweeps skip a non-finite seed row
            with np.errstate(all="ignore"):
                g = magnus_scan(self.chart, -table[::2], -table[1::2], dt)
                first = self.project(self.chart.compose_fn(g, self.lift_coords(self.hom_x0)))
        return sweep_rk4(self.hom_rhs, self.hom_x0, grid, table, meta=meta, first=first,
                         levels=self.levels)

    def make_lift(self, hom: Trajectory) -> GroupCurve:
        return GroupCurve(self.chart, hom.grid, self.lift_coords(hom.states))

    def setup(self, b: ControlSignal, grid: TimeGrid) -> ReductionSetup:
        hom = self.solve_homogeneous(b, grid)
        return ReductionSetup(self.span_vectors(), self.make_lift(hom), self.pad_controls(b)), hom

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


_RED: dict = {}   # name: the builder of its ReductionCase


def catalog_reduction(name: str, **params) -> ReductionCase:
    return _RED[name](**arguments("reduction", _RED, name, params))


def list_reductions():
    return sorted(_RED)


# --- H(3): three subgroup choices (first-kind coordinates) -------------------


def _h3_case(which):
    chart = get_chart("H3", "canonical_first")
    if which == 1:
        return ReductionCase(
            "h3/a1", chart, (1,), (1, 2),
            hom_rhs=_rhs(lambda t, y, b: [-b[1], -b[0] * y[0]]),
            hom_x0=np.zeros(2),
            lift_coords=_lift_into(np.zeros(3), [1, 2]),
            expected_coeffs=_componentwise(lambda bv, t, y: [bv[0]]),
        )
    if which == 2:
        return ReductionCase(
            "h3/a2", chart, (2,), (1, 2),
            hom_rhs=_rhs(lambda t, y, b: [-b[0], b[1] * y[0]]),
            hom_x0=np.zeros(2),
            lift_coords=_lift_into(np.zeros(3), [0, 2]),
            expected_coeffs=_componentwise(lambda bv, t, y: [bv[1]]),
        )
    return ReductionCase(
        "h3/a3", chart, (3,), (1, 2),
        hom_rhs=_rhs(lambda t, y, b: [-b[0], -b[1]]),
        hom_x0=np.zeros(2),
        lift_coords=_lift_into(np.zeros(3), [0, 1]),
        expected_coeffs=_componentwise(lambda bv, t, y: [0.5 * (bv[0] * y[1] - bv[1] * y[0])]),
    )


for _i in (1, 2, 3):
    _RED[f"h3/a{_i}"] = partial(_h3_case, _i)


# --- SE(2): four subgroup choices --------------------------------------------


def _se2_case(which):
    chart = get_chart("SE2", "canonical_second", (1, 2, 3))
    if which == "a1":
        return ReductionCase(
            "se2/a1", chart, (1,), (1, 2),
            hom_rhs=_rhs(lambda t, z, b: [-b[1] + b[0] * z[1], -b[0] * z[0]]),
            hom_x0=np.zeros(2),
            lift_coords=_lift_into(np.zeros(3), [1, 2]),
            expected_coeffs=_componentwise(lambda bv, t, z: [bv[0]]),
        )
    if which == "a2":
        return ReductionCase(
            "se2/a2", chart, (2,), (1, 2),
            hom_rhs=_rhs(lambda t, z, b: [-b[0], b[1] * np.sin(z[0])]),
            hom_x0=np.zeros(2),
            lift_coords=_lift_into(np.zeros(3), [0, 2]),
            expected_coeffs=_componentwise(lambda bv, t, z: [bv[1] * np.cos(z[0])]),
        )
    if which == "a3":
        return ReductionCase(
            "se2/a3", chart, (3,), (1, 2),
            hom_rhs=_rhs(lambda t, z, b: [-b[0], -b[1] * np.cos(z[0])]),
            hom_x0=np.zeros(2),
            lift_coords=_lift_into(np.zeros(3), [0, 1]),
            expected_coeffs=_componentwise(lambda bv, t, z: [-bv[1] * np.sin(z[0])]),
        )
    return ReductionCase(
        "se2/a2a3", chart, (2, 3), (1, 2),
        hom_rhs=_rhs(lambda t, z, b: [-b[0]]),
        hom_x0=np.zeros(1),
        lift_coords=_lift_into(np.zeros(3), [0]),
        expected_coeffs=_componentwise(
            lambda bv, t, z: [bv[1] * np.cos(z[0]), -bv[1] * np.sin(z[0])]),
    )


for _w in ("a1", "a2", "a3", "a2a3"):
    _RED[f"se2/{_w}"] = partial(_se2_case, _w)


# --- SL(2,R): the two affine subgroups ---------------------------------------


def _sl2_case(which):
    chart = get_chart("SL2", "matrix")
    if which == "a2a3":
        return ReductionCase(
            "sl2/a2a3", chart, (2, 3), (1, 2, 3),
            hom_rhs=_rhs(lambda t, y, b: [b[0] + b[1] * y[0] + b[2] * y[0] ** 2]),
            hom_x0=np.zeros(1),
            lift_coords=_lift_into([1.0, 0.0, 0.0, 1.0], [1]),
            expected_coeffs=_componentwise(lambda bv, t, y: [bv[1] + 2.0 * bv[2] * y[0], bv[2]]),
        )
    # which == "a1a2": homogeneous coordinate w = 1/y with w(0) = 0
    return ReductionCase(
        "sl2/a1a2", chart, (1, 2), (1, 2, 3),
        hom_rhs=_rhs(lambda t, w, b: [-b[2] - b[1] * w[0] - b[0] * w[0] ** 2]),
        hom_x0=np.zeros(1),
        lift_coords=_lift_into([1.0, 0.0, 0.0, 1.0], [2]),
        expected_coeffs=_componentwise(lambda bv, t, w: [bv[0], bv[1] + 2.0 * bv[0] * w[0]]),
    )


_RED["sl2/a2a3"] = partial(_sl2_case, "a2a3")
_RED["sl2/a1a2"] = partial(_sl2_case, "a1a2")


# --- nilpotent towers: quotient by the center / Abelian ideals ---------------


_h3_hom_rhs = _rhs(lambda t, y, b: [-b[0], -b[1], 0.5 * (b[1] * y[0] - b[0] * y[1])])

# The towers' reduced coefficients in closed form: rows in the controls b and
# the H(3) homogeneous state y, shared between the towers.
_TOWER_ROWS = {
    "A": lambda b, y: -(0.5 * b[0] * (y[0] * y[1] / 6.0 - y[2]) - b[1] * y[0] ** 2 / 12.0),
    "B": lambda b, y: -(b[0] * y[1] ** 2 / 12.0 - 0.5 * b[1] * (y[0] * y[1] / 6.0 + y[2])),
    "C": lambda b, y: y[0] * (b[0] * (y[0] * y[1] - 8.0 * y[2]) - b[1] * y[0] ** 2) / 24.0,
    "D": lambda b, y: y[1] * (b[0] * y[1] ** 2 - b[1] * (y[0] * y[1] + 8.0 * y[2])) / 24.0,
    "E": lambda b, y: (b[0] * y[1] * (y[0] * y[1] - 4.0 * y[2])
                       - b[1] * y[0] * (y[0] * y[1] + 4.0 * y[2])) / 12.0,
}

# name: (group, span indices, fixture rows).  Each tower is driven on its
# channels 1 and 2 from the identity of a first-kind chart, and its lift puts
# the homogeneous state in the coordinate slots 0-2.
_TOWERS = {
    "g5/center": ("G5", (4, 5), "AB"),
    "g7/ideal": ("G7", (4, 5, 6, 7), "ABCD"),
    "g8/ideal": ("G8", (4, 5, 6, 7, 8), "ABCED"),
    "gbar4/center": ("Gbar4", (4,), "A"),
    "gbar5/ideal": ("Gbar5", (4, 5), "AC"),
}


def _tower(name, group, span, rows):
    chart = get_chart(group, "canonical_first")
    return ReductionCase(
        name, chart, span, (1, 2),
        hom_rhs=_h3_hom_rhs, hom_x0=np.zeros(3),
        lift_coords=_lift_into(np.zeros(chart.algebra.dim), [0, 1, 2]),
        expected_coeffs=_componentwise(lambda bv, t, y: [_TOWER_ROWS[k](bv, y) for k in rows]),
    )


for _name, _spec in _TOWERS.items():
    _RED[_name] = partial(_tower, _name, *_spec)


# --- the epsilon family: reduction by the compact generator ------------------


def _geps_case(eps=1):
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

    def project(q):
        # compose(lift(z), (C, S, 0, 0)) = n (C, S, z1 C + z2 S, z2 C - z1 S)
        # for every eps, so z1 + i z2 = (q2 + i q3)(q0 + i q1) / (q0^2 + q1^2)
        q0, q1, q2, q3 = q.T
        r = q0 * q0 + q1 * q1
        return np.array([(q2 * q0 - q3 * q1) / r, (q2 * q1 + q3 * q0) / r]).T

    return ReductionCase(
        f"geps/a1", chart, (1,), (1, 2, 3),
        hom_rhs=hom_rhs, hom_x0=np.zeros(2), lift_coords=lift, project=project,
        expected_coeffs=_componentwise(
            lambda bv, t, z: [bv[0] - eps * (bv[2] * z[0] - bv[1] * z[1])]),
    )


_RED["su2/a1"] = partial(_geps_case, 1)
_RED["geps/a1"] = _geps_case


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
        "se3/so3", chart, (1, 2, 3), (1, 2, 3, 4, 5, 6),
        hom_rhs=hom_rhs, hom_x0=np.zeros(3),
        lift_coords=_lift_into(np.eye(4).reshape(-1), [3, 7, 11]),  # the translation column
        expected_coeffs=_componentwise(lambda bv, t, x: [bv[0], bv[1], bv[2]]),
    )


_RED["se3/so3"] = _se3_so3


def _se3_r3():
    # H = R^3 normal subgroup; G/H = SO(3), so the homogeneous solution is
    # the rotation curve, a right-invariant curve on SO(3)
    chart = get_chart("SE3", "matrix")

    def expected(b, t, a_flat):
        # the translation generators carry a sign in the matrix basis, so
        # the reduced coefficients are +A^T (b4, b5, b6)
        A = np.reshape(a_flat, np.shape(a_flat)[:-1] + (3, 3))
        return _matvec(np.swapaxes(A, -1, -2), b[..., 3:])

    return ReductionCase(
        "se3/r3", chart, (4, 5, 6), (1, 2, 3, 4, 5, 6),
        hom_chart=get_chart("SO3", "matrix"),
        lift_coords=_lift_into(np.eye(4).reshape(-1), [0, 1, 2, 4, 5, 6, 8, 9, 10]),
        expected_coeffs=expected,
    )


_RED["se3/r3"] = _se3_r3
