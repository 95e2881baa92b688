"""Everything Riccati: the gauge action of determinant-one matrix curves
on coefficient triples, reductions from known solutions, the
finite-difference Backlund algorithm, generalized Darboux transforms and
the general-solution-from-particular formula.

Coefficients and curves evaluate on whole arrays of times: a coefficient
triple and the entries of a curve are channels under ControlSignal's one
rule, called on the array when they take one and once per time otherwise;
a transformed triple is one law evaluation per call, shared by its three
coefficients, and an RK4 solve samples its triple once at the stage times.
The gauge law is the matrix product M -> A M A^-1 + dA/dt A^-1 on the
sl(2) matrix of the coefficients, and every formula over the nodes is one
array expression.

All transformations act interval-wise and fail loudly at the first node
where a denominator degenerates (`systems._pole_guard`); there is no
analytic continuation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CoincidenceError, LieSysError
from .groups import _square
from .numerics import (
    TimeGrid,
    Trajectory,
    central_diff,
    cumulative_quadrature_samples,
    diff_samples,
    diff_samples4,
    interp_columns,
    rk4_stage_times,
    second_diff_samples,
    sweep_rk4,
)
from .systems import INFINITY, _homography, _pole_guard, cross_ratio, riccati_superposition
from .weinorman import ControlSignal, _channel_on_times

_POLE_TOL = 1e-12


def _as_callable(f):
    if callable(f):
        return f
    val = float(f)
    return lambda t: val


def _det(M):
    return M[..., 0, 0] * M[..., 1, 1] - M[..., 0, 1] * M[..., 1, 0]


@dataclass
class RiccatiCoeffs:
    """Coefficient triple of dx/dt = a2 x^2 + a1 x + a0 (callables of time;
    a number is a constant).

    Called on a time it returns [a0, a1, a2]; on a 1-D array of m times the
    (m, 3) array of those rows, each coefficient evaluated by ControlSignal's
    channel rule."""

    a0: object
    a1: object
    a2: object

    def __post_init__(self):
        self.a0, self.a1, self.a2 = (_as_callable(f) for f in (self.a0, self.a1, self.a2))
        self._rows = ControlSignal([self.a0, self.a1, self.a2])

    @classmethod
    def _of(cls, rows):
        """The triple t -> rows(t), [a0, a1, a2] at a time and (m, 3) on m
        times; an evaluation of the triple is one rows call, shared by the
        three coefficients."""
        c = cls(*(lambda t, i=i: rows(t).T[i] for i in range(3)))
        c._rows = rows
        return c

    def __call__(self, t):
        return self._rows(t)

    def rhs(self, t, x):
        """a2 x^2 + a1 x + a0 at a time, or elementwise over arrays of times and x."""
        a0, a1, a2 = self(t).T
        return a2 * x * x + a1 * x + a0

    def solve(self, x0, grid: TimeGrid) -> Trajectory:
        """RK4 from x(t0) = x0 by `sweep_rk4`, with the triple sampled once at
        the RK4 stage times rather than evaluated at every stage."""
        return sweep_rk4(lambda t, x, u: u[:, 2:] * x * x + u[:, 1:2] * x + u[:, :1], x0, grid,
                         self(rk4_stage_times(grid)), meta="riccati")

    @classmethod
    def sampled(cls, grid: TimeGrid, a0, a1, a2):
        return cls(*ControlSignal.sampled(grid, np.column_stack([a0, a1, a2])).channels)


class SL2Curve:
    """A determinant-one 2x2 matrix curve with derivative access.

    Entries are callables of time (a number is a constant).  Each
    evaluation divides the matrix by the square root of its determinant, so
    a GL(2) curve with positive determinant is rescaled to determinant one
    at every time; a determinant <= 0 at any time evaluated is rejected.
    Derivatives are central differences of the determinant-one curve.
    `matrix` and `dots` take a time or a 1-D array of times and return
    (..., 2, 2) arrays.
    """

    def __init__(self, alpha, beta, gamma, delta):
        entries = ControlSignal([_as_callable(v) for v in (alpha, beta, gamma, delta)])
        self._raw = lambda t: _square(entries(t))
        self.matrix(0.0)

    @classmethod
    def _of(cls, raw):
        """The curve t -> raw(t) of (..., 2, 2) matrices, normalized as above."""
        curve = cls.__new__(cls)
        curve._raw = raw
        return curve

    def matrix(self, t):
        M = self._raw(t)
        det = _det(M)
        bad = np.flatnonzero(det <= 0)
        if bad.size:
            t = np.broadcast_to(np.asarray(t, dtype=float), det.shape).ravel()
            raise LieSysError(f"transformation curve rejected: determinant "
                              f"{det.ravel()[bad[0]]:.3g} <= 0 at t = {t[bad[0]]:.6g}")
        return M / np.sqrt(det)[..., None, None]

    def dots(self, t):
        return central_diff(self.matrix, t, 1e-6)

    def __matmul__(self, other: "SL2Curve") -> "SL2Curve":
        return SL2Curve._of(lambda t: self.matrix(t) @ other.matrix(t))

    @classmethod
    def identity(cls):
        return cls(1.0, 0.0, 0.0, 1.0)


def transform_coeffs(A: SL2Curve, c: RiccatiCoeffs) -> RiccatiCoeffs:
    """The gauge law M -> A M A^-1 + dA/dt A^-1 on the sl(2) matrix
    M = [[a1/2, a0], [-a2, -a1/2]] of the triple, read back as a0 = M'01,
    a1 = M'00 - M'11 and a2 = -M'10 (Carinena & Ramos, Int. J. Mod. Phys. A
    14 (1999) 1935).  A^-1 is the adjugate, as det A = 1.  The transformed
    triple runs the law once per evaluation, for all three coefficients."""

    def law(t):
        a0, a1, a2 = c(t).T
        M = _square(np.stack([0.5 * a1, a0, -a2, -0.5 * a1], axis=-1))
        G = A.matrix(t)
        inv = _square(np.stack([G[..., 1, 1], -G[..., 0, 1], -G[..., 1, 0], G[..., 0, 0]],
                               axis=-1))
        N = (G @ M + A.dots(t)) @ inv
        return np.stack([N[..., 0, 1], N[..., 0, 0] - N[..., 1, 1], -N[..., 1, 0]], axis=-1)

    return RiccatiCoeffs._of(law)


def transform_solution(A: SL2Curve, x: Trajectory) -> Trajectory:
    """The homography Theta(A, x)(t) = (alpha x + beta)/(gamma x + delta) at
    every node at once."""
    M = A.matrix(x.grid.nodes)
    vals = x.states[:, 0]
    _pole_guard(M[:, 1, 0] * vals + M[:, 1, 1], _POLE_TOL, 1.0 + np.max(np.abs(vals)),
                "homography denominator")
    return Trajectory(x.grid, _homography(M, vals)[:, None], meta="transformed riccati solution")


def riccati_residual(x: Trajectory, c: RiccatiCoeffs, relative=False,
                     order=2) -> float:
    """max |dx/dt - (a2 x^2 + a1 x + a0)| with finite-difference dx/dt.

    With relative=True the residual is scaled by 1 + max|dx/dt|, which is
    what the solution preconditions use (steep solutions otherwise trip
    the finite-difference floor); order=4 uses five-point stencils."""
    dt = x.grid.uniform_step("residual check")
    vals = x.states[:, 0]
    dx = diff_samples4(vals, dt) if order == 4 else diff_samples(vals, dt)
    out = float(np.max(np.abs(dx - c.rhs(x.grid.nodes, vals))[1:-1]))
    if relative:
        out /= 1.0 + float(np.max(np.abs(dx)))
    return out


@dataclass
class ReducedRiccati:
    """Descriptor of a reduction from known particular solutions.

    kind is 'bernoulli' (one solution), 'linear_homogeneous' (two) or
    'constants' (three).  reduced holds the transformed coefficient
    triple, and general_solution(x0) rebuilds the solution through x0.
    """

    kind: str
    reduced: RiccatiCoeffs | None
    general_solution: object
    constant_of: object | None = None


def _check_solutions(c, known):
    for i, traj in enumerate(known):
        res = riccati_residual(traj, c, relative=True)
        if res > 1e-4:
            raise LieSysError(f"trajectory {i} is not a solution (residual {res:.3g})")
    for i in range(len(known)):
        for j in range(i + 1, len(known)):
            _pole_guard(known[i].states[:, 0] - known[j].states[:, 0], 1e-10, 1.0,
                        f"gap between known solutions {i} and {j}")


def reduce_known(c: RiccatiCoeffs, known) -> ReducedRiccati:
    """Reduce a Riccati equation using 1-3 known particular solutions.

    One solution turns the equation into a Bernoulli one (vanishing a0),
    integrable by two quadratures; two give a homogeneous linear equation
    (one quadrature); three reduce to constants through the cross ratio.
    """
    known = list(known)
    if not 1 <= len(known) <= 3:
        raise LieSysError("reduce_known accepts 1 to 3 particular solutions")
    _check_solutions(c, known)
    grid = known[0].grid
    nodes = grid.nodes
    x1v = known[0].states[:, 0]
    x1 = lambda t: interp_columns(t, nodes, x1v[:, None])[..., 0]

    def lin_coeff(t):
        _, a1, a2 = c(t).T
        return 2.0 * x1(t) * a2 + a1

    if len(known) == 1:
        reduced = RiccatiCoeffs(0.0, lin_coeff, c.a2)

        def general(x0):
            # x = x1 - 1/u with u' = -(2 x1 a2 + a1) u + a2
            E = np.exp(cumulative_quadrature_samples(-lin_coeff(nodes), grid))  # exp(-int lin)
            integ = cumulative_quadrature_samples(c(nodes)[:, 2] / E, grid)
            u0 = 1.0 / (x1v[0] - float(x0))
            u = E * (u0 + integ)
            _pole_guard(u, _POLE_TOL, 1 + np.max(np.abs(u)), "recovery variable u = 1/(x1 - x)")
            return Trajectory(grid, (x1v - 1.0 / u)[:, None])

        return ReducedRiccati("bernoulli", reduced, general)

    x2v = known[1].states[:, 0]
    if len(known) == 2:
        reduced = RiccatiCoeffs(0.0, lin_coeff, 0.0)

        def general(x0):
            # x'' = (x1 - x2)(x - x1)/(x - x2) obeys dx''/dt = lin_coeff x''
            L = cumulative_quadrature_samples(lin_coeff(nodes), grid)
            z0 = (x1v[0] - x2v[0]) * (float(x0) - x1v[0]) / (float(x0) - x2v[0])
            z = z0 * np.exp(L)
            den = z - (x1v - x2v)
            _pole_guard(den, _POLE_TOL, 1 + np.max(np.abs(z)), "recovery denominator z - x1 + x2")
            return Trajectory(grid, ((z * x2v - x1v * (x1v - x2v)) / den)[:, None])

        return ReducedRiccati("linear_homogeneous", reduced, general)

    x3v = known[2].states[:, 0]

    def constant_of(x):
        return cross_ratio(x, x1v, x2v, x3v)

    def general(x0):
        den = (float(x0) - x2v[0]) * (x3v[0] - x1v[0])
        if abs(den) < _POLE_TOL:
            k = INFINITY
        else:
            k = (float(x0) - x1v[0]) * (x3v[0] - x2v[0]) / den
        out = riccati_superposition(x1v, x2v, x3v, k)
        return Trajectory(grid, out[:, None])

    return ReducedRiccati("constants", None, general, constant_of)


# ---------------------------------------------------------------------------
# Backlund / Darboux machinery
# ---------------------------------------------------------------------------


def _traj_vals(w):
    return w.states[:, 0] if isinstance(w, Trajectory) else np.asarray(w, dtype=float)


def backlund_fd(w_k: Trajectory, w_l: Trajectory, eps_k: float, eps_l: float) -> Trajectory:
    """Finite-difference Backlund step: w_kl = -w_k - (eps_k - eps_l)/(w_k - w_l).

    w_k and w_l solve w' + w^2 = V - eps_k and V - eps_l with eps_k < eps_l;
    the output solves w' + w^2 = V - 2 w_k' - eps_l.
    """
    if not eps_k < eps_l:
        raise LieSysError("backlund_fd requires eps_k < eps_l")
    wk, wl = _traj_vals(w_k), _traj_vals(w_l)
    diff = wk - wl
    _pole_guard(diff, _POLE_TOL, 1.0 + np.max(np.abs(wk)), "w_k - w_l")
    out = -wk - (eps_k - eps_l) / diff
    return Trajectory(w_k.grid, out[:, None], meta="backlund")


def darboux_riccati(w: Trajectory, v: Trajectory, gamma, cconst: float = 1.0) -> Trajectory:
    """Generalized Darboux step at the Riccati level.

    With w solving w' + w^2 = V - eps and v solving v' + v^2 = V + c/gamma^2
    - eps, the output  wbar = -v - (c/gamma^2)/(w - v) + gamma'/gamma  solves
    w' + w^2 = V - 2(gamma' v/gamma + v') + gamma''/gamma - eps.  The result
    is invariant under gamma -> -gamma.
    """
    if cconst == 0.0:
        raise LieSysError("darboux_riccati needs a non-vanishing constant")
    wv, vv = _traj_vals(w), _traj_vals(v)
    nodes = w.grid.nodes
    gam = _as_callable(gamma)
    gvals = _channel_on_times(gam, nodes)
    _pole_guard(gvals, _POLE_TOL, 1.0, "gamma")
    gp = central_diff(lambda s: _channel_on_times(gam, s), nodes)
    diff = wv - vv
    _pole_guard(diff, _POLE_TOL, 1.0 + np.max(np.abs(wv)), "w - v")
    out = -vv - (cconst / gvals**2) / diff + gp / gvals
    return Trajectory(w.grid, out[:, None], meta="darboux-riccati")


def darboux_wavefunction(psi_w, psi_v, gamma, grid: TimeGrid) -> np.ndarray:
    """psibar = gamma (-d/dx + psi_v'/psi_v) psi_w on a uniform grid.

    psi_v must be nodeless on the grid interior and distinct from psi_w.
    """
    pw = np.asarray(psi_w, dtype=float)
    pv = np.asarray(psi_v, dtype=float)
    dx = grid.uniform_step("darboux_wavefunction")
    # a node is a sign change or an exact zero; exponentially small tails
    # are legitimate
    crossing = np.append(pv[:-1] * pv[1:] < 0.0, False) | (pv == 0.0)
    if np.any(crossing):
        k = int(np.argmax(crossing))
        raise CoincidenceError(k, f"psi_v has a node at grid node {k}")
    nw, nv = pw / np.linalg.norm(pw), pv / np.linalg.norm(pv)
    if min(np.max(np.abs(nw - nv)), np.max(np.abs(nw + nv))) < 1e-12:
        raise LieSysError("psi_v must differ from psi_w")
    gvals = _channel_on_times(_as_callable(gamma), grid.nodes)
    dpw = diff_samples(pw, dx)
    dpv = diff_samples(pv, dx)
    return gvals * (-dpw + (dpv / pv) * pw)


def schrodinger_residual(psi, V_vals, eps, grid: TimeGrid, interior=0.8) -> float:
    """Relative eigen-residual ||-psi'' + (V - eps) psi|| / ||psi||.

    Measured on the central `interior` fraction of the grid to avoid
    one-sided stencil pollution near open-interval endpoints.
    """
    psi = np.asarray(psi, dtype=float)
    dx = grid.uniform_step("schrodinger_residual")
    d2 = second_diff_samples(psi, dx)
    res = -d2 + (np.asarray(V_vals) - eps) * psi
    n = len(psi)
    lo = int(n * (1 - interior) / 2)
    hi = n - lo
    return float(np.max(np.abs(res[lo:hi])) / np.max(np.abs(psi[lo:hi])))


def superpotential_residual(W: Trajectory, V_vals, eps: float) -> float:
    """max |W' - W^2 + (V - eps)| for the superpotential convention
    V = W^2 - W' + eps, finite-difference W'."""
    dt = W.grid.uniform_step("superpotential_residual")
    vals = W.states[:, 0]
    dW = diff_samples(vals, dt)
    res = np.abs(dW - vals**2 + (np.asarray(V_vals, dtype=float) - eps))
    return float(np.max(res[1:-1]))


def general_from_particular(W_p: Trajectory, F) -> Trajectory:
    """W_g = W_p - exp(2 int W_p) / (int exp(2 int W_p) + F); F = inf gives W_p.

    W_p is a superpotential: it solves W' = W^2 - (V - eps), the Riccati
    equation of the factorization convention V = W^2 - W' + eps.  Every
    finite F gives a further solution of the same equation, and distinct
    finite F give distinct partners (unless W_p is constant).
    """
    if F == INFINITY:
        return Trajectory(W_p.grid, W_p.states.copy(), meta="general superpotential")
    vals = _traj_vals(W_p)
    grid = W_p.grid
    I1 = cumulative_quadrature_samples(vals, grid)
    E = np.exp(2.0 * I1)
    I2 = cumulative_quadrature_samples(E, grid)
    den = I2 + float(F)
    _pole_guard(den, _POLE_TOL, 1.0 + np.max(np.abs(I2)), "int exp(2 int W_p) + F")
    out = vals - E / den
    return Trajectory(grid, out[:, None], meta="general superpotential")
