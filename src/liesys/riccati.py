"""Everything Riccati: the affine action of determinant-one matrix curves
on coefficient triples, reductions from known solutions, the
finite-difference Backlund algorithm, generalized Darboux transforms and
the general-solution-from-particular formula.

All transformations act interval-wise and fail loudly at the first node
where a denominator degenerates; there is no analytic continuation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CoincidenceError, LieSysError, NumericsError
from .numerics import (
    TimeGrid,
    Trajectory,
    central_diff,
    cumulative_quadrature_samples,
    diff_samples,
    interp_columns,
    second_diff_samples,
)
from .systems import INFINITY, cross_ratio, riccati_superposition

_DET_TOL = 1e-10
_POLE_TOL = 1e-12


def _as_callable(f):
    if callable(f):
        return f
    val = float(f)
    return lambda t: val


@dataclass
class RiccatiCoeffs:
    """Coefficient triple of dx/dt = a2 x^2 + a1 x + a0 (closed-form callables)."""

    a0: object
    a1: object
    a2: object

    def __post_init__(self):
        self.a0 = _as_callable(self.a0)
        self.a1 = _as_callable(self.a1)
        self.a2 = _as_callable(self.a2)

    def rhs(self, t, x):
        return self.a2(t) * x * x + self.a1(t) * x + self.a0(t)

    def field(self):
        return lambda t, x: np.array([self.rhs(t, float(x[0]))])

    @classmethod
    def sampled(cls, grid: TimeGrid, a0, a1, a2):
        nodes = grid.nodes

        def interp(vals):
            col = np.asarray(vals, dtype=float)[:, None]
            return lambda t: interp_columns(t, nodes, col)[..., 0]

        return cls(interp(a0), interp(a1), interp(a2))


class SL2Curve:
    """A determinant-one 2x2 matrix curve with derivative access.

    Entries are callables; derivatives are optional callables, defaulting
    to central differences.  A GL(2) curve with positive determinant is
    rescaled to determinant one; negative determinants are rejected.
    """

    def __init__(self, alpha, beta, gamma, delta, dots=None, normalize=True):
        entries = [_as_callable(v) for v in (alpha, beta, gamma, delta)]
        self._raw = entries
        self._raw_dots = [(_as_callable(d) if d is not None else None)
                          for d in (dots or (None,) * 4)]
        det0 = entries[0](0.0) * entries[3](0.0) - entries[1](0.0) * entries[2](0.0)
        if normalize and abs(det0 - 1.0) > _DET_TOL:
            if det0 <= 0:
                raise LieSysError("negative-determinant transformation curve rejected")
            self._rescaled = True
        else:
            self._rescaled = False

    def _det(self, t):
        a, b, c, d = (f(t) for f in self._raw)
        return a * d - b * c

    def entries(self, t):
        vals = np.array([f(t) for f in self._raw])
        if self._rescaled:
            det = self._det(t)
            if det <= 0:
                raise LieSysError("negative-determinant transformation curve rejected")
            vals = vals / np.sqrt(det)
        return vals

    def dots(self, t, h=1e-6):
        if not self._rescaled and all(d is not None for d in self._raw_dots):
            return np.array([d(t) for d in self._raw_dots])
        return central_diff(self.entries, t, h)

    def matrix(self, t):
        a, b, c, d = self.entries(t)
        return np.array([[a, b], [c, d]])

    def __matmul__(self, other: "SL2Curve") -> "SL2Curve":
        def entry(i, j):
            def f(t):
                return float(self.matrix(t)[i] @ other.matrix(t)[:, j])
            return f

        return SL2Curve(entry(0, 0), entry(0, 1), entry(1, 0), entry(1, 1))

    @classmethod
    def identity(cls):
        return cls(1.0, 0.0, 0.0, 1.0)

    @classmethod
    def shift_by_solution(cls, x1):
        """A = ((1, -x1), (0, 1)): subtracting a known solution kills a0."""
        x1 = _as_callable(x1)
        return cls(1.0, lambda t: -x1(t), 0.0, 1.0)


def transform_coeffs(A: SL2Curve, c: RiccatiCoeffs) -> RiccatiCoeffs:
    """The adjoint-plus-cocycle transformation of the coefficient triple."""

    def parts(t):
        al, be, ga, de = A.entries(t)
        dal, dbe, dga, dde = A.dots(t)
        a2, a1, a0 = c.a2(t), c.a1(t), c.a0(t)
        na2 = de**2 * a2 - de * ga * a1 + ga**2 * a0 + ga * dde - de * dga
        na1 = (-2 * be * de * a2 + (al * de + be * ga) * a1 - 2 * al * ga * a0
               + de * dal - al * dde + be * dga - ga * dbe)
        na0 = be**2 * a2 - al * be * a1 + al**2 * a0 + al * dbe - be * dal
        return na0, na1, na2

    return RiccatiCoeffs(lambda t: parts(t)[0], lambda t: parts(t)[1], lambda t: parts(t)[2])


def transform_solution(A: SL2Curve, x: Trajectory) -> Trajectory:
    """Nodewise homography Theta(A, x)(t) = (alpha x + beta)/(gamma x + delta)."""
    nodes = x.grid.nodes
    vals = x.states[:, 0]
    out = np.empty_like(vals)
    scale = 1.0 + float(np.max(np.abs(vals)))
    for k, t in enumerate(nodes):
        al, be, ga, de = A.entries(t)
        den = ga * vals[k] + de
        if abs(den) < _POLE_TOL * scale:
            raise CoincidenceError(k, f"homography pole crossed at node {k}")
        out[k] = (al * vals[k] + be) / den
    return Trajectory(x.grid, out[:, None], meta="transformed riccati solution")


def riccati_residual(x: Trajectory, c: RiccatiCoeffs, relative=False,
                     order=2) -> float:
    """max |dx/dt - (a2 x^2 + a1 x + a0)| with finite-difference dx/dt.

    With relative=True the residual is scaled by 1 + max|dx/dt|, which is
    what the solution preconditions use (steep solutions otherwise trip
    the finite-difference floor); order=4 uses five-point stencils."""
    from .numerics import diff_samples4

    dt = x.grid.uniform_dt
    if dt is None:
        raise NumericsError("residual check needs a uniform grid")
    vals = x.states[:, 0]
    dx = diff_samples4(vals, dt) if order == 4 else diff_samples(vals, dt)
    res = [abs(dx[k] - c.rhs(t, vals[k])) for k, t in enumerate(x.grid.nodes)]
    out = float(np.max(res[1:-1]))
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


def _check_solutions(c, known, tol=1e-4):
    for i, traj in enumerate(known):
        res = riccati_residual(traj, c, relative=True)
        if res > tol:
            raise LieSysError(f"trajectory {i} is not a solution (residual {res:.3g})")
    if len(known) >= 2:
        for i in range(len(known)):
            for j in range(i + 1, len(known)):
                gap = np.min(np.abs(known[i].states[:, 0] - known[j].states[:, 0]))
                if gap < 1e-10:
                    raise CoincidenceError(i, "known solutions coincide at some node")


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

    if len(known) == 1:
        lin_coeff = lambda t: 2.0 * x1(t) * c.a2(t) + c.a1(t)
        reduced = RiccatiCoeffs(0.0, lin_coeff, c.a2)

        def general(x0):
            # x = x1 - 1/u with u' = -(2 x1 a2 + a1) u + a2
            L = cumulative_quadrature_samples(np.array([lin_coeff(t) for t in nodes]) * -1.0, grid)
            E = np.exp(L)  # exp(-int lin_coeff)
            integ = cumulative_quadrature_samples(
                np.array([c.a2(t) for t in nodes]) / E, grid)
            u0 = 1.0 / (x1v[0] - float(x0))
            u = E * (u0 + integ)
            if np.any(np.abs(u) < _POLE_TOL * (1 + np.max(np.abs(u)))):
                raise CoincidenceError(int(np.argmin(np.abs(u))), "blow-up in recovery")
            return Trajectory(grid, (x1v - 1.0 / u)[:, None])

        return ReducedRiccati("bernoulli", reduced, general)

    x2v = known[1].states[:, 0]
    if len(known) == 2:
        lin_coeff = lambda t: 2.0 * x1(t) * c.a2(t) + c.a1(t)
        reduced = RiccatiCoeffs(0.0, lin_coeff, 0.0)

        def general(x0):
            # x'' = (x1 - x2)(x - x1)/(x - x2) obeys dx''/dt = lin_coeff x''
            L = cumulative_quadrature_samples(np.array([lin_coeff(t) for t in nodes]), grid)
            z0 = (x1v[0] - x2v[0]) * (float(x0) - x1v[0]) / (float(x0) - x2v[0])
            z = z0 * np.exp(L)
            den = z - (x1v - x2v)
            if np.any(np.abs(den) < _POLE_TOL * (1 + np.max(np.abs(z)))):
                raise CoincidenceError(int(np.argmin(np.abs(den))), "blow-up in recovery")
            return Trajectory(grid, ((z * x2v - x1v * (x1v - x2v)) / den)[:, None])

        return ReducedRiccati("linear_homogeneous", reduced, general)

    x3v = known[2].states[:, 0]

    def constant_of(x):
        vals = x.states[:, 0] if isinstance(x, Trajectory) else np.asarray(x, dtype=float)
        return cross_ratio(vals, x1v, x2v, x3v)

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
    scale = 1.0 + float(np.max(np.abs(wk)))
    if np.any(np.abs(diff) < _POLE_TOL * scale):
        raise CoincidenceError(int(np.argmin(np.abs(diff))))
    out = -wk - (eps_k - eps_l) / diff
    return Trajectory(w_k.grid, out[:, None], meta="backlund")


def darboux_riccati(w: Trajectory, v: Trajectory, gamma, cconst: float = 1.0,
                    gamma_prime=None) -> Trajectory:
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
    gvals = np.array([gam(t) for t in nodes])
    if np.any(np.abs(gvals) < _POLE_TOL):
        raise CoincidenceError(int(np.argmin(np.abs(gvals))), "gamma vanishes")
    if gamma_prime is not None:
        gp = np.array([gamma_prime(t) for t in nodes])
    else:
        gp = np.array([float(central_diff(gam, t)) for t in nodes])
    diff = wv - vv
    scale = 1.0 + float(np.max(np.abs(wv)))
    if np.any(np.abs(diff) < _POLE_TOL * scale):
        raise CoincidenceError(int(np.argmin(np.abs(diff))))
    out = -vv - (cconst / gvals**2) / diff + gp / gvals
    return Trajectory(w.grid, out[:, None], meta="darboux-riccati")


def darboux_wavefunction(psi_w, psi_v, gamma, grid: TimeGrid) -> np.ndarray:
    """psibar = gamma (-d/dx + psi_v'/psi_v) psi_w on a uniform grid.

    psi_v must be nodeless on the grid interior and distinct from psi_w.
    """
    pw = np.asarray(psi_w, dtype=float)
    pv = np.asarray(psi_v, dtype=float)
    dx = grid.uniform_dt
    if dx is None:
        raise NumericsError("darboux_wavefunction needs a uniform grid")
    # a node is a sign change or an exact zero; exponentially small tails
    # are legitimate
    if np.any(pv[:-1] * pv[1:] < 0.0) or np.any(pv == 0.0):
        raise CoincidenceError(int(np.argmin(np.abs(pv))), "psi_v has a node")
    nw, nv = pw / np.linalg.norm(pw), pv / np.linalg.norm(pv)
    if min(np.max(np.abs(nw - nv)), np.max(np.abs(nw + nv))) < 1e-12:
        raise LieSysError("psi_v must differ from psi_w")
    gam = _as_callable(gamma)
    gvals = np.array([gam(x) for x in grid.nodes])
    dpw = diff_samples(pw, dx)
    dpv = diff_samples(pv, dx)
    return gvals * (-dpw + (dpv / pv) * pw)


def schrodinger_residual(psi, V_vals, eps, grid: TimeGrid, interior=0.8) -> float:
    """Relative eigen-residual ||-psi'' + (V - eps) psi|| / ||psi||.

    Measured on the central `interior` fraction of the grid to avoid
    one-sided stencil pollution near open-interval endpoints.
    """
    psi = np.asarray(psi, dtype=float)
    dx = grid.uniform_dt
    d2 = second_diff_samples(psi, dx)
    res = -d2 + (np.asarray(V_vals) - eps) * psi
    n = len(psi)
    lo = int(n * (1 - interior) / 2)
    hi = n - lo
    return float(np.max(np.abs(res[lo:hi])) / np.max(np.abs(psi[lo:hi])))


def superpotential_residual(W: Trajectory, V_vals, eps: float) -> float:
    """max |W' - W^2 + (V - eps)| for the superpotential convention
    V = W^2 - W' + eps, finite-difference W'."""
    dt = W.grid.uniform_dt
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
    if np.any(np.abs(den) < _POLE_TOL * (1.0 + np.max(np.abs(I2)))):
        raise CoincidenceError(int(np.argmin(np.abs(den))), "denominator vanished")
    out = vals - E / den
    return Trajectory(grid, out[:, None], meta="general superpotential")
