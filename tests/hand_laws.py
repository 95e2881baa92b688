"""Hand-expanded group laws of H3 and the nilpotent towers, kept as
reference fixtures for the charts that `liesys.groups` derives by BCH, and
the closed-form log-derivatives and adjoints of the H3, SE2, Aff and Geps
charts, kept as reference fixtures for the ones it derives per chart kind.

The hand-written field rows of the linear and affine catalog realizations
(`FIELDS`, keyed by system name and eps) are kept as the reference for the
fields `liesys.catalog` reads off each chart's representation.

The closed-form Wei-Norman exponents of twelve catalog systems (`WN_CLOSED`,
nested quadratures of the controls) are kept as the reference for the
dependency levels of `liesys.weinorman.wn_solve`, and the closed flows of
five (`CLOSED_FLOWS`: brockett and unicycle act on x0 with their exponents,
the other three are quadrature formulas) as the reference for
`liesys.systems.solve_direct`.  Both are keyed by system name.

The hand-expanded Riccati gauge law (`riccati_gauge`) is kept as the
reference for `liesys.riccati.transform_coeffs`, which derives it from the
matrix product A M A^-1 + dA/dt A^-1.

Also kept here as independent references: the tangent map of a
right-invariant system (`right_invariant_derivative`), which drives the RK4
subgroup loop the Magnus solve is checked against, the step-by-step
fourth-order Magnus loop (`magnus_loop`), whose products
`liesys.reduction.magnus_scan` reorders into the log-depth
`liesys.numerics.prefix_product`, a single-matrix Taylor exponential
(`_expm_taylor`), and the signature functions Ceps, Seps of the epsilon
family.

Coordinates are (a, b, c, ...) in the algebra basis order; second-kind
coordinates use the ordering (1, ..., r).  LAWS maps a group name to the
laws known for it: 'compose1' (first kind), 'compose2', 'inverse2' (second
kind) and the conversions 'conv21' (second -> first), 'conv12'.
LOG_DERIVATIVES maps a chart key to its closed forms (g, dg) -> algebra
vector: 'right' = dg g^{-1} and 'left' = g^{-1} dg.  ADJOINTS maps a chart
key to its closed-form Ad(g), (..., d) coordinates -> (..., r, r) matrices.
"""

import math

import numpy as np

from liesys.algebra import _ad_series, bracket_coords, wn_matrix
from liesys.catalog import get_system
from liesys.groups import exp_algebra
from liesys.numerics import cumulative_quadrature_samples


def _h3_compose1(g, h):
    a, b, c = g
    ap, bp, cp = h
    return np.array([a + ap, b + bp, c + cp + 0.5 * (a * bp - b * ap)])


def _h3_compose2(g, h):
    a, b, c = g
    ap, bp, cp = h
    return np.array([a + ap, b + bp, c + cp - b * ap])


def _h3_inverse2(g):
    a, b, c = g
    return np.array([-a, -b, -c - a * b])


def _h3_conv21(g):
    a, b, c = g
    return np.array([a, b, c + 0.5 * a * b])


def _h3_conv12(g):
    a, b, c = g
    return np.array([a, b, c - 0.5 * a * b])


def _g4_compose1(g, h):
    a, b, c, d = g
    ap, bp, cp, dp = h
    w = a * bp - b * ap
    return np.array([
        a + ap, b + bp,
        c + cp + 0.5 * w,
        d + dp + 0.5 * (a * cp - c * ap) + 0.5 * (b * cp - c * bp)
        + w * (a - ap + b - bp) / 12.0,
    ])


def _g4_compose2(g, h):
    a, b, c, d = g
    ap, bp, cp, dp = h
    return np.array([
        a + ap, b + bp,
        c + cp - b * ap,
        d + dp - c * (ap + bp) + 0.5 * b * ap * (b + 2.0 * bp + ap),
    ])


def _g4_conv21(g):
    a, b, c, d = g
    return np.array([
        a, b, c + 0.5 * a * b,
        d + 0.5 * (a + b) * c + a * b * (a - b) / 12.0,
    ])


def _g4_conv12(g):
    a, b, c1, d1 = g
    c2 = c1 - 0.5 * a * b
    d2 = d1 - 0.5 * (a + b) * c2 - a * b * (a - b) / 12.0
    return np.array([a, b, c2, d2])


def _g5_compose1(g, h):
    a, b, c, d, e = g
    ap, bp, cp, dp, ep = h
    w = a * bp - b * ap
    return np.array([
        a + ap, b + bp,
        c + cp + 0.5 * w,
        d + dp + 0.5 * (a * cp - c * ap) + (a - ap) * w / 12.0,
        e + ep + 0.5 * (b * cp - c * bp) + (b - bp) * w / 12.0,
    ])


def _g5_compose2(g, h):
    a, b, c, d, e = g
    ap, bp, cp, dp, ep = h
    return np.array([
        a + ap, b + bp,
        c + cp - b * ap,
        d + dp - c * ap + 0.5 * b * ap**2,
        e + ep - c * bp + b * ap * bp + 0.5 * b**2 * ap,
    ])


def _g5_conv21(g):
    a, b, c, d, e = g
    return np.array([
        a, b, c + 0.5 * a * b,
        d + 0.5 * a * c + a * a * b / 12.0,
        e + 0.5 * b * c - a * b * b / 12.0,
    ])


def _g5_conv12(g):
    a, b, c1, d1, e1 = g
    c2 = c1 - 0.5 * a * b
    d2 = d1 - 0.5 * a * c2 - a * a * b / 12.0
    e2 = e1 - 0.5 * b * c2 + a * b * b / 12.0
    return np.array([a, b, c2, d2, e2])


def _g7_compose1(g, h):
    a, b, c, d, e, f, k = g
    ap, bp, cp, dp, ep, fp, kp = h
    w = a * bp - b * ap
    return np.array([
        a + ap, b + bp,
        c + cp + 0.5 * w,
        d + dp + 0.5 * (a * cp - c * ap) + (a - ap) * w / 12.0,
        e + ep + 0.5 * (b * cp - c * bp) + (b - bp) * w / 12.0,
        f + fp + 0.5 * (a * dp - d * ap) + (a - ap) * (a * cp - c * ap) / 12.0
        + a * ap * (b * ap - a * bp) / 24.0,
        k + kp + 0.5 * (b * ep - e * bp) + (b - bp) * (b * cp - c * bp) / 12.0
        + b * bp * (b * ap - a * bp) / 24.0,
    ])


def _g8_compose1(g, h):
    a, b, c, d, e, f, k, l = g
    ap, bp, cp, dp, ep, fp, kp, lp = h
    w = a * bp - b * ap
    return np.array([
        a + ap, b + bp,
        c + cp + 0.5 * w,
        d + dp + 0.5 * (a * cp - c * ap) + (a - ap) * w / 12.0,
        e + ep + 0.5 * (b * cp - c * bp) + (b - bp) * w / 12.0,
        f + fp + 0.5 * (a * dp - d * ap) + (a - ap) * (a * cp - c * ap) / 12.0
        + a * ap * (b * ap - a * bp) / 24.0,
        k + kp + 0.5 * (a * ep - e * ap) + 0.5 * (b * dp - d * bp)
        + (a * b * cp + ap * bp * c) / 6.0
        - (c + cp) * (a * bp + b * ap) / 12.0
        + (a * bp + b * ap) * (b * ap - a * bp) / 24.0,
        l + lp + 0.5 * (b * ep - e * bp) + (b - bp) * (b * cp - c * bp) / 12.0
        + b * bp * (b * ap - a * bp) / 24.0,
    ])


def _gbar4_compose1(g, h):
    a, b, c, d = g
    ap, bp, cp, dp = h
    w = a * bp - b * ap
    return np.array([
        a + ap, b + bp,
        c + cp + 0.5 * w,
        d + dp + 0.5 * (a * cp - c * ap) + w * (a - ap) / 12.0,
    ])


def _gbar4_compose2(g, h):
    a, b, c, d = g
    ap, bp, cp, dp = h
    return np.array([
        a + ap, b + bp,
        c + cp - b * ap,
        d + dp - c * ap + 0.5 * b * ap**2,
    ])


def _gbar4_conv21(g):
    a, b, c, d = g
    return np.array([a, b, c + 0.5 * a * b, d + 0.5 * a * c + a * a * b / 12.0])


def _gbar4_conv12(g):
    a, b, c1, d1 = g
    c2 = c1 - 0.5 * a * b
    d2 = d1 - 0.5 * a * c2 - a * a * b / 12.0
    return np.array([a, b, c2, d2])


def _gbar5_compose1(g, h):
    a, b, c, d, e = g
    ap, bp, cp, dp, ep = h
    w = a * bp - b * ap
    return np.array([
        a + ap, b + bp,
        c + cp + 0.5 * w,
        d + dp + 0.5 * (a * cp - c * ap) + (a - ap) * w / 12.0,
        e + ep + 0.5 * (a * dp - d * ap) + (a - ap) * (a * cp - c * ap) / 12.0
        - a * ap * w / 24.0,
    ])


def _gbar5_compose2(g, h):
    a, b, c, d, e = g
    ap, bp, cp, dp, ep = h
    return np.array([
        a + ap, b + bp,
        c + cp - b * ap,
        d + dp - c * ap + 0.5 * b * ap**2,
        e + ep - d * ap + 0.5 * c * ap**2 - b * ap**3 / 6.0,
    ])


def _gbar5_inverse2(g):
    # solve (g)(x) = e sequentially; the law is triangular in x
    a, b, c, d, e = g
    ap = -a
    bp = -b
    cp = -c + b * ap
    dp = -d + c * ap - 0.5 * b * ap**2
    ep = -e + d * ap - 0.5 * c * ap**2 + b * ap**3 / 6.0
    return np.array([ap, bp, cp, dp, ep])


LAWS = {
    "H3": {"compose1": _h3_compose1, "compose2": _h3_compose2, "inverse2": _h3_inverse2,
           "conv21": _h3_conv21, "conv12": _h3_conv12},
    "G4": {"compose1": _g4_compose1, "compose2": _g4_compose2,
           "inverse2": lambda g: _g4_conv12(-_g4_conv21(g)),
           "conv21": _g4_conv21, "conv12": _g4_conv12},
    "G5": {"compose1": _g5_compose1, "compose2": _g5_compose2,
           "inverse2": lambda g: _g5_conv12(-_g5_conv21(g)),
           "conv21": _g5_conv21, "conv12": _g5_conv12},
    "G7": {"compose1": _g7_compose1},
    "G8": {"compose1": _g8_compose1},
    "Gbar4": {"compose1": _gbar4_compose1, "compose2": _gbar4_compose2,
              "inverse2": lambda g: _gbar4_conv12(-_gbar4_conv21(g)),
              "conv21": _gbar4_conv21, "conv12": _gbar4_conv12},
    "Gbar5": {"compose1": _gbar5_compose1, "compose2": _gbar5_compose2,
              "inverse2": _gbar5_inverse2},
}


def _se2_right(g, dg):
    ct, st = math.cos(g[0]), math.sin(g[0])
    return np.array([dg[0], dg[1] * ct - dg[2] * st, dg[1] * st + dg[2] * ct])


def _se2_left(g, dg):
    th, a, b = g
    return np.array([dg[0], dg[1] - b * dg[0], dg[2] + a * dg[0]])


def _geps_right(eps):
    # quaternion chart (a, b, c, d) of Geps(eps); valid for tangent dg only
    def right(g, dg):
        a, b, c, d = g
        da, db, dc, dd = dg
        return 2.0 * np.array([
            a * db - b * da + eps * (c * dd - d * dc),
            a * dc - c * da + d * db - b * dd,
            a * dd - d * da + b * dc - c * db,
        ])
    return right


LOG_DERIVATIVES = {
    ("H3", "canonical_second", (1, 2, 3)): {
        "right": lambda g, dg: np.array([dg[0], dg[1], dg[2] + g[0] * dg[1]]),
        "left": lambda g, dg: np.array([dg[0], dg[1], dg[2] + g[1] * dg[0]]),
    },
    ("H3", "canonical_first", None): {
        "right": lambda g, dg: np.array(
            [dg[0], dg[1], dg[2] - 0.5 * (g[1] * dg[0] - g[0] * dg[1])]),
        "left": lambda g, dg: np.array(
            [dg[0], dg[1], dg[2] + 0.5 * (g[1] * dg[0] - g[0] * dg[1])]),
    },
    ("SE2", "canonical_second", (1, 2, 3)): {"right": _se2_right, "left": _se2_left},
    ("Aff", "canonical_second", (1, 2)): {
        "right": lambda g, dg: np.array([dg[0] + g[0] * dg[1], dg[1]]),
        "left": lambda g, dg: np.array([dg[0] * math.exp(g[1]), dg[1]]),
    },
    **{(f"Geps({eps:+d})", "quaternion", None): {"right": _geps_right(eps)}
       for eps in (-1, 0, 1)},
}


def _stack(rows):
    """Nested components of batch shape (...) as one (..., m, n) array."""
    return np.moveaxis(np.array(rows), (0, 1), (-2, -1))


def _h3_adjoint(g):
    # the same matrix on the first- and second-kind charts
    a, b = g[..., 0], g[..., 1]
    one, zero = np.ones_like(a), np.zeros_like(a)
    return _stack([[one, zero, zero], [zero, one, zero], [-b, a, one]])


def _se2_adjoint(g):
    th, a, b = g[..., 0], g[..., 1], g[..., 2]
    ct, st = np.cos(th), np.sin(th)
    one, zero = np.ones_like(th), np.zeros_like(th)
    return _stack([[one, zero, zero],
                   [b * ct + a * st, ct, -st],
                   [-a * ct + b * st, st, ct]])


def _aff_adjoint(g):
    a, b = g[..., 0], g[..., 1]
    return _stack([[np.exp(-b), a], [np.zeros_like(a), np.ones_like(a)]])


def _geps_adjoint(eps):
    def adjoint(g):
        a, b, c, d = (g[..., i] for i in range(4))
        return _stack([
            [a * a + b * b - eps * (c * c + d * d), 2 * eps * (b * c - a * d),
             2 * eps * (a * c + b * d)],
            [2 * (b * c + a * d), a * a - b * b + eps * (c * c - d * d),
             2 * (eps * c * d - a * b)],
            [2 * (b * d - a * c), 2 * (a * b + eps * c * d),
             a * a - b * b - eps * (c * c - d * d)],
        ])
    return adjoint


ADJOINTS = {
    ("H3", "canonical_second", (1, 2, 3)): _h3_adjoint,
    ("H3", "canonical_first", None): _h3_adjoint,
    ("SE2", "canonical_second", (1, 2, 3)): _se2_adjoint,
    ("Aff", "canonical_second", (1, 2)): _aff_adjoint,
    **{(f"Geps({eps:+d})", "quaternion", None): _geps_adjoint(eps) for eps in (-1, 0, 1)},
}


def _expm_taylor(M):
    """Scaling-and-squaring with a 13-term Taylor series at the scaled
    argument, scaled into 1-norm (largest column sum of |entries|) <= 0.5."""
    norm = np.max(np.abs(M).sum(axis=0))
    squarings = 0
    if norm > 0.5:
        squarings = int(np.ceil(np.log2(norm / 0.5)))
        M = M / (2.0**squarings)
    out = np.eye(M.shape[0])
    term = np.eye(M.shape[0])
    for k in range(1, 14):
        term = term @ M / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def _tangent_coords(chart, xi):
    """Matrix or quaternion coordinates of d/ds exp(s xi) at the identity."""
    xi = np.asarray(xi, dtype=float)
    if chart.chart_kind == "matrix":
        A = sum(v * M for v, M in zip(xi, chart.algebra_rep))
        return A.reshape(-1)
    return np.concatenate([[0.0], 0.5 * xi])


def right_invariant_derivative(chart, xi, hcoords):
    """d/ds [exp(s xi) h] at s = 0, in chart coordinates: the tangent at h
    whose right trivialization is xi.

    Matrix and quaternion composition laws are bilinear, so the tangent is
    the law applied to the tangent coordinates of xi.  Canonical charts
    solve the chart kind's trivialization map for it: the Wei-Norman matrix
    M_s(-h) on the second kind, phi(ad_h) on the first.
    """
    alg = chart.algebra
    if chart.chart_kind == "canonical_second":
        return np.linalg.solve(wn_matrix(alg, chart.ordering, -hcoords), xi)
    if chart.chart_kind == "canonical_first":
        return np.linalg.solve(_ad_series(alg, hcoords, 1), xi)
    return chart.compose_fn(_tangent_coords(chart, xi), hcoords)


def magnus_loop(chart, A, half, nodes):
    """Node coordinates of dh/dt h^{-1} = A(t), h(t0) = e, one step at a
    time: h_{k+1} = exp(Omega_k) h_k with Omega_k = dt/6 (A_k + 4 A_{k+1/2}
    + A_{k+1}) + dt^2/12 [A_{k+1}, A_k], from A at the nodes and `half` at
    the step midpoints."""
    h = [chart.identity_coords]
    for k, dt in enumerate(np.diff(nodes)):
        omega = (dt / 6.0 * (A[k] + 4.0 * half[k] + A[k + 1])
                 + dt ** 2 / 12.0 * bracket_coords(chart.algebra, A[k + 1], A[k]))
        h.append(chart.compose_fn(exp_algebra(chart, omega), h[-1]))
    return np.array(h)


def _rotation_rows(x, eps=1):
    """Rows X_1, X_2, X_3 of the rotations of g_eps acting linearly on R^3."""
    return [[-x[1], x[0], 0.0], [x[2], 0.0, -eps * x[0]], [0.0, -x[2], eps * x[1]]]


def _sl3_linear_rows(x):
    return [[x[1], 0.0, 0.0], [0.5 * x[0], -0.5 * x[1], 0.0], [0.0, -x[0], 0.0],
            [x[0] / 6.0, x[1] / 6.0, -x[2] / 3.0], [x[2], 0.0, 0.0], [0.0, x[2], 0.0],
            [0.0, 0.0, -x[0]], [0.0, 0.0, -x[1]]]


FIELDS = {
    **{("elastic_euler", eps): (lambda x, eps=eps: np.array(_rotation_rows(x, eps)))
       for eps in (-1, 0, 1)},
    ("so3_kinematics", None): lambda x: np.array(_rotation_rows(x)),
    ("se3_kinematics", None): lambda x: np.array(_rotation_rows(x) + np.eye(3).tolist()),
    ("quadratic_hamiltonian_classical", None): lambda x: np.array(
        [[x[1], 0.0], [0.5 * x[0], -0.5 * x[1]], [0.0, -x[0]], [-1.0, 0.0], [0.0, -1.0]]),
    ("td_linear_potential_classical", None): lambda x: np.array(
        [[x[1], 0.0], [0.0, 1.0], [1.0, 0.0]]),
    ("sl2_linear", None): lambda x: np.array(
        [[x[1], 0.0], [0.5 * x[0], -0.5 * x[1]], [0.0, -x[0]]]),
    ("sl3_linear", None): lambda x: np.array(_sl3_linear_rows(x)),
}


def Ceps(eps, x):
    if eps == 1:
        return np.cos(x)
    if eps == -1:
        return np.cosh(x)
    return np.ones_like(np.asarray(x, dtype=float)) if np.ndim(x) else 1.0


def Seps(eps, x):
    if eps == 1:
        return np.sin(x)
    if eps == -1:
        return np.sinh(x)
    return np.asarray(x, dtype=float) if np.ndim(x) else float(x)


def riccati_gauge(entries, dots, coeffs):
    """The new (a0, a1, a2) of dx/dt = a2 x^2 + a1 x + a0 under the
    determinant-one curve with entries (alpha, beta, gamma, delta) and
    their time derivatives `dots`, expanded by hand; elementwise over
    arrays."""
    al, be, ga, de = entries
    dal, dbe, dga, dde = dots
    a0, a1, a2 = coeffs
    na2 = de**2 * a2 - de * ga * a1 + ga**2 * a0 + ga * dde - de * dga
    na1 = (-2 * be * de * a2 + (al * de + be * ga) * a1 - 2 * al * ga * a0
           + de * dal - al * dde + be * dga - ga * dbe)
    na0 = be**2 * a2 - al * be * a1 + al**2 * a0 + al * dbe - be * dal
    return na0, na1, na2


# --- closed-form Wei-Norman exponents and closed flows of catalog systems ---


def _cum(samples, grid):
    return cumulative_quadrature_samples(np.asarray(samples), grid)


def _h3_wn_closed(b, grid):
    b1, b2 = b(grid.nodes)[:, :2].T
    B1 = _cum(b1, grid)
    return np.column_stack([B1, _cum(b2, grid), _cum(b2 * B1, grid)])


def _se2_wn_closed(b, grid):
    b1, b2 = b(grid.nodes)[:, :2].T
    B1 = _cum(b1, grid)
    return np.column_stack([B1, _cum(b2 * np.cos(B1), grid), _cum(b2 * np.sin(B1), grid)])


def _g4_wn_closed(b, grid):
    b1, b2 = b(grid.nodes)[:, :2].T
    B1, B2 = _cum(b1, grid), _cum(b2, grid)
    return np.column_stack([
        B1, B2, _cum(b2 * B1, grid), _cum(b2 * (0.5 * B1**2 + B1 * B2), grid)])


def _g5_wn_closed(b, grid):
    b1, b2 = b(grid.nodes)[:, :2].T
    B1, B2 = _cum(b1, grid), _cum(b2, grid)
    return np.column_stack([
        B1, B2, _cum(b2 * B1, grid), 0.5 * _cum(b2 * B1**2, grid), _cum(b2 * B1 * B2, grid)])


def _g8_wn_closed(b, grid):
    b1, b2 = b(grid.nodes)[:, :2].T
    B1, B2 = _cum(b1, grid), _cum(b2, grid)
    return np.column_stack([
        B1, B2, _cum(b2 * B1, grid), 0.5 * _cum(b2 * B1**2, grid),
        _cum(b2 * B1 * B2, grid), _cum(b2 * B1**3, grid) / 6.0,
        0.5 * _cum(b2 * B1**2 * B2, grid), 0.5 * _cum(b2 * B1 * B2**2, grid)])


def _gbar_wn_closed(n):
    """Gbar_n driven on a1, a2: v_1 = B1 and v_k = int b2 B1^(k-2) / (k-2)!."""
    def wn_closed(b, grid):
        b1, b2 = b(grid.nodes)[:, :2].T
        B1 = _cum(b1, grid)
        return np.column_stack(
            [B1] + [_cum(b2 * B1**j, grid) / math.factorial(j) for j in range(n - 1)])
    return wn_closed


def _oscq_wn_closed(b, grid):
    b1, b2 = b(grid.nodes)[:, :2].T
    B1 = _cum(b1, grid)
    v2 = _cum(b2 * np.cos(B1), grid)
    v3 = _cum(b2 * np.sin(B1), grid)
    return np.column_stack([B1, v2, v3, _cum(v2 * b2 * np.sin(B1), grid)])


# WN_CLOSED maps a catalog system to its Wei-Norman exponents in its own
# ordering, (controls, grid) -> (n, r) samples, by nested quadratures of the
# two driven channels b1, b2.
WN_CLOSED = {
    "brockett": _h3_wn_closed,
    "brockett_variant": _h3_wn_closed,
    "hopping_robot_lin": _h3_wn_closed,
    "unicycle_feedback": _h3_wn_closed,
    "rb_two_oscillators": _g4_wn_closed,
    "brockett_deg2": _g5_wn_closed,
    "murray_nonsinusoid": _g8_wn_closed,
    "unicycle": _se2_wn_closed,
    "unicycle_y": _se2_wn_closed,
    "kinematic_car_chained": _gbar_wn_closed(4),
    "trailer_power5": _gbar_wn_closed(5),
    "driven_oscillator": _oscq_wn_closed,
}


def _acted(name):
    """The flow x0 -> action(-v, x0) of the closed-form exponents v."""
    def flow(b, grid, x0):
        return get_system(name).realization.action(-WN_CLOSED[name](b, grid), x0)
    return flow


def _td_linear_flow(b, grid, x0):
    # controls are b = (1/m, -f, 0); closed flow by two quadratures
    bs = b(grid.nodes)
    f_vals, mi = -bs[:, 1], bs[:, 0]
    F1 = _cum(f_vals, grid)
    F2 = _cum(F1 * mi, grid)
    q0, p0 = float(x0[0]), float(x0[1])
    return np.column_stack([q0 + p0 * _cum(mi, grid) - F2, p0 - F1])


def _driven_oscillator_flow(b, grid, x0):
    # the affine action of the exponents: rotate the shifted initial point by v1
    v = _oscq_wn_closed(b, grid)
    qi = float(x0[0]) + v[:, 2]
    pi = float(x0[1]) - v[:, 1]
    c, s = np.cos(v[:, 0]), np.sin(v[:, 0])
    return np.column_stack([qi * c + pi * s, -qi * s + pi * c])


def _affine_scalar_flow(b, grid, x0):
    # dy/dt = b2 y + b1 by variation of constants
    b1, b2 = b(grid.nodes)[:, :2].T
    B2 = _cum(b2, grid)
    y = np.exp(B2) * (float(x0[0]) + _cum(b1 * np.exp(-B2), grid))
    return y[:, None]


# CLOSED_FLOWS maps a catalog system to its flow by quadratures,
# (controls, grid, x0) -> (n, state_dim) states.
CLOSED_FLOWS = {
    "brockett": _acted("brockett"),
    "unicycle": _acted("unicycle"),
    "driven_oscillator": _driven_oscillator_flow,
    "td_linear_potential_classical": _td_linear_flow,
    "affine_scalar": _affine_scalar_flow,
}
