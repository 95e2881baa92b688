"""Shape invariance and the factorization method as numerics.

Superpotential families with closed forms, shape-invariance residuals,
partner-potential construction, eigenfunction fixtures for the radial
oscillator / Coulomb families, and the auxiliary system
y' + y^2 = a, z' + y z = b whose general solutions seed every family.

Conventions: V = W^2 - W' + eps, Vtilde = W^2 + W' + eps, and the shape
invariance condition Vtilde(x, m) = V(x, m-1) + R(m-1) with the parameter
translated by one unit; R(m) = L(m) - L(m+1) and the unobservable constant
in L is fixed to zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import LieSysError, UnknownNameError
from .numerics import second_diff_samples

# ---------------------------------------------------------------------------
# the f/h building blocks shared by every family (B selects the particular
# solution of the constant-coefficient Riccati equation in each sign class)
# ---------------------------------------------------------------------------


def f_plus(x, A, B, c):
    x = np.asarray(x, dtype=float)
    if np.isinf(B):
        return np.tanh(c * (x - A))
    s, ch = np.sinh(c * (x - A)), np.cosh(c * (x - A))
    return (B * s - ch) / (B * ch - s)


def h_plus(x, A, B, c):
    x = np.asarray(x, dtype=float)
    if np.isinf(B):
        return 1.0 / np.cosh(c * (x - A))
    s, ch = np.sinh(c * (x - A)), np.cosh(c * (x - A))
    return 1.0 / (B * ch - s)


def f_zero(x, A, B):
    x = np.asarray(x, dtype=float)
    if np.isinf(B):
        return 1.0 / (x - A)
    return 1.0 / (1.0 + B * (x - A))


def h_zero(x, A, B):
    x = np.asarray(x, dtype=float)
    if np.isinf(B):
        return 0.5 * (x - A)
    return (0.5 * B * (x - A) ** 2 + (x - A)) / (1.0 + B * (x - A))


def f_minus(x, A, B, c):
    x = np.asarray(x, dtype=float)
    if np.isinf(B):
        return np.tan(c * (x - A))
    s, co = np.sin(c * (x - A)), np.cos(c * (x - A))
    return (B * s + co) / (B * co - s)


def h_minus(x, A, B, c):
    x = np.asarray(x, dtype=float)
    if np.isinf(B):
        return np.zeros_like(x)
    s, co = np.sin(c * (x - A)), np.cos(c * (x - A))
    return 1.0 / (B * co - s)


def _fh(sign, x, A, B, c):
    """(f, h, f', h') for the sign class; derivatives are closed forms."""
    if sign > 0:
        f, h = f_plus(x, A, B, c), h_plus(x, A, B, c)
        if np.isinf(B):
            fp = c * (1.0 - f**2)
        else:
            fp = c * (B * B - 1.0) * h**2
        hp = -c * f * h
    elif sign == 0:
        f, h = f_zero(x, A, B), h_zero(x, A, B)
        if np.isinf(B):
            fp, hp = -f**2, 0.5 * np.ones_like(f)
        else:
            fp, hp = -B * f**2, -B * f * h + 1.0
    else:
        f, h = f_minus(x, A, B, c), h_minus(x, A, B, c)
        if np.isinf(B):
            fp = c * (1.0 + f**2)
        else:
            fp = c * (B * B + 1.0) * h**2
        hp = c * f * h
    return f, h, fp, hp


# ---------------------------------------------------------------------------
# the y-z auxiliary system
# ---------------------------------------------------------------------------


def solve_yz(a: float, b: float, A: float, B: float, D: float):
    """Closed-form general solution of y' + y^2 = a, z' + y z = b.

    Returns callables (y, z); the sign of `a` selects the branch, B the
    particular Riccati solution and D the linear integration constant.
    """
    if a > 0:
        c = math.sqrt(a)

        def y(x):
            return c * f_plus(x, A, B, c)

        def z(x):
            return (b / c) * f_plus(x, A, B, c) + D * h_plus(x, A, B, c)

    elif a == 0:
        def y(x):
            # y = B f0; the B -> inf limit is f0 itself (1/(x - A))
            return f_zero(x, A, B) if np.isinf(B) else B * f_zero(x, A, B)

        def z(x):
            return b * h_zero(x, A, B) + D * f_zero(x, A, B)

    else:
        c = math.sqrt(-a)

        def y(x):
            return -c * f_minus(x, A, B, c)

        def z(x):
            return (b / c) * f_minus(x, A, B, c) + D * h_minus(x, A, B, c)

    return y, z


# ---------------------------------------------------------------------------
# superpotential families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SuperpotentialFamily:
    """One of the translated-parameter families.

    kind 'linear_in_m':  k(x, m) = k0(x) + m k1(x)
    kind 'inverse_m':    k(x, m) = q/m + m k1(x)
    kind 'nparam_linear': k(x, m) = g0(x) + sum_i m_i g_i(x) with m a tuple
    """

    kind: str
    a: float = 0.0          # sign class constant (c^2, 0 or -c^2); n-param: n*c_cm
    b: float = 0.0
    A: float = 0.0
    B: float = 1.0
    D: float = 0.0
    q: float = 1.0
    cs: tuple = ()          # n-param: (c1, ..., cn)
    c0: float = 0.0
    n: int = field(init=False, default=1)

    def __post_init__(self):
        if self.kind not in ("linear_in_m", "inverse_m", "nparam_linear"):
            raise UnknownNameError(f"unknown family kind {self.kind!r}")
        if self.kind == "nparam_linear":
            if not self.cs:
                raise LieSysError("nparam_linear needs the constants c1..cn")
            object.__setattr__(self, "n", len(self.cs))
            object.__setattr__(self, "a", float(sum(self.cs)))

    @property
    def sign(self):
        return (self.a > 0) - (self.a < 0)

    @property
    def c(self):
        return math.sqrt(abs(self.a)) if self.a != 0.0 else 0.0

    def _msum(self, m):
        if self.kind == "nparam_linear":
            m = np.atleast_1d(np.asarray(m, dtype=float))
            if m.shape != (self.n,):
                raise LieSysError(f"family expects {self.n} parameters")
            return float(np.sum(m)), float(self.c0 + np.dot(m, self.cs))
        return float(m), 0.0

    def W(self, m, x):
        """Superpotential values and closed-form derivative: (W, W')."""
        x = np.asarray(x, dtype=float)
        f, h, fp, hp = _fh(self.sign, x, self.A, self.B, self.c)
        if self.kind == "linear_in_m":
            if self.sign == 0:
                return (self.b * h + (m * self.B + self.D) * f,
                        self.b * hp + (m * self.B + self.D) * fp)
            coef = (self.b + m * self.a) / self.c
            return coef * f + self.D * h, coef * fp + self.D * hp
        if self.kind == "inverse_m":
            if m == 0:
                raise LieSysError("inverse_m family needs m != 0")
            if self.sign > 0:
                return self.q / m + m * self.c * f, m * self.c * fp
            if self.sign == 0:
                return self.q / m + m * self.B * f, m * self.B * fp
            return self.q / m - m * self.c * f, -m * self.c * fp
        # nparam_linear
        msum, combo = self._msum(m)
        Dt = self.D  # combination D0 + sum_i D_i (m_i - m_1), fixed constant
        if self.sign == 0:
            coef2 = Dt + self.B * msum / self.n
            return combo * h + coef2 * f, combo * hp + coef2 * fp
        C = self.c
        return (combo / C) * f + Dt * h, (combo / C) * fp + Dt * hp

    def L(self, m):
        """L(m) with the unobservable additive constant fixed to zero."""
        if self.kind == "linear_in_m":
            return -self.a * m * m - 2.0 * self.b * m
        if self.kind == "inverse_m":
            return -self.a * m * m - self.q**2 / m**2
        raise LieSysError("L(m) is only defined up to a constant for n-param families")

    def R(self, m):
        """R(m) = L(m) - L(m+1)."""
        if self.kind == "linear_in_m":
            return 2.0 * (self.b + m * self.a) + self.a
        if self.kind == "inverse_m":
            return self.q**2 / (m + 1.0) ** 2 - self.q**2 / m**2 + 2.0 * m * self.a + self.a
        _, combo = self._msum(m)
        return 2.0 * combo + float(sum(self.cs))

    def shift(self, m, delta):
        if self.kind == "nparam_linear":
            return tuple(float(mi) + delta for mi in np.atleast_1d(m))
        return m + delta


def eval_superpotential(fam: SuperpotentialFamily, m, xgrid):
    """W(x, m) on the grid plus the level difference R(m)."""
    x = np.asarray(xgrid, dtype=float)
    W, _ = fam.W(m, x)
    if not np.all(np.isfinite(W)):
        raise LieSysError("superpotential singular on the requested grid")
    return W, fam.R(m)


def partner_potentials(W_vals, eps, xgrid, W_prime=None):
    """(V, Vtilde) = (W^2 - W' + eps, W^2 + W' + eps) on the grid."""
    W_vals = np.asarray(W_vals, dtype=float)
    x = np.asarray(xgrid, dtype=float)
    if W_prime is None:
        from .numerics import diff_samples

        W_prime = diff_samples(W_vals, x[1] - x[0])
    W_prime = np.asarray(W_prime, dtype=float)
    return W_vals**2 - W_prime + eps, W_vals**2 + W_prime + eps


def family_potentials(fam: SuperpotentialFamily, m, xgrid):
    x = np.asarray(xgrid, dtype=float)
    W, Wp = fam.W(m, x)
    return partner_potentials(W, 0.0, x, W_prime=Wp)


def shape_invariance_residual(fam: SuperpotentialFamily, m, xgrid) -> float:
    """max |Vtilde(x, m) - V(x, m-1) - R(m-1)| over the grid."""
    _, Vt_m = family_potentials(fam, m, xgrid)
    m1 = fam.shift(m, -1.0)
    V_m1, _ = family_potentials(fam, m1, xgrid)
    res = Vt_m - V_m1 - fam.R(m1)
    if not np.all(np.isfinite(res)):
        raise LieSysError("singular node in shape-invariance residual")
    return float(np.max(np.abs(res)))


# ---------------------------------------------------------------------------
# eigenfunction fixtures (radial oscillator and Coulomb families)
# ---------------------------------------------------------------------------


def laguerre(k: int, alpha: float, u):
    """Generalized Laguerre L_k^alpha by the three-term recurrence."""
    u = np.asarray(u, dtype=float)
    if k == 0:
        return np.ones_like(u)
    prev = np.ones_like(u)
    cur = 1.0 + alpha - u
    for j in range(1, k):
        nxt = ((2.0 * j + 1.0 + alpha - u) * cur - (j + alpha) * prev) / (j + 1.0)
        prev, cur = cur, nxt
    return cur


def _l2_normalize(psi, dx):
    n = math.sqrt(float(np.trapezoid(psi**2, dx=dx)))
    return psi / n


@dataclass
class EigenFixture:
    xgrid: np.ndarray
    psi: np.ndarray
    energy: float
    V: np.ndarray
    meta: str = ""


def eigenfunction_fixture(family: str, k: int, l: float, coupling: float,
                          xgrid) -> EigenFixture:
    """Closed-form bound-state fixtures.

    family: 'radial_oscillator' (coupling = b > 0, l > -3/2),
            'radial_oscillator_shifted' (energies 2 b k),
            'coulomb' / 'coulomb_shifted' (coupling = q).
    Wavefunctions are L2-normalized on the grid; constant phase freedom is
    quotiented out.
    """
    x = np.asarray(xgrid, dtype=float)
    dx = x[1] - x[0]
    if family in ("radial_oscillator", "radial_oscillator_shifted"):
        b = coupling
        if not (b > 0 and l > -1.5):
            raise LieSysError("radial oscillator needs b > 0 and l > -3/2")
        psi = x ** (l + 1.0) * np.exp(-b * x**2 / 4.0) * laguerre(k, l + 0.5, b * x**2 / 2.0)
        V = b * b * x**2 / 4.0 + l * (l + 1.0) / x**2
        E = b * (2.0 * k + l + 1.5)
        if family == "radial_oscillator_shifted":
            V = V - b * (l + 1.5)
            E = 2.0 * b * k
        return EigenFixture(x, _l2_normalize(psi, dx), E, V, family)
    if family in ("coulomb", "coulomb_shifted"):
        q = coupling
        if q == 0 or l <= -1.5:
            raise LieSysError("coulomb needs q != 0 and l > -3/2")
        square_integrable = (q < 0 and l > -1.0) or (q > 0 and -1.5 < l < -1.0 and k == 0)
        if not square_integrable:
            raise LieSysError("parameters outside the square-integrable class")
        psi = x ** (l + 1.0) * np.exp(q * x / (k + l + 1.0)) * laguerre(
            k, 2.0 * l + 1.0, -2.0 * q * x / (k + l + 1.0))
        V = 2.0 * q / x + l * (l + 1.0) / x**2
        E = -q * q / (k + l + 1.0) ** 2
        if family == "coulomb_shifted":
            V = V + q * q / (l + 1.0) ** 2
            E = q * q / (l + 1.0) ** 2 - q * q / (k + l + 1.0) ** 2
        return EigenFixture(x, _l2_normalize(psi, dx), E, V, family)
    raise UnknownNameError(f"unknown eigenfunction family {family!r}")


def eigen_residual(fix: EigenFixture) -> float:
    """Relative residual of -psi'' + (V - E) psi = 0 on the central 80% of the grid."""
    dx = fix.xgrid[1] - fix.xgrid[0]
    d2 = second_diff_samples(fix.psi, dx)
    res = -d2 + (fix.V - fix.energy) * fix.psi
    n = len(fix.psi)
    lo = max(1, int(n * (1.0 - 0.8) / 2.0))
    return float(np.max(np.abs(res[lo:n - lo])) / np.max(np.abs(fix.psi)))


def incomplete_gamma_upper(alpha: float, x: float) -> float:
    """Gamma(alpha, x) = int_x^inf e^-t t^(alpha-1) dt by quadrature."""
    # substitute t = x + u and integrate to a generous cutoff
    hi = x + 60.0 + 10.0 * abs(alpha)
    t = np.linspace(x, hi, 400000)
    vals = np.exp(-t) * t ** (alpha - 1.0)
    return float(np.trapezoid(vals, t))


# ---------------------------------------------------------------------------
# worked transformation examples (closed-form fixtures)
# ---------------------------------------------------------------------------


def example_fixture(example_id: str, l: float, coupling: float, xgrid) -> EigenFixture:
    """Closed-form image potential and eigenfunction of the generalized
    Darboux examples; ids '5.1' through '5.4'.

    5.1: radial-oscillator variant, l in (-3/2, -1), coupling = b > 0.
    5.2: Coulomb with the coupling rescaled by l/(l+1); needs k via
         example_52_fixture (this entry returns the k = 1 case).
    5.3: shifted-Coulomb variant with sign-flipped intermediate, q < 0.
    5.4: shifted-Coulomb variant with a non-normalizable intermediate,
         q < 0; the eigenfunction has a single zero at (l+1)(l+2)/q.
    """
    x = np.asarray(xgrid, dtype=float)
    dx = x[1] - x[0]
    if example_id == "5.1":
        b = coupling
        if not (-1.5 < l < -1.0 and b > 0):
            raise LieSysError("example 5.1 needs l in (-3/2, -1) and b > 0")
        V = (b * b * x**2 / 4.0 + (l + 1.0) * (l + 2.0) / x**2 - b * (l + 1.5)
             + 6.0 * b * (l + 1.0) / (b * x**2 - 2.0 * (l + 1.0)) ** 2)
        eta = x ** (l + 2.0) * np.exp(-b * x**2 / 4.0) / np.sqrt(b * x**2 - 2.0 * (l + 1.0))
        return EigenFixture(x, _l2_normalize(eta, dx), 0.0, V, "example 5.1")
    if example_id == "5.2":
        q = coupling
        k = 1
        if not (q < 0 and l > k - 1.0):
            raise LieSysError("example 5.2 needs q < 0 and l > k - 1")
        qs = q * l / (l + 1.0)
        fix = eigenfunction_fixture("coulomb", k - 1, l - k, qs, x)
        return EigenFixture(x, fix.psi, fix.energy, fix.V, "example 5.2")
    if example_id == "5.3":
        q = coupling
        if not (-1.5 < l < -1.0 and q < 0):
            raise LieSysError("example 5.3 needs l in (-3/2, -1) and q < 0")
        den1 = 2.0 * (l + 1.0) ** 2 * (l + 2.0) ** 2 * (l + 1.0 + 2.0 * q * x) * x \
            - (2.0 * l + 3.0) * q**2 * x**3
        V = (2.0 * q / x + (l + 1.0) * (l + 2.0) / x**2 + q * q / (l + 2.0) ** 2
             + 2.0 * (l + 1.0) * q * (2.0 * (l + 1.0) * (l + 2.0) ** 3
                                      + (2.0 * l**2 + 6.0 * l + 5.0) * q * x) / den1
             + 4.0 * (l + 1.0) ** 2 * (l + 2.0) ** 2 * (2.0 * l + 3.0) * q**3 * x**2
             / (x * (den1 / x) ** 2)
             - 2.0 * (l + 1.0) ** 3 * (l + 2.0) ** 2 * q
             * ((2.0 * l**3 + 10.0 * l**2 + 10.0 * l - 1.0) * q * x
                + 4.0 * (l + 1.0) ** 2 * (l + 2.0) ** 2) / (x * (den1 / x) ** 2))
        eta = (np.exp(q * x / (l + 2.0)) * x ** (l + 2.0)
               * ((l + 1.0) * (l + 2.0) + (2.0 * l + 3.0) * q * x)
               / np.sqrt((2.0 * l + 3.0) * q**2 * x**2 / ((l + 1.0) ** 2 * (l + 2.0) ** 2)
                         - 4.0 * q * x - 2.0 * (l + 1.0)))
        return EigenFixture(x, _l2_normalize(eta, dx), 0.0, V, "example 5.3")
    if example_id == "5.4":
        q = coupling
        if not (-1.5 < l < -1.0 and q < 0):
            raise LieSysError("example 5.4 needs l in (-3/2, -1) and q < 0")
        den = 2.0 * (l + 1.0) ** 3 * (l + 2.0) ** 2 - (2.0 * l + 3.0) * q**2 * x**2
        V = (q * q / (l + 2.0) ** 2 + 2.0 * q / x + (l + 1.0) * (l + 2.0) / x**2
             - 2.0 * (l + 1.0) * q * (2.0 * (l + 1.0) * (l + 2.0) ** 2
                                      + (2.0 * l + 3.0) * q * x)
             / (2.0 * (l + 1.0) ** 3 * (l + 2.0) ** 2 * x - (2.0 * l + 3.0) * q**2 * x**3)
             + 6.0 * (l + 1.0) ** 3 * (l + 2.0) ** 2 * (2.0 * l + 3.0) * q**2 / den**2)
        eta = (np.exp(q * x / (l + 2.0)) * x ** (l + 2.0)
               * ((l + 1.0) * (l + 2.0) - q * x)
               / np.sqrt((2.0 * l + 3.0) * q**2 * x**2 / ((l + 1.0) ** 2 * (l + 2.0) ** 2)
                         - 2.0 * (l + 1.0)))
        return EigenFixture(x, _l2_normalize(eta, dx), 0.0, V, "example 5.4")
    raise UnknownNameError(f"unknown example {example_id!r}")


def example_51_norm_squared(l: float) -> float:
    """Closed-form norm of the example-5.1 eigenfunction before
    normalization with the table's constant: e^{-l-1}/2 (-l-1)^{l+3/2}
    Gamma(-l-3/2, -l-1)."""
    return (math.exp(-l - 1.0) / 2.0 * (-l - 1.0) ** (l + 1.5)
            * incomplete_gamma_upper(-l - 1.5, -l - 1.0))


def example_51_eta_with_constant(l: float, b: float, xgrid):
    """eta_0 with the paper's normalization constant (not grid-normalized)."""
    x = np.asarray(xgrid, dtype=float)
    const = math.sqrt(b ** (l + 2.5) / (2.0 ** (l + 1.5) * math.gamma(l + 2.5)))
    return const * x ** (l + 2.0) * np.exp(-b * x**2 / 4.0) / np.sqrt(
        b * x**2 - 2.0 * (l + 1.0))


def poschl_teller_pairs(alpha: float, lam: float):
    """The two (W, eps) factorization pairs of the modified Poschl-Teller
    potential V = -alpha^2 lam (lam - 1) / cosh^2(alpha x); the second pair
    is the image of the first under lam -> 1 - lam."""
    if alpha <= 0 or lam <= 1:
        raise LieSysError("needs alpha > 0 and lam > 1")

    def V(x):
        return -(alpha**2) * lam * (lam - 1.0) / np.cosh(alpha * x) ** 2

    W1 = lambda x: -lam * alpha * np.tanh(alpha * x)
    e1 = -(lam**2) * alpha**2
    W2 = lambda x: -(1.0 - lam) * alpha * np.tanh(alpha * x)
    e2 = -((1.0 - lam) ** 2) * alpha**2
    return V, (W1, e1), (W2, e2)
