"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line with the measured value against its pinned tolerance.

Everything runs at the default resolution (2000 uniform steps per unit
time) with fixed seeds.
"""

import zlib

import numpy as np

import liesys.groups as G
from liesys.algebra import catalog_algebra, exp_ad
from liesys.catalog import get_system
from liesys.numerics import TimeGrid, integrate_rk4
from liesys.quantum import SuperpotentialFamily, shape_invariance_residual
from liesys.reduction import catalog_reduction, run_catalog_reduction
from liesys.riccati import (
    RiccatiCoeffs,
    SL2Curve,
    backlund_fd,
    darboux_riccati,
    darboux_wavefunction,
    riccati_residual,
    transform_coeffs,
    transform_solution,
)
from liesys.systems import cross_ratio, riccati_superposition, solve_direct, solve_via_group
from liesys.weinorman import ControlSignal, flatness_residual, wn_matrix
from conftest import LIE_SYSTEMS, smooth_controls
from hand_laws import CLOSED_FLOWS

GRID = TimeGrid.uniform(0.0, 1.0, 2000)


def report(criterion, value, tol, extra=""):
    status = "PASS" if value <= tol else "FAIL"
    print(f"[{status}] criterion {criterion}: {value:.3e} <= {tol:.0e} {extra}")
    assert value <= tol, f"criterion {criterion}: {value:.3e} > {tol:.0e}"


def test_criterion_1_lie_theorem_oracle():
    worst = 0.0
    for name, kw, nch, amp in LIE_SYSTEMS:
        entry = get_system(name, **kw)
        for draw in range(3):
            b = smooth_controls(nch, amp=amp, seed=1000 * draw + zlib.crc32(name.encode()) % 997)
            x0 = np.full(entry.realization.state_dim, 0.1)
            direct = solve_direct(entry.realization, entry.pad_controls(b), x0, GRID)
            via = solve_via_group(entry.realization, entry.wn_group_curve(b, GRID), x0)
            worst = max(worst, float(np.max(np.abs(direct.states - via.states))))
    report(1, worst, 1e-5, "(solve_direct vs solve_via_group, 13 systems x 3 draws)")


def test_criterion_2_riccati_cross_ratio():
    rng = np.random.default_rng(7)
    co = rng.uniform(-0.8, 0.8, 6)
    c = RiccatiCoeffs(
        lambda t: co[0] + co[1] * np.sin(2 * t),
        lambda t: co[2] + co[3] * np.cos(3 * t),
        lambda t: co[4] + co[5] * np.sin(t))
    sols = [c.solve(x0, GRID).states[:, 0]
            for x0 in (0.0, -0.9, -0.4, -0.15)]
    k = cross_ratio(sols[3], sols[0], sols[1], sols[2])
    std = float(np.std(k))
    report("2a", std, 1e-8, "(cross-ratio node deviation)")
    recovered = riccati_superposition(sols[0], sols[1], sols[2], float(np.mean(k)))
    gap = float(np.max(np.abs(recovered - sols[3])))
    report("2b", gap, 1e-6, "(superposition reproduces the fourth solution)")


def _random_sl2_curve(seed, amp=0.4):
    rng = np.random.default_rng(seed)
    co = rng.uniform(-amp, amp, (3, 3))

    def smooth(i):
        cc = co[i]
        return lambda t: cc[0] + cc[1] * np.sin(t) + cc[2] * np.cos(2 * t)

    p, q, r = smooth(0), smooth(1), smooth(2)
    return SL2Curve(lambda t: np.exp(p(t)), q, r,
                    lambda t: (1.0 + q(t) * r(t)) * np.exp(-p(t)))


def test_criterion_3_affine_action_coherence():
    c = RiccatiCoeffs(lambda t: np.sin(t), lambda t: np.cos(t), lambda t: 1.0)
    x = c.solve(0.1, GRID)
    worst_joint, worst_comp = 0.0, 0.0
    for seed in range(20):
        A = _random_sl2_curve(seed)
        y = transform_solution(A, x)
        worst_joint = max(worst_joint,
                          riccati_residual(y, transform_coeffs(A, c), order=4))
        B = _random_sl2_curve(seed + 100)
        lhs = transform_coeffs(B, transform_coeffs(A, c))
        rhs = transform_coeffs(B @ A, c)
        for t in np.linspace(0.05, 0.95, 7):
            worst_comp = max(worst_comp, abs(lhs.a0(t) - rhs.a0(t)),
                             abs(lhs.a1(t) - rhs.a1(t)), abs(lhs.a2(t) - rhs.a2(t)))
    report("3a", worst_joint, 1e-5, "(joint solution/coefficient residual)")
    report("3b", worst_comp, 1e-8, "(composition law of the affine action)")


def test_criterion_4_backlund_darboux():
    from liesys.numerics import diff_samples
    from liesys.quantum import eigenfunction_fixture, example_fixture

    V = lambda x: x**2
    eps_k, eps_l = -3.0, -1.0
    wk = integrate_rk4(lambda t, w: np.array([-w[0] ** 2 + V(t) - eps_k]), [1.8], GRID)
    wl = integrate_rk4(lambda t, w: np.array([-w[0] ** 2 + V(t) - eps_l]), [1.05], GRID)
    wkl = backlund_fd(wk, wl, eps_k, eps_l)
    t = GRID.nodes
    dwk = diff_samples(wk.states[:, 0], GRID.uniform_dt)
    target = RiccatiCoeffs(
        lambda ti: float(np.interp(ti, t, V(t) - 2 * dwk - eps_l)), 0.0, -1.0)
    report("4a", riccati_residual(wkl, target, order=4), 1e-5,
           "(Backlund target-equation residual, V = x^2)")

    gam = 1.0 / np.sqrt(eps_l - eps_k)
    wd = darboux_riccati(wl, wk, gam, 1.0)
    report("4b", float(np.max(np.abs(wd.states - wkl.states))), 1e-10,
           "(Darboux reduces to Backlund)")

    l, bb = -1.25, 2.0
    x = np.linspace(0.02, 10.0, 5001)
    xgrid = TimeGrid.from_nodes(x)
    fw = eigenfunction_fixture("radial_oscillator_shifted", 0, l + 1.0, bb, x)
    fv = eigenfunction_fixture("radial_oscillator_shifted", 0, l, bb, x)
    gamma = lambda xx: 1.0 / np.sqrt(bb - 2.0 * (l + 1.0) / xx**2)
    psi = darboux_wavefunction(fw.psi, fv.psi, gamma, xgrid)
    psi = psi / np.sqrt(np.trapezoid(psi**2, x))
    fix = example_fixture("5.1", l, bb, x)
    ref = fix.psi
    if np.sign(psi[2500]) != np.sign(ref[2500]):
        psi = -psi
    rel_l2 = float(np.sqrt(np.trapezoid((psi - ref) ** 2, x)))
    report("4c", rel_l2, 1e-3, "(example 5.1 eigenfunction, relative L2)")
    from liesys.riccati import schrodinger_residual

    res = schrodinger_residual(psi, fix.V, 0.0, xgrid)
    report("4d", res, 1e-3, "(example 5.1 eigen-residual)")


def test_criterion_5_shape_invariance():
    rng = np.random.default_rng(11)
    xplus = np.linspace(0.3, 6.0, 2001)
    xzero = np.linspace(0.3, 3.0, 2001)
    xminus = np.linspace(0.05, 0.4, 2001)

    def draw_A(sign):
        # negative classes keep A in [0, 0.1]: the trig poles then sit past
        # the right end of the x window for every in-class draw
        return rng.uniform(0.0, 0.1) if sign < 0 else rng.uniform(-0.2, 0.2)

    worst = 0.0
    for kind in ("linear_in_m", "inverse_m"):
        for a, xg in ((1.7, xplus), (0.0, xzero), (-1.3, xminus)):
            for _ in range(50):
                fam = SuperpotentialFamily(
                    kind, a=a, b=rng.uniform(-1, 1), A=draw_A(np.sign(a)),
                    B=rng.uniform(1.2, 3.0), D=rng.uniform(-1, 1),
                    q=rng.uniform(0.5, 2.0))
                worst = max(worst, shape_invariance_residual(
                    fam, rng.uniform(1.5, 3.5), xg))
    for n in (2, 3):
        for _ in range(50):
            sign = rng.choice([-1.0, 1.0])
            cs = tuple(sign * rng.uniform(0.2, 1.0, n))
            fam = SuperpotentialFamily(
                "nparam_linear", cs=cs, c0=rng.uniform(-0.5, 0.5),
                A=draw_A(sign), B=rng.uniform(1.2, 3.0), D=rng.uniform(-1, 1))
            xg = xminus if sign < 0 else xplus
            worst = max(worst, shape_invariance_residual(
                fam, tuple(rng.uniform(1.5, 3.0, n)), xg))
    report(5, worst, 1e-9, "(six one-parameter families + n = 2, 3; 50 draws each)")


REDUCTIONS = [("h3/a1", {}), ("h3/a2", {}), ("h3/a3", {}),
              ("se2/a1", {}), ("se2/a2", {}), ("se2/a3", {}), ("se2/a2a3", {}),
              ("sl2/a2a3", {}), ("sl2/a1a2", {}),
              ("g5/center", {}), ("g7/ideal", {}), ("g8/ideal", {}),
              ("gbar4/center", {}), ("gbar5/ideal", {}),
              ("su2/a1", {}), ("se3/so3", {}), ("se3/r3", {})]


def test_criterion_6_reduction_round_trips():
    worst_log, worst_fix = 0.0, 0.0
    for name, kw in REDUCTIONS:
        case = catalog_reduction(name, **kw)
        amp = 0.6 if name.startswith("sl2") else 1.0
        b = smooth_controls(len(case.used_channels), amp=amp,
                            seed=zlib.crc32(name.encode()) % 991)
        out = run_catalog_reduction(case, b, GRID)
        fix = case.fixture_coeffs(b, out["homogeneous"])
        worst_fix = max(worst_fix, float(np.max(np.abs(out["coefficients"] - fix))))
        bp = case.pad_controls(b)
        g = out["reconstruction"]
        for k in range(4, 1997, 43):
            t = GRID.nodes[k]
            r = G.right_log_derivative(g, t, h=GRID.uniform_dt, order=4)
            worst_log = max(worst_log, float(np.max(np.abs(r + bp(t)))))
    report("6a", worst_log, 1e-5, "(reconstruction log-derivative, 17 reductions)")
    report("6b", worst_fix, 1e-6, "(reduced-coefficient fixtures)")


def test_criterion_7_chained_power_identification():
    rng = np.random.default_rng(23)
    worst = 0.0
    for n in range(3, 7):
        alg = catalog_algebra("gbar", n=n)
        for _ in range(100):
            v = rng.standard_normal(n)
            b = np.zeros(n)
            b[:2] = rng.standard_normal(2)
            rev = tuple(range(n, 0, -1))
            rhs = np.linalg.solve(wn_matrix(alg, rev, v), b)
            vd = np.array([rhs[n - k] for k in range(1, n + 1)])
            vv = np.array([v[n - k] for k in range(1, n + 1)])
            expected = np.concatenate([[b[0], b[1]], -b[0] * vv[1:-1]])
            worst = max(worst, float(np.max(np.abs(vd - expected))))
            rhs = np.linalg.solve(wn_matrix(alg, tuple(range(1, n + 1)), v), b)
            fact, expected = 1.0, [b[0], b[1]]
            for k in range(3, n + 1):
                fact *= (k - 2)
                expected.append(b[1] * v[0] ** (k - 2) / fact)
            worst = max(worst, float(np.max(np.abs(rhs - np.array(expected)))))
    report(7, worst, 1e-12, "(chained and power forms from the two orderings)")


def test_criterion_8_flatness():
    h3 = catalog_algebra("h3")
    se2 = catalog_algebra("se2")

    def h3_gauge(x1, x2):
        a, b, c = (0.3 * np.sin(x1) + 0.1 * x2, 0.2 * x1 * x2, 0.1 * np.cos(x1 + x2))
        d1 = np.array([0.3 * np.cos(x1), 0.2 * x2, -0.1 * np.sin(x1 + x2)])
        d2 = np.array([0.1, 0.2 * x1, -0.1 * np.sin(x1 + x2)])
        rows = []
        for d in (d1, d2):
            rows.append([d[0], d[1], d[2] - 0.5 * (b * d[0] - a * d[1])])
        return np.array(rows)

    def se2_gauge(x1, x2):
        th = 0.4 * np.sin(x1) + 0.2 * x2
        a = 0.3 * x1 + 0.1 * np.cos(x2)
        bb = 0.2 * x1 * x2
        dth = np.array([0.4 * np.cos(x1), 0.2])
        da = np.array([0.3, -0.1 * np.sin(x2)])
        db = np.array([0.2 * x2, 0.2 * x1])
        rows = []
        for mu in range(2):
            rows.append([dth[mu],
                         da[mu] * np.cos(th) - db[mu] * np.sin(th),
                         da[mu] * np.sin(th) + db[mu] * np.cos(th)])
        return np.array(rows)

    worst_gauge = max(
        flatness_residual(h3_gauge, h3, (0, 1), (0, 1), n=11, h=1e-3),
        flatness_residual(se2_gauge, se2, (0, 1), (0, 1), n=11, h=1e-3))
    report("8a", worst_gauge, 1e-6, "(pure-gauge fields on h(3) and se(2))")

    def nonflat(x1, x2):
        return np.array([[1.0, 0.0, 0.0], [0.0, x1, 0.0]])

    res = flatness_residual(nonflat, h3, (0, 2), (0, 1), n=11, h=1e-3)
    report("8b", abs(res - 2.0) / 2.0, 5e-2, "(non-flat counterexample vs hand value 2)")


def test_criterion_9_algebra_group_coherence():
    rng = np.random.default_rng(31)
    worst_exp, worst_hom = 0.0, 0.0
    keys = [("H3", "canonical_second", (1, 2, 3)), ("H3", "canonical_first", None),
            ("SE2", "canonical_second", (1, 2, 3)), ("SE3", "matrix", None),
            ("Geps(+1)", "quaternion", None), ("Geps(-1)", "quaternion", None),
            ("Geps(+0)", "quaternion", None), ("SL2", "matrix", None),
            ("SL3", "matrix", None), ("SO3", "matrix", None),
            ("G4", "canonical_second", (1, 2, 3, 4)),
            ("G5", "canonical_first", None), ("Aff", "canonical_second", (1, 2))]
    for key in keys:
        ch = G._CHARTS[key]
        for i in range(ch.algebra.dim):
            s = rng.uniform(-1.5, 1.5)
            gap = (G.group_adjoint(G.exp_chart(ch, i, s))
                   - exp_ad(ch.algebra, ch.algebra.basis_vector(i), s))
            worst_exp = max(worst_exp, float(np.max(np.abs(gap))))
        for _ in range(10):
            g = ch.identity()
            h = ch.identity()
            for i in range(ch.algebra.dim):
                g = G.compose(g, G.exp_chart(ch, i, 0.5 * rng.standard_normal()))
                h = G.compose(h, G.exp_chart(ch, i, 0.5 * rng.standard_normal()))
            gap = G.group_adjoint(G.compose(g, h)) - G.group_adjoint(g) @ G.group_adjoint(h)
            worst_hom = max(worst_hom, float(np.max(np.abs(gap))))
    report("9a", worst_exp, 1e-9, "(Ad(exp(s a)) = exp_ad(a, s))")
    report("9b", worst_hom, 1e-9, "(Ad homomorphism)")

    # composition laws vs faithful matrix representations, nodewise along curves
    worst_mat = 0.0
    for key in (("H3", "canonical_second", (1, 2, 3)), ("SE2", "canonical_second", (1, 2, 3)),
                ("SE3", "matrix", None), ("Geps(+1)", "quaternion", None),
                ("Geps(-1)", "quaternion", None), ("Geps(+0)", "quaternion", None),
                ("SL2", "matrix", None), ("SL3", "matrix", None)):
        ch = G._CHARTS[key]
        for k in range(50):
            t = k / 50.0
            g = ch.identity()
            h = ch.identity()
            for i in range(ch.algebra.dim):
                g = G.compose(g, G.exp_chart(ch, i, 0.6 * np.sin(2 * t + i)))
                h = G.compose(h, G.exp_chart(ch, i, 0.5 * np.cos(3 * t - i)))
            gap = G.compose(g, h).matrix() - g.matrix() @ h.matrix()
            worst_mat = max(worst_mat, float(np.max(np.abs(gap))))
    report("9c", worst_mat, 1e-10, "(composition laws vs matrix representations)")


def test_criterion_10_hamiltonian_flows():
    worst = 0.0
    entry = get_system("td_linear_potential_classical")
    for seed in range(3):
        f = smooth_controls(1, amp=1.0, seed=seed + 60)
        b = ControlSignal([lambda t: 1.0 / 1.3, lambda t: -f(t)[0]])
        bp = entry.pad_controls(b)
        direct = solve_direct(entry.realization, bp, [0.4, -0.2], GRID)
        closed = CLOSED_FLOWS["td_linear_potential_classical"](bp, GRID, [0.4, -0.2])
        worst = max(worst, float(np.max(np.abs(direct.states - closed))))
    report("10a", worst, 1e-6, "(time-dependent linear potential closed flow)")

    worst = 0.0
    entry = get_system("driven_oscillator")
    for seed in range(3):
        ctk = smooth_controls(2, amp=1.0, seed=seed + 80)
        b = ControlSignal([lambda t: 1.0 + 0.3 * np.sin(2 * t), lambda t: ctk(t)[1]])
        bp = entry.pad_controls(b)
        direct = solve_direct(entry.realization, bp, [0.5, 0.1], GRID)
        closed = CLOSED_FLOWS["driven_oscillator"](bp, GRID, [0.5, 0.1])
        worst = max(worst, float(np.max(np.abs(direct.states - closed))))
    report("10b", worst, 1e-6, "(driven oscillator Wei-Norman solution)")
