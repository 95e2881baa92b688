import numpy as np
import pytest

from liesys.errors import CoincidenceError, LieSysError, NumericsError
from liesys.numerics import (
    TimeGrid,
    Trajectory,
    cumulative_quadrature_samples,
    diff_samples,
    integrate_rk4,
)
from liesys.riccati import (
    RiccatiCoeffs,
    SL2Curve,
    backlund_fd,
    darboux_riccati,
    darboux_wavefunction,
    general_from_particular,
    reduce_known,
    riccati_residual,
    schrodinger_residual,
    superpotential_residual,
    transform_coeffs,
    transform_solution,
)
from liesys.systems import INFINITY, cross_ratio
from hand_laws import riccati_gauge


def sample_coeffs():
    return RiccatiCoeffs(lambda t: np.sin(t), lambda t: np.cos(t),
                         lambda t: 1.0 + 0.3 * t)


def sl2_curve(seed, amp=0.4):
    rng = np.random.default_rng(seed)
    co = rng.uniform(-amp, amp, (3, 3))

    def smooth(i):
        c = co[i]
        return lambda t: c[0] + c[1] * np.sin(t) + c[2] * np.cos(2 * t)

    p, q, r = smooth(0), smooth(1), smooth(2)
    return SL2Curve(lambda t: np.exp(p(t)), q, r,
                    lambda t: (1.0 + q(t) * r(t)) * np.exp(-p(t)))


# --- the affine action ------------------------------------------------------------


def test_transform_identity():
    c = sample_coeffs()
    out = transform_coeffs(SL2Curve.identity(), c)
    for t in np.linspace(0, 1, 7):
        assert abs(out.a0(t) - c.a0(t)) < 1e-9
        assert abs(out.a1(t) - c.a1(t)) < 1e-9
        assert abs(out.a2(t) - c.a2(t)) < 1e-9


def test_transform_constant_diagonal():
    c = sample_coeffs()
    al = 1.8
    out = transform_coeffs(SL2Curve(al, 0.0, 0.0, 1.0 / al), c)
    for t in (0.2, 0.7):
        assert abs(out.a2(t) - c.a2(t) / al**2) < 1e-10
        assert abs(out.a1(t) - c.a1(t)) < 1e-10
        assert abs(out.a0(t) - al**2 * c.a0(t)) < 1e-10


def test_transformed_triple_runs_the_law_once_per_call(monkeypatch):
    # one evaluation of the triple is one law: one dots call per curve,
    # shared by a0, a1 and a2 (the channel rule ran it 9 times per curve)
    calls = []
    dots = SL2Curve.dots
    monkeypatch.setattr(SL2Curve, "dots", lambda self, *a: calls.append(self) or dots(self, *a))
    c, A, B = sample_coeffs(), sl2_curve(1), sl2_curve(2)
    t = np.linspace(0.1, 0.9, 11)
    once = transform_coeffs(A, c)
    rows = once(t)
    assert calls == [A]
    calls.clear()
    twice = transform_coeffs(B, once)
    twice(t)
    assert sorted(map(id, calls)) == sorted([id(A), id(B)])
    calls.clear()
    twice.a1(0.3)
    assert len(calls) == 2
    assert rows.shape == (11, 3)
    assert np.array_equal(rows[:, 1], once.a1(t))
    assert np.max(np.abs(rows - np.array([once(s) for s in t]))) <= 1e-14


def test_solve_samples_the_triple_once(unit_grid):
    # the stage table takes one array call per coefficient (checked against
    # scalar calls at its two ends), not one call per RK4 stage
    calls = []

    def a0(t):
        calls.append(np.ndim(t))
        return np.sin(t)

    c = RiccatiCoeffs(a0, np.cos, 1.0)
    x = c.solve(0.1, unit_grid)
    assert calls == [1, 0, 0]
    per_stage = integrate_rk4(lambda t, x: c.rhs(t, x), [0.1], unit_grid)
    assert np.max(np.abs(x.states - per_stage.states)) <= 1e-14


def test_transform_group_property():
    c = sample_coeffs()
    worst = 0.0
    for seed in range(5):
        A1 = sl2_curve(seed)
        A2 = sl2_curve(seed + 50)
        lhs = transform_coeffs(A2, transform_coeffs(A1, c))
        rhs = transform_coeffs(A2 @ A1, c)
        for t in np.linspace(0.1, 0.9, 9):
            worst = max(worst, abs(lhs.a0(t) - rhs.a0(t)),
                        abs(lhs.a1(t) - rhs.a1(t)), abs(lhs.a2(t) - rhs.a2(t)))
    assert worst < 1e-8


def test_transform_solution_identity(unit_grid):
    c = sample_coeffs()
    x = c.solve(0.1, unit_grid)
    y = transform_solution(SL2Curve.identity(), x)
    assert np.allclose(y.states, x.states)


def test_shift_by_solution_kills_a0(unit_grid):
    c = sample_coeffs()
    x = c.solve(0.1, unit_grid)
    nodes = unit_grid.nodes
    x1 = lambda t: float(np.interp(t, nodes, x.states[:, 0]))
    # A = ((1, -x1), (0, 1)): subtracting a known solution kills a0
    out = transform_coeffs(SL2Curve(1.0, lambda t: -x1(t), 0.0, 1.0), c)
    assert max(abs(out.a0(t)) for t in np.linspace(0.05, 0.95, 9)) < 1e-5
    # and a1 becomes 2 x1 a2 + a1
    for t in (0.3, 0.6):
        assert abs(out.a1(t) - (2 * x1(t) * c.a2(t) + c.a1(t))) < 1e-8


def test_transformed_solution_solves_transformed_equation(unit_grid):
    c = sample_coeffs()
    x = c.solve(0.1, unit_grid)
    A = sl2_curve(7)
    y = transform_solution(A, x)
    assert riccati_residual(y, transform_coeffs(A, c), order=4) < 1e-5


def test_gl2_positive_determinant_rescaled(unit_grid):
    c = sample_coeffs()
    A = SL2Curve(2.0, 0.0, 0.0, 2.0)           # det 4: rescaled to identity
    out = transform_coeffs(A, c)
    assert abs(out.a0(0.4) - c.a0(0.4)) < 1e-9


def test_negative_determinant_rejected():
    with pytest.raises(LieSysError):
        SL2Curve(-1.0, 0.0, 0.0, 1.0)


def test_curve_normalized_at_every_time(unit_grid):
    # det = 1 + t: one at t = 0 only, so a rescale decided there is wrong later
    c = sample_coeffs()
    A = SL2Curve(1.0, lambda t: 0.3 * t, 0.0, lambda t: 1.0 + t)
    assert np.allclose(np.linalg.det(A.matrix(unit_grid.nodes)), 1.0, atol=1e-14)
    y = transform_solution(A, c.solve(0.1, unit_grid))
    assert riccati_residual(y, transform_coeffs(A, c), order=4) < 1e-5


def test_determinant_rejected_where_it_turns_nonpositive():
    A = SL2Curve(1.0, 0.0, 0.0, lambda t: 1.0 - t)      # det 1 - t
    A.matrix(0.5)
    with pytest.raises(LieSysError, match="t = 1"):
        A.matrix(np.linspace(0.0, 1.0, 11))


def test_transform_coeffs_matches_hand_expanded_law():
    c = sample_coeffs()
    t = np.linspace(0.0, 1.0, 401)
    for seed in range(5):
        A = sl2_curve(seed)
        M, dM = A.matrix(t), A.dots(t)
        ref = np.array(riccati_gauge(M.reshape(-1, 4).T, dM.reshape(-1, 4).T, c(t).T)).T
        assert np.max(np.abs(transform_coeffs(A, c)(t) - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_arrays_of_times_equal_scalar_calls():
    # the a0 callable takes scalars only, so it is called once per time
    knots = np.linspace(0.0, 1.0, 11)
    c = RiccatiCoeffs(lambda t: float(np.interp(t, knots, knots**2)), np.cos, 2.0)
    A = sl2_curve(3)
    out = transform_coeffs(A, c)
    t = np.linspace(0.05, 0.95, 23)
    for f, shape in ((c, (3,)), (A.matrix, (2, 2)), (A.dots, (2, 2)), (out, (3,))):
        whole = f(t)
        assert whole.shape == t.shape + shape
        assert np.max(np.abs(whole - np.array([f(s) for s in t]))) <= 1e-15 * np.max(np.abs(whole))


def test_product_curve_evaluates_each_factor_once():
    A, B = sl2_curve(1), sl2_curve(2)
    calls = []
    for name, curve in (("A", A), ("B", B)):
        def counted(t, name=name, matrix=curve.matrix):
            calls.append(name)
            return matrix(t)
        curve.matrix = counted
    t = np.linspace(0.0, 1.0, 9)
    product = (A @ B).matrix(t)
    assert sorted(calls) == ["A", "B"]
    assert np.allclose(product, A.matrix(t) @ B.matrix(t), rtol=0.0, atol=1e-15)


def test_pole_crossing_is_loud(unit_grid):
    x = Trajectory(unit_grid, np.linspace(-1, 1, 2001)[:, None])
    A = SL2Curve(1.0, 0.0, 1.0, 1.0)    # pole where x = -1 shifted: gamma x + delta = x + 1
    with pytest.raises(CoincidenceError):
        transform_solution(A, x)


# every guarded denominator is tiny at node K and zero at node K + 2; the
# error names node K.  Nodes K + 1 and K + 2 sit 1e-15 and 2e-15 past node K,
# so the integral of exp(2 int W_p) with W_p = 0 is flat there and F = -I2 at
# node K + 2 leaves general_from_particular's denominator tiny at node K.
K = 60


def _pole_inputs():
    nodes = np.linspace(0.0, 1.0, 201)
    nodes[K + 1:K + 3] = nodes[K] + np.array([1e-15, 2e-15])
    grid = TimeGrid.from_nodes(nodes)
    gap = np.full(len(nodes), 0.5)
    gap[K], gap[K + 2] = 1e-15, 0.0
    return grid, gap, lambda v: Trajectory(grid, np.asarray(v, dtype=float)[:, None])


POLE_CASES = {
    "cross_ratio": lambda grid, gap, traj: cross_ratio(
        traj(0.2 + gap), traj(0.0 * gap), traj(0.2 + 0.0 * gap), traj(1.0 + 0.0 * gap)),
    "backlund_fd": lambda grid, gap, traj: backlund_fd(
        traj(0.3 + gap), traj(0.3 + 0.0 * gap), -1.0, 1.0),
    "general_from_particular": lambda grid, gap, traj: general_from_particular(
        traj(0.0 * gap), -cumulative_quadrature_samples(1.0 + 0.0 * gap, grid)[K + 2]),
    "transform_solution": lambda grid, gap, traj: transform_solution(
        SL2Curve(1.0, 0.0, 1.0, 1.0), traj(gap - 1.0)),
}


@pytest.mark.parametrize("kind", sorted(POLE_CASES))
def test_pole_guard_names_the_first_bad_node(kind):
    with pytest.raises(CoincidenceError, match=f"at node {K} ") as exc:
        POLE_CASES[kind](*_pole_inputs())
    assert exc.value.node == K


# --- reductions from known solutions ----------------------------------------------


def tan_solutions(grid):
    t = grid.nodes
    return [Trajectory(grid, np.tan(t + s)[:, None]) for s in (0.0, 0.2, 0.4)]


def test_reduce_one_solution(unit_grid):
    c = RiccatiCoeffs(1.0, 0.0, 1.0)
    x1 = tan_solutions(unit_grid)[0]
    red = reduce_known(c, [x1])
    assert red.kind == "bernoulli"
    assert red.reduced.a0(0.5) == 0.0
    rec = red.general_solution(np.tan(0.1))
    ref = c.solve(np.tan(0.1), unit_grid)
    assert np.max(np.abs(rec.states - ref.states)) < 1e-6


def test_reduce_one_constant_solution_criterion_a(unit_grid):
    # a0 + a1 + a2 = 0 means x = 1 solves the equation; the reduced a0 vanishes
    c = RiccatiCoeffs(lambda t: -1.0 - np.sin(t), lambda t: np.sin(t), 1.0)
    ones = Trajectory(unit_grid, np.ones((2001, 1)))
    red = reduce_known(c, [ones])
    assert red.reduced.a0(0.3) == 0.0
    assert abs(red.reduced.a1(0.3) - (2 * c.a2(0.3) + c.a1(0.3))) < 1e-12


def test_reduce_two_solutions(unit_grid):
    c = RiccatiCoeffs(1.0, 0.0, 1.0)
    x1, x2, _ = tan_solutions(unit_grid)
    red = reduce_known(c, [x1, x2])
    assert red.kind == "linear_homogeneous"
    for t in (0.2, 0.8):
        x1t = np.tan(t)
        assert abs(red.reduced.a1(t) - (2 * x1t * c.a2(t) + c.a1(t))) < 1e-6
    rec = red.general_solution(np.tan(0.1))
    ref = c.solve(np.tan(0.1), unit_grid)
    assert np.max(np.abs(rec.states - ref.states)) < 1e-6


def test_reduce_three_solutions(unit_grid):
    c = RiccatiCoeffs(1.0, 0.0, 1.0)
    red = reduce_known(c, tan_solutions(unit_grid))
    assert red.kind == "constants"
    rec = red.general_solution(np.tan(0.1))
    ref = c.solve(np.tan(0.1), unit_grid)
    assert np.max(np.abs(rec.states - ref.states)) < 1e-6
    k = red.constant_of(ref)
    assert np.std(k) < 1e-8


def test_reduce_rejects_non_solution(unit_grid):
    c = RiccatiCoeffs(1.0, 0.0, 1.0)
    bogus = Trajectory(unit_grid, (unit_grid.nodes**2)[:, None])
    with pytest.raises(LieSysError):
        reduce_known(c, [bogus])


def test_reduce_rejects_coincident(unit_grid):
    c = RiccatiCoeffs(1.0, 0.0, 1.0)
    x1 = tan_solutions(unit_grid)[0]
    with pytest.raises(CoincidenceError):
        reduce_known(c, [x1, Trajectory(unit_grid, x1.states.copy())])


def test_coincident_known_solutions_name_the_meeting_node(unit_grid):
    # x2 - x1 = 1e-5 (t - t_1234) keeps x2 within the solution tolerance and
    # makes the two meet at node 1234 only
    c = RiccatiCoeffs(1.0, 0.0, 1.0)
    t = unit_grid.nodes
    x1 = tan_solutions(unit_grid)[0]
    x2 = Trajectory(unit_grid, x1.states + 1e-5 * (t - t[1234])[:, None])
    with pytest.raises(CoincidenceError, match="known solutions 0 and 1") as exc:
        reduce_known(c, [x1, x2])
    assert exc.value.node == 1234


# --- Backlund and Darboux -----------------------------------------------------------


def _riccati_w(V, eps, w0, grid):
    return integrate_rk4(lambda t, w: np.array([-w[0] ** 2 + V(t) - eps]), [w0], grid)


@pytest.fixture
def backlund_fixture(unit_grid):
    V = lambda x: x**2
    wk = _riccati_w(V, -3.0, 1.8, unit_grid)
    wl = _riccati_w(V, -1.0, 1.05, unit_grid)
    return V, wk, wl


def test_backlund_target_residual(backlund_fixture, unit_grid):
    V, wk, wl = backlund_fixture
    wkl = backlund_fd(wk, wl, -3.0, -1.0)
    t = unit_grid.nodes
    dwk = diff_samples(wk.states[:, 0], unit_grid.uniform_dt)
    target = RiccatiCoeffs(
        lambda ti: float(np.interp(ti, t, V(t) - 2 * dwk + 1.0)), 0.0, -1.0)
    assert riccati_residual(wkl, target) < 1e-5


def test_backlund_rejects_equal_energies(backlund_fixture):
    _, wk, wl = backlund_fixture
    with pytest.raises(LieSysError):
        backlund_fd(wk, wl, 1.0, 1.0)


def test_backlund_constant_wk_pointwise(unit_grid):
    # flat section: V - eps_k = w0^2 constant; formula evaluates pointwise
    w0 = 1.3
    wk = Trajectory(unit_grid, np.full((2001, 1), w0))
    wl = Trajectory(unit_grid, np.full((2001, 1), -0.4))
    out = backlund_fd(wk, wl, 0.0, 2.0)
    expected = -w0 - (0.0 - 2.0) / (w0 - (-0.4))
    assert np.allclose(out.states, expected)


def test_darboux_reduces_to_backlund(backlund_fixture):
    _, wk, wl = backlund_fixture
    wkl = backlund_fd(wk, wl, -3.0, -1.0)
    gam = 1.0 / np.sqrt(-1.0 - (-3.0))
    wd = darboux_riccati(wl, wk, gam, 1.0)
    assert np.max(np.abs(wd.states - wkl.states)) < 1e-10


def test_darboux_gamma_sign_invariance(backlund_fixture):
    _, wk, wl = backlund_fixture
    a = darboux_riccati(wl, wk, 0.7, 1.0)
    b = darboux_riccati(wl, wk, -0.7, 1.0)
    assert np.max(np.abs(a.states - b.states)) == 0.0


def test_darboux_general_gamma_residual(unit_grid):
    # gamma(x) nonconstant, c = 1: v solves the shifted equation
    V = lambda x: x**2
    gam = lambda x: 1.0 / np.sqrt(2.0 + 0.5 * np.sin(x))
    eps = -1.0
    w = _riccati_w(V, eps, 1.05, unit_grid)
    v = integrate_rk4(
        lambda t, vv: np.array([-vv[0] ** 2 + V(t) + 1.0 / gam(t) ** 2 + 1.0]),
        [1.9], unit_grid)
    wbar = darboux_riccati(w, v, gam, 1.0)
    # target: wbar' + wbar^2 = V - 2(gamma' v/gamma + v') + gamma''/gamma - eps
    t = unit_grid.nodes
    h = 1e-5
    gvals = gam(t)
    gp = (gam(t + h) - gam(t - h)) / (2 * h)
    gpp = (gam(t + h) - 2 * gam(t) + gam(t - h)) / h**2
    vv = v.states[:, 0]
    vp = diff_samples(vv, unit_grid.uniform_dt)
    a0 = V(t) - 2 * (gp * vv / gvals + vp) + gpp / gvals - eps
    target = RiccatiCoeffs(lambda ti: float(np.interp(ti, t, a0)), 0.0, -1.0)
    assert riccati_residual(wbar, target) < 1e-5


def test_darboux_wavefunction_classical_corollary():
    # constant gamma on the harmonic line: transforming the first excited
    # state by the ground state lands on the ground state of V - 2v'
    x = np.linspace(-6.0, 6.0, 4001)
    grid = TimeGrid.from_nodes(x)
    psi_w = x * np.exp(-x**2 / 2)            # V = x^2, eps = 3
    psi_v = np.exp(-x**2 / 2)                # solves V + 1/gamma^2 - eps with 1/gamma^2 = 2
    gam = 1.0 / np.sqrt(2.0)
    psi = darboux_wavefunction(psi_w, psi_v, gam, grid)
    ref = -gam * np.exp(-x**2 / 2)
    assert np.max(np.abs(psi - ref)) < 1e-5
    # image equation: V - 2 v' - eps = x^2 - 1 with v = psi_v'/psi_v
    res = schrodinger_residual(psi, x**2 + 2.0, 3.0, grid, interior=0.6)
    assert res < 1e-3


def test_residuals_need_a_uniform_grid():
    # a NumericsError naming the requirement, not a TypeError on a None step
    x = np.array([0.0, 0.1, 0.3, 0.6, 1.0])
    grid = TimeGrid.from_nodes(x)
    with pytest.raises(NumericsError, match="^schrodinger_residual needs a uniform grid"):
        schrodinger_residual(np.exp(-x**2), x**2, 1.0, grid)
    with pytest.raises(NumericsError, match="^superpotential_residual needs a uniform grid"):
        superpotential_residual(Trajectory(grid, x[:, None]), x**2, 1.0)


def test_darboux_wavefunction_names_the_node_of_psi_v():
    # psi_v changes sign between nodes 100 and 101; its tail is far smaller
    x = np.linspace(0.0, 5.0, 501)
    psi_v = np.exp(-x**2) * (x - 1.005)
    with pytest.raises(CoincidenceError) as exc:
        darboux_wavefunction(np.exp(-x**2), psi_v, 1.0, TimeGrid.from_nodes(x))
    assert exc.value.node == 100


def test_darboux_wavefunction_rejects_equal():
    x = np.linspace(0.1, 5.0, 501)
    grid = TimeGrid.from_nodes(x)
    psi = np.exp(-x**2)
    with pytest.raises(LieSysError):
        darboux_wavefunction(psi, psi, 1.0, grid)


# --- general solution from a particular one ----------------------------------------


def test_general_from_particular_infinity(unit_grid):
    Wp = Trajectory(unit_grid, unit_grid.nodes[:, None])
    out = general_from_particular(Wp, INFINITY)
    assert np.array_equal(out.states, Wp.states)


def test_general_from_particular_residuals(unit_grid):
    t = unit_grid.nodes
    Wp = Trajectory(unit_grid, t[:, None])     # superpotential of V = t^2, eps = 1
    V = t**2
    assert superpotential_residual(Wp, V, 1.0) < 1e-10
    for F in (2.0, 5.0, -9.0, 17.0, 3.3):
        Wg = general_from_particular(Wp, F)
        assert superpotential_residual(Wg, V, 1.0) < 1e-5


def test_general_from_particular_distinct_partners(unit_grid):
    t = unit_grid.nodes
    Wp = Trajectory(unit_grid, t[:, None])
    W1 = general_from_particular(Wp, 5.0)
    W2 = general_from_particular(Wp, 9.0)
    assert np.max(np.abs(W1.states - W2.states)) > 1e-3
