import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import liesys.numerics as N
from liesys.algebra import wn_matrix
from liesys.catalog import get_system
from liesys.errors import NumericsError, SingularMatrixError
from liesys.groups import exp_algebra, get_chart
from liesys.numerics import (
    TimeGrid,
    Trajectory,
    cumulative_quadrature_samples,
    diff_samples,
    diff_samples4,
    integrate_rk4,
    interp_columns,
    linsolve,
    rk4_stage_times,
)


def test_stage_times_interleave_nodes_and_midpoints():
    grid = TimeGrid.from_nodes([0.0, 0.1, 0.4, 1.0])
    assert np.all(rk4_stage_times(grid) == [0.0, 0.05, 0.1, 0.25, 0.4, 0.7, 1.0])
    # a table drives the same steps as the callable it samples
    u = lambda t: np.cos(3 * t)  # noqa: E731
    table = u(rk4_stage_times(grid))[:, None]
    fine = TimeGrid.uniform(0.0, 1.0, 50)
    got = integrate_rk4(lambda t, x, ut: ut * x, [1.0], fine,
                        table=u(rk4_stage_times(fine))[:, None]).states
    ref = integrate_rk4(lambda t, x: u(t) * x, [1.0], fine).states
    assert np.max(np.abs(got - ref)) <= 1e-15
    with pytest.raises(NumericsError, match="stage table needs 7 rows"):
        integrate_rk4(lambda t, x, ut: ut, [0.0], grid, table=table[:-1])


def textbook_rk4(f, x0, nodes):
    """Classical RK4 as printed: k1..k4 at t, t + dt/2, t + dt/2, t + dt."""
    x = np.array(x0, dtype=float)
    out = [x]
    for t, t_next in zip(nodes[:-1], nodes[1:]):
        dt = t_next - t
        k1 = f(t, x)
        k2 = f(t + dt / 2, x + dt / 2 * k1)
        k3 = f(t + dt / 2, x + dt / 2 * k2)
        k4 = f(t + dt, x + dt * k3)
        x = x + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        out.append(x)
    return np.array(out)


def _driven_rotation(t, x, u):
    return np.array([u[0] * x[1], -u[0] * x[0] + u[1]])


def _drive(t):
    return np.stack([1.0 + 0.5 * np.cos(3 * t), np.sin(2 * t)], axis=-1)


def test_rk4_matches_textbook_on_a_nonuniform_grid():
    nodes = np.cumsum(np.r_[0.0, np.random.default_rng(3).uniform(0.2, 1.8, 300)])
    grid = TimeGrid.from_nodes(nodes / nodes[-1])
    x0 = [1.0, -0.5]
    ref = textbook_rk4(lambda t, x: _driven_rotation(t, x, _drive(t)), x0, grid.nodes)
    plain = integrate_rk4(lambda t, x: _driven_rotation(t, x, _drive(t)), x0, grid).states
    tabled = integrate_rk4(_driven_rotation, x0, grid, table=_drive(rk4_stage_times(grid))).states
    assert np.max(np.abs(plain - ref)) <= 1e-15
    assert np.max(np.abs(tabled - ref)) <= 1e-15


@pytest.mark.parametrize("tabled", [False, True])
def test_every_step_goes_through_the_module_rk4_step(tabled, monkeypatch):
    # the step function is looked up on the module once per step, so a patch
    # (and the benchmark's span around it) sees every step
    starts = []
    step = N.rk4_step
    monkeypatch.setattr(N, "rk4_step", lambda f, t, *a: starts.append(t) or step(f, t, *a))
    grid = TimeGrid.uniform(0.0, 1.0, 37)
    if tabled:
        integrate_rk4(_driven_rotation, [1.0, 0.0], grid, table=_drive(rk4_stage_times(grid)))
    else:
        integrate_rk4(lambda t, x: -x, [1.0], grid)
    assert starts == grid.nodes[:-1].tolist()


def test_rk4_constant_derivative():
    grid = TimeGrid.uniform(0, 1, 100)
    traj = integrate_rk4(lambda t, x: np.zeros(1), [7.0], grid)
    assert np.all(traj.states == 7.0)


def test_rk4_exponential():
    grid = TimeGrid.uniform(0, 1, 1000)
    traj = integrate_rk4(lambda t, x: x, [1.0], grid)
    assert abs(traj.states[-1, 0] - math.e) < 1e-10


def test_rk4_riccati_tangent():
    grid = TimeGrid.uniform(0, 1, 2000)
    traj = integrate_rk4(lambda t, x: np.array([1.0 + x[0] ** 2]), [0.0], grid)
    assert abs(traj.states[-1, 0] - math.tan(1.0)) < 1e-8


def test_rk4_order():
    def err(n):
        grid = TimeGrid.uniform(0, 1, n)
        traj = integrate_rk4(lambda t, x: x, [1.0], grid)
        return abs(traj.states[-1, 0] - math.e)

    assert err(100) / err(200) >= 14.0


def test_rk4_nonfinite_raises():
    # the first non-finite stage is the last one of the step from t = 0.49;
    # the error names that step's start and its finite state
    grid = TimeGrid.uniform(0, 1, 100)
    with pytest.raises(NumericsError) as exc:
        integrate_rk4(lambda t, x: np.array([np.inf if t >= 0.5 else 1.0]), [0.0], grid)
    assert 0.5 - grid.uniform_dt - 1e-12 <= exc.value.t < 0.5
    assert exc.value.t == grid.nodes[49]
    assert exc.value.state == pytest.approx([0.49], abs=1e-12)
    assert "from t=0.49" in str(exc.value)


def test_quadrature_zero():
    grid = TimeGrid.uniform(0, 1, 100)
    assert np.all(cumulative_quadrature_samples(np.zeros(101), grid) == 0.0)


def test_quadrature_cosine():
    grid = TimeGrid.uniform(0, math.pi / 2, 1000)
    B = cumulative_quadrature_samples(np.cos(grid.nodes), grid)
    assert abs(B[-1] - 1.0) < 1e-10


def test_quadrature_nested():
    grid = TimeGrid.uniform(0, 1, 1000)
    inner = cumulative_quadrature_samples(np.ones(1001), grid)
    outer = cumulative_quadrature_samples(inner, grid)
    assert abs(outer[-1] - 0.5) < 1e-10


def test_quadrature_cubic_exact():
    grid = TimeGrid.uniform(0, 2, 50)
    t = grid.nodes
    B = cumulative_quadrature_samples(t**3 - 2 * t**2 + t, grid)
    exact = 2**4 / 4 - 2 * 2**3 / 3 + 2**2 / 2
    assert abs(B[-1] - exact) < 1e-13


def test_cumulative_simpson_matches_scipy():
    scipy_integrate = pytest.importorskip("scipy.integrate")
    rng = np.random.default_rng(11)
    for n_steps in (2, 3, 6, 2000):
        grid = TimeGrid.uniform(0.0, 1.3, n_steps)
        for shape in ((n_steps + 1,), (n_steps + 1, 3)):
            y = rng.standard_normal(shape)
            ref = scipy_integrate.cumulative_simpson(y, dx=grid.uniform_dt, axis=0, initial=0.0)
            assert np.max(np.abs(cumulative_quadrature_samples(y, grid) - ref)) <= 1e-13


def test_cumulative_trapezoid_on_a_non_uniform_grid():
    rng = np.random.default_rng(12)
    nodes = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 2.0, 60)), [2.0]])
    grid = TimeGrid.from_nodes(nodes)
    assert grid.uniform_dt is None
    # exact on a linear integrand
    got = cumulative_quadrature_samples(3.0 * nodes - 1.0, grid)
    assert np.max(np.abs(got - (1.5 * nodes**2 - nodes))) <= 1e-13
    # equal to the per-node sum on (n, 4) samples
    y = rng.standard_normal((len(nodes), 4))
    ref = np.zeros_like(y)
    for k in range(1, len(nodes)):
        ref[k] = ref[k - 1] + 0.5 * (nodes[k] - nodes[k - 1]) * (y[k] + y[k - 1])
    assert np.max(np.abs(cumulative_quadrature_samples(y, grid) - ref)) <= 1e-14


def test_a_roundoff_frontier_never_stops_one_step_before_the_grid_end():
    # every row settles in the first sweep but the grid's last, which moves
    # towards 1 by a factor 1e-3 a sweep; committing up to the last even row
    # would leave one step, where Simpson has no pair
    n, spans = 7, []

    def sweep(a, e, X):
        spans.append((a, e))
        new = np.zeros_like(X)
        if e == n:
            new[-1] = 1.0 - 1e-3 * (1.0 - X[-1])
        return new

    states = N.picard_windows(sweep, [0.0], n, False, None)
    assert spans[:2] == [(0, 7), (4, 7)] and all(e - a >= 2 for a, e in spans)
    assert not states[:-1].any() and abs(states[-1, 0] - 1.0) <= 1e-12


def test_a_frontier_that_stays_in_place_fails_the_window():
    # the rows after the frontier contract by 0.9 a sweep and stay above
    # roundoff for about 300 sweeps: each width fails after _MAX_SWEEPS
    # sweeps and halves, and the two-step window goes to `stuck`
    spans = []

    def sweep(a, e, X):
        spans.append((a, e))
        return np.concatenate([X[:1], 1.0 - 0.9 * (1.0 - X[1:])])

    def stuck(a, e, xa):
        raise RuntimeError(f"stuck at {a}..{e}")

    with pytest.raises(RuntimeError, match=r"^stuck at 0\.\.2$"):
        N.picard_windows(sweep, [0.0], 4, False, stuck)
    assert len(spans) == 9 * N._MAX_SWEEPS and set(spans) == {(0, 4), (0, 2)}


def _triangular(x):
    # x0' = 1, x1' = x0, x2' = x0 x1, with a middle axis of two rows whose
    # second row alone carries the x0 dependence of x1
    x = np.asarray(x)
    first = np.stack([np.ones(len(x)), np.zeros(len(x)), x[:, 0] * x[:, 1]], axis=-1)
    second = np.stack([np.ones(len(x)), x[:, 0], np.zeros(len(x))], axis=-1)
    return np.stack([first, second], axis=1)


@pytest.mark.parametrize("g,levels", [
    (_triangular, ((0,), (1,), (2,))),
    (lambda x: np.zeros_like(x), ((0, 1, 2),)),
    (lambda x: -np.asarray(x), None),                                   # x_i' = -x_i
    (lambda x: np.stack([x[:, 1], x[:, 0], 0 * x[:, 2]], axis=-1), None),    # a 2-cycle
    (lambda x: np.stack([0 * x[:, 0], np.sqrt(x[:, 0]), 0 * x[:, 2]], axis=-1), None),
    (lambda x: np.stack([0 * x[:, 0], 0 * x[:, 1], np.where(x[:, 0] > 9, 1.0, np.nan)],
                        axis=-1), None),
], ids=["triangular", "constant", "self", "cycle", "sqrt-nan", "nan-everywhere"])
def test_dependency_levels(g, levels):
    # a non-finite output is no evidence of independence: where a NaN
    # compared as not moved, the last two probed as ((0, 1, 2),), and the
    # square root's dependence on x0 went unseen
    assert N.dependency_levels(g, 3) == levels


def test_a_probe_that_raises_has_no_levels():
    def refuses(x):
        raise NumericsError("outside the domain")

    assert N.dependency_levels(refuses, 2) is None
    with pytest.raises(ZeroDivisionError):
        N.dependency_levels(lambda x: 1 / 0, 2)


def test_import_leaves_scipy_unloaded():
    import liesys

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(liesys.__file__)))
    code = "import sys, liesys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]"


def test_linsolve_identity():
    b = np.array([1.0, -2.0, 3.0])
    assert np.allclose(linsolve(np.eye(3), b), b)


def test_linsolve_hilbert():
    H = np.array([[1 / (i + j + 1) for j in range(4)] for i in range(4)])
    # exact inverse of the 4x4 Hilbert matrix
    Hinv = np.array([
        [16, -120, 240, -140],
        [-120, 1200, -2700, 1680],
        [240, -2700, 6480, -4200],
        [-140, 1680, -4200, 2800],
    ], dtype=float)
    b = np.array([1.0, 0.5, -0.25, 2.0])
    assert np.max(np.abs(linsolve(H, b) - Hinv @ b)) < 1e-8


def test_linsolve_singular_raises():
    with pytest.raises(SingularMatrixError) as exc:
        linsolve(np.zeros((3, 3)), np.ones(3))
    assert exc.value.cond > 1e12 or not np.isfinite(exc.value.cond)


def test_linsolve_on_a_stack_guards_each_matrix(rng):
    M = rng.standard_normal((2, 5, 3, 3)) + 4.0 * np.eye(3)
    b = rng.standard_normal((2, 5, 3))
    x = linsolve(M, b)
    for i, j in np.ndindex(2, 5):
        assert np.array_equal(x[i, j], linsolve(M[i, j], b[i, j]))
    # one matrix for every right-hand side
    assert np.array_equal(linsolve(M[0, 0], b)[1, 2], linsolve(M[0, 0], b[1, 2]))
    # the first failing matrix is named, whether ill-conditioned or singular
    M[1, 3] = np.diag([1.0, 1.0, 1e-13])
    M[1, 4] = 0.0
    with pytest.raises(SingularMatrixError, match=r"at index \(1, 3\) \(cond~1e\+13\)") as exc:
        linsolve(M, b)
    assert exc.value.index == (1, 3) and exc.value.cond == pytest.approx(1e13)
    M[1, 3] = np.eye(3)
    with pytest.raises(SingularMatrixError) as exc:
        linsolve(M, b)
    assert exc.value.index == (1, 4) and exc.value.cond == np.inf


def _conditioned_stack(rng, n, log_cond):
    """n random 3x3 matrices U diag(1, s2, s3) V^T, times a random scale:
    s3 = 10^-e with e uniform up to log_cond, and s2 between s3 and 1, so
    that many have two small singular values."""
    U, V = (np.linalg.qr(rng.standard_normal((n, 3, 3)))[0] for _ in range(2))
    e = rng.uniform(0.0, log_cond, n)
    s = np.stack([np.ones(n), 10.0 ** -(e * rng.uniform(0.0, 1.0, n)), 10.0 ** -e], axis=-1)
    return (U * s[:, None, :]) @ V.swapaxes(-1, -2) * 10.0 ** rng.uniform(-3, 3, (n, 1, 1))


def _inverse(M):
    # the guard's inverse of a (..., r, r) stack, as a stack
    return np.moveaxis(N._inverse(M, N._entries(M)), (0, 1), (-2, -1))


def _relative_gap(x, ref, axes):
    return np.max(np.abs(x - ref), axis=axes) / np.max(np.abs(ref), axis=axes)


def test_3x3_kernels_stay_within_the_condition_number_of_lapack(rng):
    # the adjugate where its cofactors do not cancel, LAPACK where they do:
    # both within cond * 1e-15 of np.linalg.inv up to cond 1e8.  The
    # adjugate alone is not: on matrices with two small singular values its
    # cofactors cancel, and it loses digits that the condition number does
    # not account for
    n = 4000
    M, b = _conditioned_stack(rng, n, 8.0), rng.standard_normal((n, 3))
    cond = np.linalg.cond(M, 1)
    assert cond.max() > 1e7
    ref = np.linalg.inv(M)
    ref_x = (ref @ b[..., None])[..., 0]
    assert (_relative_gap(_inverse(M), ref, (-2, -1)) <= cond * 1e-15).all()
    assert (_relative_gap(N.stack_solve(M, b), ref_x, -1) <= cond * 1e-15).all()
    assert (_relative_gap(linsolve(M, b), ref_x, -1) <= cond * 1e-15).all()
    adj, det, fine = N._adjugate(N._entries(M))
    assert 0.3 < fine.mean() < 0.9
    adjugate_alone = np.moveaxis(adj / det, (0, 1), (-2, -1))
    assert not (_relative_gap(adjugate_alone, ref, (-2, -1)) <= cond * 1e-15).all()


@pytest.mark.parametrize("name,algebra", [("brockett", "h3"), ("rb_two_oscillators", "g4"),
                                          ("brockett_deg2", "g5"),
                                          ("kinematic_car_chained", "gbar4")])
def test_nilpotent_wn_matrices_invert_by_forward_substitution(name, algebra, rng, monkeypatch):
    # in their catalog orderings M(v) is exactly unit lower-triangular
    entry = get_system(name)
    assert entry.algebra.name == algebra
    r = entry.algebra.dim
    M = wn_matrix(entry.algebra, entry.ordering(), rng.standard_normal((500, r)))
    b = rng.standard_normal((500, r))
    ref = np.linalg.inv(M)
    ref_x = np.linalg.solve(M, b[..., None])[..., 0]
    monkeypatch.setattr(np.linalg, "inv", lambda *a: pytest.fail("np.linalg.inv ran"))
    monkeypatch.setattr(np.linalg, "solve", lambda *a: pytest.fail("np.linalg.solve ran"))
    monkeypatch.setattr(N, "_adjugate", lambda *a: pytest.fail("the adjugate ran"))
    assert np.max(np.abs(_inverse(M) - ref)) <= 1e-14 * np.max(np.abs(ref))
    assert np.max(np.abs(N.stack_solve(M, b) - ref_x)) <= 1e-14 * np.max(np.abs(ref_x))


@pytest.mark.parametrize("r,kind", [(3, "general"), (3, "unit lower"), (3, "mixed"),
                                    (4, "unit lower"), (5, "general"), (2, "general")])
def test_small_stack_kernels_give_a_batch_its_single_results_bit_for_bit(r, kind, rng):
    # each route works on every matrix alike, so sweep_rk4's batched stages
    # are the step loop's one-state solves to the last bit.  A unit
    # lower-triangular 3x3 matrix in a stack of others takes the adjugate,
    # whose inverse is forward substitution's, entry for entry
    n = 7
    M = rng.standard_normal((n, r, r)) + r * np.eye(r)
    if kind == "unit lower":
        M = np.tril(M, -1) + np.eye(r)
    elif kind == "mixed":
        M[::2] = np.tril(M[::2], -1) + np.eye(r)
    elif r == 3:
        # cofactors that cancel: this one goes by LAPACK inside the batch
        M[4] = np.diag([1.0, 1e-4, 1e-4]) @ np.linalg.qr(M[4])[0]
        assert list(N._adjugate(N._entries(M))[2]) == [True] * 4 + [False] + [True] * 2
    b = rng.standard_normal((n, r))
    X, x, y = _inverse(M), N.stack_solve(M, b), linsolve(M, b)
    for k in range(n):
        assert np.array_equal(X[k], _inverse(M[k]))
        assert np.array_equal(x[k], N.stack_solve(M[k], b[k]))
        assert np.array_equal(y[k], linsolve(M[k], b[k]))
        assert np.array_equal(y[k], linsolve(M[k:k + 1], b[k:k + 1])[0])


@pytest.mark.parametrize("singular", [
    lambda m: np.stack([m[0], m[1], m[1]]),                     # two equal rows
    lambda m: np.outer([1.0, 2.0, -3.0], [0.5, 1.0, 2.0]),     # rank one: the adjugate is 0
    lambda m: np.zeros((3, 3))])
def test_guard_names_an_exactly_singular_3x3_in_a_stack(singular, rng):
    M = rng.standard_normal((50, 3, 3)) + 3.0 * np.eye(3)
    k = 17
    M[k] = singular(M[k])
    M[k + 5] = singular(M[k + 5])
    with pytest.raises(SingularMatrixError) as exc:
        linsolve(M, rng.standard_normal((50, 3)))
    assert exc.value.index == (k,) and exc.value.cond == np.inf
    # unguarded, the singular matrix gives non-finite rows and no error
    x = N.stack_solve(M, rng.standard_normal((50, 3)))
    assert not np.isfinite(x[k]).any() and np.isfinite(np.delete(x, [k, k + 5], axis=0)).all()


def test_guard_refuses_cond_1e11_with_the_condition_lapack_measures(rng):
    U, V = (np.linalg.qr(rng.standard_normal((3, 3)))[0] for _ in range(2))
    M = (U * [1.0, 0.3, 1e-11]) @ V.T
    assert N._adjugate(N._entries(M))[2]          # by the adjugate
    with pytest.raises(SingularMatrixError) as exc:
        linsolve(M, np.ones(3))
    assert 1e10 < exc.value.cond < 1e12
    assert exc.value.cond == pytest.approx(np.linalg.cond(M, 1), rel=0.01)


def test_trajectory_csv_roundtrip(tmp_path):
    grid = TimeGrid.uniform(0, 1, 10)
    traj = Trajectory(grid, np.column_stack([grid.nodes, grid.nodes**2]))
    path = tmp_path / "t.csv"
    traj.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "t,x1,x2"
    back = Trajectory.from_csv(path)
    assert np.allclose(back.states, traj.states)


def test_diff_samples_quadratic_exact():
    grid = TimeGrid.uniform(0, 1, 50)
    t = grid.nodes
    d = diff_samples(t**2, grid.uniform_dt)
    assert np.max(np.abs(d - 2 * t)) < 1e-12


@pytest.mark.parametrize("t0,t1,n", [(0.0, 1.0, 2000), (0.0, 1.0, 4000), (-0.3, 2.7, 7)])
def test_grid_nodes_are_linspace_and_read_only(t0, t1, n):
    grid = TimeGrid.uniform(t0, t1, n)
    expected = np.linspace(t0, t1, n + 1)
    assert grid.nodes.tobytes() == expected.tobytes()
    assert grid.nodes is grid.nodes
    with pytest.raises(ValueError):
        grid.nodes[1] = 5.0


def test_explicit_grid_nodes_are_a_read_only_copy():
    given_nodes = np.array([0.0, 0.1, 0.5, 1.0])
    grid = TimeGrid.from_nodes(given_nodes)
    given_nodes[1] = 0.2
    assert grid.nodes[1] == 0.1
    with pytest.raises(ValueError):
        grid.nodes[1] = 0.3


def test_trajectories_equal_and_hash_as_themselves_only():
    grid = TimeGrid.uniform(0.0, 1.0, 4)
    x, y = Trajectory(grid, np.zeros((5, 2))), Trajectory(grid, np.zeros((5, 2)))
    assert x == x and x != y and x in [y, x] and y not in [x]
    assert len({x, y, x}) == 2


def test_grids_compare_and_hash_by_their_nodes():
    a = TimeGrid.from_nodes([0.0, 0.1, 0.5, 1.0])
    b = TimeGrid.from_nodes(np.array([-0.0, 0.1, 0.5, 1.0]))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != TimeGrid.from_nodes([0.0, 0.2, 0.5, 1.0]) and a != a.nodes
    assert (a.t0, a.t1, a.n_steps, a.uniform_dt) == (0.0, 1.0, 3, None)
    u = TimeGrid.uniform(-0.3, 2.7, 7)
    assert u == TimeGrid.uniform(-0.3, 2.7, 7) and hash(u) == hash(TimeGrid.uniform(-0.3, 2.7, 7))
    assert (u.t0, u.t1, u.n_steps, u.uniform_dt) == (-0.3, 2.7, 7, (2.7 - -0.3) / 7)
    # a node-built grid takes its first step as its uniform step
    assert TimeGrid.from_nodes(u.nodes).uniform_dt == u.nodes[1] - u.nodes[0]
    with pytest.raises(AttributeError):
        u.t0 = 0.0
    for nodes in ([0.0], [0.0, 0.5, 0.5, 1.0], [0.0, np.nan, 1.0], [[0.0, 1.0]]):
        with pytest.raises(NumericsError, match="strictly increasing"):
            TimeGrid.from_nodes(nodes)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 12), m=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
       frac=st.floats(0.0, 1.0), k=st.integers(0, 12))
def test_interp_columns_is_np_interp_per_column(n, m, seed, frac, k):
    rng = np.random.default_rng(seed)
    nodes = np.cumsum(rng.uniform(0.1, 1.0, n + 1))
    samples = rng.uniform(-5.0, 5.0, (n + 1, m))

    def per_column(t):
        return np.array([np.interp(t, nodes, samples[:, j]) for j in range(m)])

    k = min(k, n)
    # nodes and both ends (and beyond them): bitwise
    for t in (nodes[k], nodes[0], nodes[-1], nodes[0] - 1.0, nodes[-1] + 1.0):
        assert interp_columns(t, nodes, samples).tobytes() == per_column(t).tobytes()
    # between nodes: at most one ulp apart
    j = min(k, n - 1)
    t = nodes[j] + frac * (nodes[j + 1] - nodes[j])
    got, want = interp_columns(t, nodes, samples), per_column(t)
    assert np.all(np.abs(got - want) <= np.spacing(np.maximum(np.abs(got), np.abs(want))))


def test_diff_samples4_needs_six_samples():
    with pytest.raises(NumericsError, match="6 samples"):
        diff_samples4(np.zeros((5, 2)), 0.1)


def test_diff_samples_needs_three_samples():
    assert diff_samples(np.zeros((3, 2)), 0.1).shape == (3, 2)
    with pytest.raises(NumericsError, match="3 samples"):
        diff_samples(np.zeros((2, 2)), 0.1)


# the charts of every compose law kind (matrix, quaternion, BCH, SE(2)'s
# closed form) and raw matrices: (label, compose, identity, sample(rng, n))
def _chart_law(group, kind):
    chart = get_chart(group, kind)
    return (f"{group}/{kind}", chart.compose_fn, chart.identity_coords,
            lambda rng, n: exp_algebra(chart, 0.1 * rng.standard_normal((n, chart.algebra.dim))))


PRODUCT_LAWS = [
    _chart_law("SO3", "matrix"),
    _chart_law("SE3", "matrix"),
    _chart_law("Geps(+1)", "quaternion"),
    _chart_law("H3", "canonical_first"),
    _chart_law("SE2", "canonical_second"),
    ("matmul 3x3", np.matmul, np.eye(3),
     lambda rng, n: np.eye(3) + 0.01 * rng.standard_normal((n, 3, 3))),
]
PRODUCT_SIZES = [1, 2, 15, 16, 17, 31, 33, 2001]


@pytest.fixture(scope="module", params=PRODUCT_LAWS, ids=[law[0] for law in PRODUCT_LAWS])
def product_law(request):
    """A law, 2001 points and their sequential products h_k (h_{k-1} (...))."""
    _, compose, identity, sample = request.param
    h = sample(np.random.default_rng(30), max(PRODUCT_SIZES))
    seq = h.copy()
    for k in range(1, len(h)):
        seq[k] = compose(h[k], seq[k - 1])
    return compose, identity, h, seq


@pytest.mark.parametrize("n", PRODUCT_SIZES)
def test_prefix_product_is_the_sequential_product(product_law, n):
    compose, identity, h, seq = product_law
    got = h[:n].copy()
    N.prefix_product(got, compose, identity)
    scale = max(1.0, float(np.max(np.abs(seq[:n]))))
    assert np.max(np.abs(got - seq[:n])) <= 1e-13 * scale


def test_a_prefix_of_the_points_gives_the_same_rows_bit_for_bit(product_law):
    compose, identity, h, _ = product_law
    full = h.copy()
    N.prefix_product(full, compose, identity)
    for m in (1, 2, 15, 16, 17, 31, 33, 272, 500, 2000):
        part = h[:m].copy()
        N.prefix_product(part, compose, identity)
        assert part.tobytes() == full[:m].tobytes(), m
