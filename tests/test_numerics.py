import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liesys.errors import NumericsError, SingularMatrixError
from liesys.numerics import (
    TimeGrid,
    Trajectory,
    cumulative_quadrature_samples,
    diff_samples,
    diff_samples4,
    integrate_rk4,
    integrate_rk45,
    interp_columns,
    linsolve,
    quadrature,
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
    grid = TimeGrid.uniform(0, 1, 100)
    with pytest.raises(NumericsError) as exc:
        integrate_rk4(lambda t, x: np.array([np.inf if t >= 0.5 else 1.0]), [0.0], grid)
    assert exc.value.t is not None


def test_rk45_matches_exponential():
    ts, xs = integrate_rk45(lambda t, x: x, [1.0], 0.0, 1.0, rtol=1e-10)
    assert abs(xs[-1, 0] - math.e) < 1e-8


def test_quadrature_zero():
    grid = TimeGrid.uniform(0, 1, 100)
    assert np.all(quadrature(lambda t: 0.0, grid) == 0.0)


def test_quadrature_cosine():
    grid = TimeGrid.uniform(0, math.pi / 2, 1000)
    B = quadrature(math.cos, grid)
    assert abs(B[-1] - 1.0) < 1e-10


def test_quadrature_nested():
    grid = TimeGrid.uniform(0, 1, 1000)
    inner = quadrature(lambda t: 1.0, grid)
    nodes = grid.nodes
    outer = quadrature(lambda t: np.interp(t, nodes, inner), grid)
    assert abs(outer[-1] - 0.5) < 1e-10


def test_quadrature_cubic_exact():
    grid = TimeGrid.uniform(0, 2, 50)
    B = quadrature(lambda t: t**3 - 2 * t**2 + t, grid)
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


def test_trajectory_json_roundtrip(tmp_path):
    import json

    grid = TimeGrid.uniform(0, 1, 5)
    traj = Trajectory(grid, np.column_stack([grid.nodes, -grid.nodes]), meta="demo")
    path = tmp_path / "t.json"
    traj.to_json(path)
    payload = json.loads(path.read_text())
    assert payload["meta"] == "demo"
    assert np.allclose(payload["t"], grid.nodes)
    assert np.allclose(payload["states"], traj.states)


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
