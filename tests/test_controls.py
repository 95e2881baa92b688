"""ControlSignal on arrays of times: every constructor must give, row by row,
what it gives at each time alone."""

import math

import numpy as np
import pytest

from liesys.numerics import TimeGrid
from liesys.weinorman import ControlSignal
from conftest import smooth_controls

TIMES = np.linspace(-0.3, 1.4, 37)


def per_time(b, times):
    return np.array([b(t) for t in times])


def assert_rows_match(b, times, tol=0.0):
    got = b(times)
    assert got.shape == (len(times), b.dim)
    assert np.max(np.abs(got - per_time(b, times)), initial=0.0) <= tol


def test_constant_broadcasts():
    b = ControlSignal.constant([1.5, -2, 0])
    assert_rows_match(b, TIMES)
    assert np.all(b(TIMES) == [1.5, -2.0, 0.0])


def test_sampled_at_nodes_between_and_beyond_both_ends():
    grid = TimeGrid.uniform(0.0, 1.0, 10)
    values = np.column_stack([np.sin(3 * grid.nodes), grid.nodes ** 2])
    b = ControlSignal.sampled(grid, values)
    mids = grid.nodes[:-1] + 0.37 * np.diff(grid.nodes)
    times = np.concatenate([grid.nodes, mids, [-0.5, -1e-9, 1.0 + 1e-9, 3.0]])
    assert_rows_match(b, times)
    assert np.all(b(grid.nodes) == values)
    assert np.all(b(np.array([-0.5, 3.0])) == values[[0, -1]])
    for j in range(2):
        assert np.allclose(b(mids)[:, j], np.interp(mids, grid.nodes, values[:, j]),
                           rtol=0, atol=1e-15)


def test_piecewise_constant_at_and_between_breakpoints():
    bp = np.array([0.2, 0.5, 0.9])
    values = np.array([[1.0, -1.0], [2.0, -2.0], [3.0, -3.0], [4.0, -4.0]])
    b = ControlSignal.piecewise_constant(bp, values)
    times = np.concatenate([bp, bp - 1e-12, bp + 1e-12, [-1.0, 0.0, 0.7, 2.0]])
    assert_rows_match(b, times)
    # a breakpoint opens the next piece
    assert np.all(b(bp)[:, 0] == [2.0, 3.0, 4.0])


def test_array_callables_are_called_once_on_the_array():
    b = smooth_controls(3, seed=4)
    assert_rows_match(b, TIMES, tol=1e-15)
    calls = []

    def channel(t):
        calls.append(np.shape(t))
        return np.cos(t)

    ControlSignal([channel])(TIMES)
    # the whole array once, then the check at the first and last time
    assert calls == [TIMES.shape, (), ()]


def test_scalar_only_callables_fall_back_to_one_call_per_time():
    b = ControlSignal([math.sin, lambda t: 2.0 if t < 0.5 else -1.0, lambda t: float(t) ** 2])
    assert_rows_match(b, TIMES)


def test_indexing_another_signal_falls_back():
    # f(t)[0] on an array is f's first row, not channel 0: with as many
    # channels as times it even has the right shape
    f = smooth_controls(4, seed=9)
    times = np.linspace(0.0, 1.0, 4)
    b = ControlSignal([lambda t: f(t)[0], lambda t: -f(t)[3]])
    assert np.shape(f(times)[0]) == times.shape
    got = b(times)
    assert np.all(got[:, 0] == f(times)[:, 0])
    assert np.all(got[:, 1] == -f(times)[:, 3])
    assert_rows_match(b, times)


def test_wrong_array_result_never_passes():
    # right shape and right at the last time, wrong everywhere else
    last = TIMES[-1]
    wrong = ControlSignal([lambda t: np.where(np.ndim(t) == 0, t, last + 7.0 * (t - last))])
    assert_rows_match(wrong, TIMES)
    # right at the first time, wrong at the last
    first = TIMES[0]
    wrong = ControlSignal([lambda t: np.where(np.ndim(t) == 0, t, first + 0.5 * (t - first))])
    assert_rows_match(wrong, TIMES)
    # one value per call instead of one per time
    assert_rows_match(ControlSignal([lambda t: np.mean(t)]), TIMES)


def test_from_callable_takes_arrays():
    fn = lambda t: np.array([np.sin(t), 2.0 * t, np.ones_like(t)])  # noqa: E731
    b = ControlSignal.from_callable(fn, 3)
    assert_rows_match(b, TIMES)


@pytest.mark.parametrize("make", [
    lambda: ControlSignal.constant([0.5, -1.0]),
    lambda: smooth_controls(2, seed=3),
    lambda: ControlSignal([math.cos, lambda t: 3.0]),
], ids=["constant", "callables", "scalar-only"])
def test_pad_keeps_each_channel_and_zero_fills(make):
    b = make()
    p = b.pad(5, [3, 1])
    assert p.dim == 5
    assert_rows_match(p, TIMES, tol=1e-15)
    got = p(TIMES)
    assert np.all(got[:, [0, 2, 4]] == 0.0)
    assert np.allclose(got[:, [3, 1]], b(TIMES), rtol=0, atol=1e-15)


def test_spec_parser(tmp_path):
    b = ControlSignal.from_spec("sin:1.5,0.7,0.3; const:0.8,-2")
    assert b.dim == 3
    assert_rows_match(b, TIMES)
    assert np.allclose(b(TIMES), np.column_stack([
        1.5 * np.sin(2 * np.pi * 0.7 * TIMES + 0.3), np.full_like(TIMES, 0.8),
        np.full_like(TIMES, -2.0)]), rtol=0, atol=1e-15)
    assert np.allclose(b(0.25), [1.5 * math.sin(2 * math.pi * 0.7 * 0.25 + 0.3), 0.8, -2.0],
                       rtol=0, atol=1e-15)
    assert ControlSignal.from_spec("sin:2,1")(0.125)[0] == pytest.approx(2 * math.sin(math.pi / 4))
    path = tmp_path / "b.csv"
    path.write_text("t,b1,b2\n0,1,0\n0.5,2,1\n1,0,3\n")
    f = ControlSignal.from_spec(f"file:{path}")
    assert_rows_match(f, TIMES)
    assert np.allclose(f(np.array([0.25, 0.75])), [[1.5, 0.5], [1.0, 2.0]])
    with pytest.raises(ValueError, match="cannot parse"):
        ControlSignal.from_spec("cos:1,2")


def test_scalar_call_shape_is_unchanged():
    for b in (ControlSignal.constant([1, 2]), smooth_controls(2), ControlSignal([math.sin])):
        assert b(0.3).shape == (b.dim,)
        assert b(np.float64(0.3)).shape == (b.dim,)
