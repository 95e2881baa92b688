import numpy as np
import pytest

from liesys.numerics import TimeGrid
from liesys.weinorman import ControlSignal

# acceptance criterion 1: (system, parameters, control channels, amplitude)
LIE_SYSTEMS = [
    ("brockett", {}, 2, 1.0), ("brockett_variant", {}, 2, 1.0),
    ("hopping_robot_lin", {}, 2, 1.0), ("rb_two_oscillators", {}, 2, 1.0),
    ("brockett_deg2", {}, 2, 1.0), ("unicycle", {}, 2, 1.0),
    ("unicycle_feedback", {}, 2, 0.45), ("kinematic_car_chained", {}, 2, 1.0),
    ("martinet", {}, 2, 1.0), ("elastic_euler", {"eps": 1}, 3, 1.0),
    ("elastic_euler", {"eps": 0}, 3, 1.0), ("elastic_euler", {"eps": -1}, 3, 0.8),
    ("so3_kinematics", {}, 3, 1.0),
]


def smooth_controls(n_channels, amp=1.0, seed=0):
    """Deterministic smooth control draws used across the suite."""
    rng = np.random.default_rng(seed)
    co = rng.uniform(-amp, amp, (n_channels, 3))
    fr = rng.uniform(0.5, 2.0, (n_channels, 2))
    return ControlSignal([
        (lambda t, c=co[i], f=fr[i]:
         c[0] + c[1] * np.sin(2 * np.pi * f[0] * t) + c[2] * np.cos(2 * np.pi * f[1] * t))
        for i in range(n_channels)])


@pytest.fixture
def unit_grid():
    return TimeGrid.uniform(0.0, 1.0, 2000)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
