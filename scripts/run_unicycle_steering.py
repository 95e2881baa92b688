"""Steer the unicycle with sinusoidal controls and compare two routes to
the same trajectory: direct RK4 and the group-action solution through the
Wei-Norman curve.

Usage: python scripts/run_unicycle_steering.py [out.csv]
"""

import sys

import numpy as np

from liesys import ControlSignal, TimeGrid, get_system, solve_direct, solve_via_group

entry = get_system("unicycle")
grid = TimeGrid.uniform(0.0, 2.0, 4000)
b = ControlSignal([
    lambda t: np.sin(2 * np.pi * t),
    lambda t: 0.8 + 0.4 * np.cos(np.pi * t),
])
x0 = np.array([0.0, 0.0, 0.0])

direct = solve_direct(entry.realization, entry.pad_controls(b), x0, grid)
via_group = solve_via_group(entry.realization, entry.wn_group_curve(b, grid), x0)

print("final pose (direct):      ", direct.states[-1])
print("final pose (group action):", via_group.states[-1])
print("direct vs group action:", np.max(np.abs(direct.states - via_group.states)))

if len(sys.argv) > 1:
    direct.to_csv(sys.argv[1])
    print("wrote", sys.argv[1])
