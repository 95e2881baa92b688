"""Run every cataloged subgroup reduction with a fixed smooth control draw
and print the fixture gap, the reconstruction log-derivative residual and
the off-span residual for each."""

import zlib

import numpy as np

from liesys import ControlSignal, TimeGrid, catalog_reduction, run_catalog_reduction
from liesys.groups import right_log_derivative

CASES = [("h3/a1", {}), ("h3/a2", {}), ("h3/a3", {}),
         ("se2/a1", {}), ("se2/a2", {}), ("se2/a3", {}), ("se2/a2a3", {}),
         ("sl2/a2a3", {}), ("sl2/a1a2", {}),
         ("g5/center", {}), ("g7/ideal", {}), ("g8/ideal", {}),
         ("gbar4/center", {}), ("gbar5/ideal", {}),
         ("su2/a1", {}), ("geps/a1", {"eps": 0}), ("geps/a1", {"eps": -1}),
         ("se3/so3", {}), ("se3/r3", {})]

grid = TimeGrid.uniform(0.0, 1.0, 2000)
print(f"{'reduction':22s}{'fixture gap':>14s}{'log-der':>12s}{'off-span':>12s}")
for name, kw in CASES:
    case = catalog_reduction(name, **kw)
    amp = 0.6 if name.startswith("sl2") else 1.0
    rng = np.random.default_rng(zlib.crc32(name.encode()) % 1000)
    co = rng.uniform(-amp, amp, (len(case.used_channels), 3))
    b = ControlSignal([
        (lambda t, c=co[i]: c[0] + c[1] * np.sin(4 * t) + c[2] * np.cos(5 * t))
        for i in range(len(case.used_channels))])
    out = run_catalog_reduction(case, b, grid)
    fix = case.fixture_coeffs(b, out["homogeneous"])
    gap = np.max(np.abs(out["coefficients"] - fix))
    bp = case.pad_controls(b)
    lerr = max(
        np.max(np.abs(right_log_derivative(out["reconstruction"], grid.nodes[k],
                                           h=grid.uniform_dt, order=4) + bp(grid.nodes[k])))
        for k in range(4, 1997, 53))
    label = name + (str(kw) if kw else "")
    print(f"{label:22s}{gap:14.2e}{lerr:12.2e}{out['off_span_residual']:12.2e}")
