"""Set-up time of a fresh process for one workload: import liesys and build
the catalog entries and charts the workload uses.  Prints the seconds.

    PYTHONPATH=src python3 perfbench/setup_probe.py lie_oracle
"""

import time

t0 = time.perf_counter()

import sys  # noqa: E402

import liesys  # noqa: E402,F401
import workloads  # noqa: E402

workloads.SETUP[sys.argv[1]]()
print(time.perf_counter() - t0)
