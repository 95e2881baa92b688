"""liesys benchmark: one workload, one seed, a closed loop of whole passes.

    python3 perfbench/run.py --workload lie_oracle --seed 1 --seconds 45 --trace 0

One process runs one case after another (BLAS pinned to one thread) and
repeats whole passes over the workload's cases until ``--seconds`` have
elapsed, so every run times the same mix of cases.  Each case's output is
checked after its timed region.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` times the liesys CLI commands from cold, then runs one traced
and one untraced pass and reports the per-layer metrics.  A readable summary comes first; the last line of standard output is
one JSON object.  See README.md in this directory for why each workload and
metric exists.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import math
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MIN_PASSES = 4   # each case's time is the median of these
# Times are reported at the speed of a machine on which reference_unit()
# takes this long (about 0.85 ms on an unloaded 2-core Xeon virtual machine).
REFERENCE_UNIT_S = 1e-3
WORKLOADS = ("lie_oracle", "reduction_mix")
CLI_REPEATS = 2  # a command's data files are compared across its repetitions


def percentile(values, q):
    """q-th percentile (0..100), linear between closest ranks."""
    if not values:
        raise ValueError("percentile of no values")
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def child_env():
    return dict(os.environ, PYTHONPATH=str(SRC))


def setup_probe(workload):
    """Set-up time of one fresh process (import liesys + build)."""
    out = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload],
                         env=child_env(), capture_output=True, text=True, timeout=120,
                         check=True)
    return float(out.stdout.split()[-1])


def scipy_integrate_import_seconds():
    """Cumulative import time of scipy.integrate under ``-X importtime``."""
    out = subprocess.run([sys.executable, "-X", "importtime", "-c", "import liesys"],
                         env=child_env(), capture_output=True, text=True, timeout=120,
                         check=True)
    for line in out.stderr.splitlines():
        m = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$", line)
        if m and m.group(2) == "scipy.integrate":
            return int(m.group(1)) / 1e6
    return 0.0


def reference_unit():
    """Fixed interpreter and 3x3-matrix work, independent of liesys."""
    a = np.eye(3)
    s = 0.0
    for i in range(500):
        s += float((a @ a + 0.001 * i)[0, 0])
    return s


def reference_seconds():
    """Median time of one reference unit: the machine's speed right now."""
    times = []
    for _ in range(25):
        t0 = time.perf_counter()
        reference_unit()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def at_reference_speed(measure):
    """Seconds returned by ``measure()``, rescaled to a machine on which the
    reference unit takes REFERENCE_UNIT_S, by reference timings just before
    and just after."""
    before = reference_seconds()
    seconds = measure()
    return seconds * 2.0 * REFERENCE_UNIT_S / (before + reference_seconds())


class Loop:
    """Outcome of running cases: per-case wall times, gaps and failures."""

    def __init__(self):
        self.times = []
        self.gaps = []
        self.failures = []

    def run_case(self, case, tracer=None):
        """Run and check one case; returns its wall time."""
        t0 = time.perf_counter()
        try:
            out = case.run()
        except Exception as exc:  # a raising case is a failed case, not a crash
            self.times.append(time.perf_counter() - t0)
            self.failures.append(f"{case.name}: {type(exc).__name__}: {exc}")
            return self.times[-1]
        self.times.append(time.perf_counter() - t0)
        try:
            with tracer.suspended() if tracer else contextlib.nullcontext():
                gap = case.check(out)
        except Exception as exc:
            self.failures.append(f"{case.name}: check: {type(exc).__name__}: {exc}")
            return self.times[-1]
        self.gaps.append(gap)
        if not gap <= 1.0:
            self.failures.append(f"{case.name}: gap {gap:.3g} x tolerance")
        return self.times[-1]

    @property
    def attempted(self):
        return len(self.times)


def build_cases(workload, seed):
    if workload == "lie_oracle":
        return workloads.lie_oracle_cases(seed)
    return workloads.reduction_mix_cases(seed)


def end_to_end(workload, seed, seconds):
    """Whole passes over identical inputs until ``seconds`` have elapsed and
    at least MIN_PASSES are done.  Every case and set-up time is taken at
    reference speed (``at_reference_speed``) and each case's time is its
    median over the passes, so the machine slowing down or speeding up moves
    no metric by itself."""
    cases = build_cases(workload, seed)
    setup = [at_reference_speed(lambda: setup_probe(workload))]
    loop = Loop()
    times = []
    start = time.perf_counter()
    passes = 0
    while passes < MIN_PASSES or time.perf_counter() - start < seconds:
        for case in cases:
            times.append(at_reference_speed(lambda: loop.run_case(case)))
        passes += 1
        setup.append(at_reference_speed(lambda: setup_probe(workload)))
    per_case = [statistics.median(times[i::len(cases)]) for i in range(len(cases))]
    wall = [statistics.median(loop.times[i::len(cases)]) for i in range(len(cases))]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "cases_per_s": (len(cases) / sum(per_case), "1/s"),
        "case_s_p50": (percentile(per_case, 50), "s"),
        "case_s_p90": (percentile(per_case, 90), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = [f"passes {passes} x {len(cases)} cases = {loop.attempted} timed cases; "
             f"{len(setup)} set-up probes",
             "median per case, reference s: " + " ".join(
                 f"{case.name}={t:.3f}" for case, t in zip(cases, per_case)),
             "median per case, wall s:      " + " ".join(
                 f"{case.name}={t:.3f}" for case, t in zip(cases, wall)),
             f"max_gap {max(loop.gaps, default=0.0):.4g} (gap/tol)",
             f"failed_frac {len(loop.failures) / loop.attempted:.4g} (1)"]
    return loop, metrics, notes


def traced(workload, seed):
    """The CLI commands, CLI_REPEATS times each in fresh processes; then one
    traced and one untraced pass over the workload's cases.  Times are at
    reference speed, as in ``end_to_end``."""
    import liesys  # noqa: F401  (spans patch an imported package)
    import spans

    loop = Loop()
    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_tmp") as workdir:
        cli = workloads.cli_cases(seed, workdir)
        cli_times = [at_reference_speed(lambda: loop.run_case(case))
                     for _ in range(CLI_REPEATS) for case in cli]
    cli_wall = [statistics.median(cli_times[i::len(cli)]) for i in range(len(cli))]

    tracer = spans.Tracer()
    with spans.Patches(tracer):
        cases = build_cases(workload, seed)
        traced_s = sum(at_reference_speed(lambda: loop.run_case(case, tracer))
                       for case in cases)
    untraced_s = sum(at_reference_speed(lambda: loop.run_case(case)) for case in cases)

    metrics = {"numerics.import_scipy_integrate_s": (scipy_integrate_import_seconds(), "s")}
    metrics.update(tracer.metrics())
    for case, wall in zip(cli, cli_wall):
        metrics[f"cli.{case.name}.wall_s"] = (wall, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    metrics["accuracy.max_gap"] = (max(loop.gaps, default=0.0), "gap/tol")
    notes = [f"untraced pass {untraced_s:.3f} s, traced pass {traced_s:.3f} s",
             f"failed_frac {len(loop.failures) / loop.attempted:.4g} (1)"]
    return loop, metrics, notes


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "liesys" / "__init__.py").is_file():
        print(f"error: no liesys sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.trace:
        loop, metrics, notes = traced(args.workload, args.seed)
    else:
        loop, metrics, notes = end_to_end(args.workload, args.seed, args.seconds)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for note in notes:
        print(f"  {note}")
    for failure in loop.failures[:20]:
        print(f"  FAILED {failure}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:58s} {value:14.6g} {unit}")
    result = {
        "correct": not loop.failures,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
