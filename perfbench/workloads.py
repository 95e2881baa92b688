"""The benchmark's workloads: inputs made from the seed, the timed call of
each case, and the check of each output against its pinned tolerance.

Every case is a ``Case``: ``run()`` is the timed region and ``check(out)``
runs after it, returning the worst accuracy gap as a share of the case's
tolerance (above 1 is a failure) or raising.  Library calls go through module
attributes (``systems.solve_direct``), so spans installed after the cases are
built still see them.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
STEPS = 2000   # the library's default resolution: 2000 uniform steps on [0, 1]

# Acceptance criterion 1: (system, parameters, control channels, amplitude).
LIE_SYSTEMS = [
    ("brockett", {}, 2, 1.0), ("brockett_variant", {}, 2, 1.0),
    ("hopping_robot_lin", {}, 2, 1.0), ("rb_two_oscillators", {}, 2, 1.0),
    ("brockett_deg2", {}, 2, 1.0), ("unicycle", {}, 2, 1.0),
    ("unicycle_feedback", {}, 2, 0.45), ("kinematic_car_chained", {}, 2, 1.0),
    ("martinet", {}, 2, 1.0),
    ("elastic_euler", {"eps": 1}, 3, 1.0),
    ("elastic_euler", {"eps": 0}, 3, 1.0),
    ("elastic_euler", {"eps": -1}, 3, 0.8),
    ("so3_kinematics", {}, 3, 1.0),
]
LIE_TOL = 1e-5

# One catalog reduction per chart kind: canonical_first, canonical_second,
# quaternion, matrix.
REDUCTIONS = ["h3/a3", "se2/a2a3", "su2/a1", "se3/r3"]
LOG_DERIVATIVE_TOL = 1e-5
FIXTURE_TOL = 1e-6

CLI_COMMANDS = ["import", "simulate", "reduce", "check"]
CLI_SIMULATE_SYSTEM = "brockett"
CLI_REDUCTION = "se2/a2a3"


@dataclass
class Case:
    name: str
    run: Callable[[], object]
    check: Callable[[object], float]


def case_rng(seed, *key):
    """Generator for one case's inputs.

    Seeded by crc32 of the seed and the case key, so the same seed gives the
    same inputs in every process; ``hash()`` of a string changes with
    PYTHONHASHSEED.
    """
    text = "/".join(str(k) for k in (seed, *key))
    return np.random.default_rng(zlib.crc32(text.encode()))


def smooth_coefficients(rng, n_channels, amp):
    """Per channel c0 + c1 sin(2 pi f0 t) + c2 cos(2 pi f1 t): (c, f) arrays."""
    return rng.uniform(-amp, amp, (n_channels, 3)), rng.uniform(0.5, 2.0, (n_channels, 2))


def smooth_controls(rng, n_channels, amp):
    from liesys.weinorman import ControlSignal

    co, fr = smooth_coefficients(rng, n_channels, amp)
    return ControlSignal([
        (lambda t, c=co[i], f=fr[i]:
         c[0] + c[1] * np.sin(2 * np.pi * f[0] * t) + c[2] * np.cos(2 * np.pi * f[1] * t))
        for i in range(n_channels)])


def _label(name, kw):
    return name + "".join(f"[{k}={v}]" for k, v in kw.items())


# -- set-up: what a fresh process builds before the first case ---------------


def setup_lie_oracle():
    from liesys import catalog

    return [catalog.get_system(name, **kw) for name, kw, _, _ in LIE_SYSTEMS]


def setup_reduction_mix():
    from liesys import reduction

    return [reduction.catalog_reduction(name) for name in REDUCTIONS]


SETUP = {"lie_oracle": setup_lie_oracle, "reduction_mix": setup_reduction_mix}


# -- lie_oracle ----------------------------------------------------------------


def lie_oracle_cases(seed):
    """solve_direct against Wei-Norman + group action, one draw per system."""
    from liesys import numerics, systems

    grid = numerics.TimeGrid.uniform(0.0, 1.0, STEPS)
    cases = []
    for entry, (name, kw, nch, amp) in zip(setup_lie_oracle(), LIE_SYSTEMS):
        label = _label(name, kw)
        b = smooth_controls(case_rng(seed, "lie_oracle", label), nch, amp)
        x0 = np.full(entry.realization.state_dim, 0.1)

        def run(entry=entry, b=b, x0=x0):
            direct = systems.solve_direct(entry.realization, entry.pad_controls(b), x0, grid)
            via = systems.solve_via_group(entry.realization, entry.wn_group_curve(b, grid), x0)
            return direct, via

        def check(out):
            direct, via = out
            return float(np.max(np.abs(direct.states - via.states))) / LIE_TOL

        cases.append(Case(label, run, check))
    return cases


# -- reduction_mix -------------------------------------------------------------


def reduction_mix_cases(seed):
    """run_catalog_reduction, checked on the reconstruction's log-derivative
    and on the closed-form reduced coefficients (acceptance criterion 6)."""
    from liesys import groups, numerics, reduction

    grid = numerics.TimeGrid.uniform(0.0, 1.0, STEPS)
    nodes, dt = grid.nodes, grid.uniform_dt
    cases = []
    for case, name in zip(setup_reduction_mix(), REDUCTIONS):
        b = smooth_controls(case_rng(seed, "reduction_mix", name),
                            len(case.used_channels), 1.0)

        def run(case=case, b=b):
            return reduction.run_catalog_reduction(case, b, grid)

        def check(out, case=case, b=b):
            fix = case.fixture_coeffs(b, out["homogeneous"])
            worst = float(np.max(np.abs(out["coefficients"] - fix))) / FIXTURE_TOL
            bp = case.pad_controls(b)
            for k in range(4, STEPS - 3, 43):
                r = groups.right_log_derivative(out["reconstruction"], nodes[k], h=dt, order=4)
                worst = max(worst, float(np.max(np.abs(r + bp(nodes[k])))) / LOG_DERIVATIVE_TOL)
            return worst

        cases.append(Case(name, run, check))
    return cases


# -- CLI commands (run by the traced run) ----------------------------------------


def _sin_spec(rng, n_channels):
    """CLI control spec: one ``sin:amp,freq,phase`` per channel."""
    rows = zip(rng.uniform(0.3, 1.0, n_channels), rng.uniform(0.5, 2.0, n_channels),
               rng.uniform(0.0, 2 * np.pi, n_channels))
    return ";".join(f"sin:{a:.6f},{f:.6f},{p:.6f}" for a, f, p in rows)


def cli_arguments(seed):
    """liesys CLI arguments per command; ``None`` for the bare import."""
    return {
        "import": None,
        "simulate": ["simulate", "--system", CLI_SIMULATE_SYSTEM,
                     "--controls", _sin_spec(case_rng(seed, "cli", "simulate"), 2),
                     "--grid", f"0,1,{STEPS}", "--x0", "0.1,0.1,0.1",
                     "--out", "simulate.csv"],
        "reduce": ["reduce", "--reduction", CLI_REDUCTION,
                   "--controls", _sin_spec(case_rng(seed, "cli", "reduce"), 2),
                   "--grid", f"0,1,{STEPS}", "--out", "reduce"],
        "check": ["check", "--suite", "weinorman"],
    }


def _cli_gap(command, stdout):
    """Accuracy gap the command reports, as a share of its tolerance."""
    if command == "simulate":
        return json.loads(stdout)["group_action_max_gap"] / LIE_TOL
    if command == "reduce":
        return json.loads(stdout)["fixture_max_gap"] / FIXTURE_TOL
    if command == "check":
        status, name, value = stdout.split()
        if status != "PASS" or name != "weinorman/lie-theorem-oracle":
            raise RuntimeError(f"liesys check: {stdout.strip()}")
        return float(value.strip("()")) / LIE_TOL
    return 0.0


def cli_cases(seed, workdir):
    """A fresh interpreter per command, each in its own directory under
    workdir.  Data files must be byte-identical across the repetitions of a
    command."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    first_files = {}
    counter = [0]
    cases = []
    for command, args in cli_arguments(seed).items():
        def run(command=command, args=args):
            counter[0] += 1
            cwd = Path(workdir) / f"{counter[0]:04d}-{command}"
            cwd.mkdir()
            if args is None:
                argv = [sys.executable, "-c", "import liesys"]
            else:
                argv = [sys.executable, "-m", "liesys.cli", *args]
            proc = subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True,
                                  timeout=120)
            return cwd, proc

        def check(out, command=command):
            cwd, proc = out
            try:
                if proc.returncode != 0:
                    raise RuntimeError(f"liesys {command} exited {proc.returncode}: "
                                       f"{proc.stderr.strip()[-400:]}")
                files = {p.name: p.read_bytes() for p in sorted(cwd.iterdir())}
                expected = first_files.setdefault(command, files)
                if files != expected:
                    raise RuntimeError(f"liesys {command}: data files differ between "
                                       f"repetitions ({sorted(files)} vs {sorted(expected)})")
                return _cli_gap(command, proc.stdout)
            finally:
                shutil.rmtree(cwd)

        cases.append(Case(command, run, check))
    return cases
