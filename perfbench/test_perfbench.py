"""Tests of the benchmark's own machinery: span self-time arithmetic, the
percentile helper, seed determinism across processes, and the wrappers'
restoration of every patched attribute.

    python3 -m pytest perfbench -q
"""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import liesys  # noqa: E402
import spans  # noqa: E402
from liesys.groups import get_chart  # noqa: E402
from liesys.numerics import TimeGrid  # noqa: E402
from liesys.weinorman import GroupCurve  # noqa: E402
from run import percentile  # noqa: E402


def _span(tracer, name, children=()):
    tracer.enter(name)
    for child in children:
        _span(tracer, *child)
    tracer.exit()


def test_self_time_subtracts_child_spans():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9]
    tracer = spans.Tracer(clock=iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0]).__next__)
    _span(tracer, "root", [("a", [("b",)]), ("c",)])
    assert dict(tracer.self_s) == {"b": 1.0, "a": 2.0, "c": 4.0, "root": 3.0}
    assert dict(tracer.calls) == {"b": 1, "a": 1, "c": 1, "root": 1}


def test_quadrature_share_looks_at_all_descendants():
    tracer = spans.Tracer(clock=itertools.count().__next__)
    below = ("weinorman.wn_matrix",)
    _span(tracer, spans.WN_SOLVE, [(below[0], [(spans.QUADRATURE,)])])
    _span(tracer, spans.WN_SOLVE, [(spans.QUADRATURE,), (below[0], [(spans.RK4_STEP,)])])
    _span(tracer, spans.WN_SOLVE, [(spans.RK4_STEP,)])
    share, unit = tracer.metrics()[f"{spans.WN_SOLVE}.quadrature_share"]
    assert (share, unit) == (pytest.approx(1 / 3), "ratio")


@pytest.mark.parametrize("n", [1, 2, 7, 40])
def test_percentile_matches_linear_interpolation(n):
    values = list(np.random.default_rng(n).exponential(size=n))
    for q in (0, 10, 50, 90, 100):
        assert percentile(values, q) == pytest.approx(np.percentile(values, q))
    assert percentile([3.0, 1.0, 2.0, 4.0], 50) == 2.5
    with pytest.raises(ValueError):
        percentile([], 50)


_INPUTS_SNIPPET = """
import json, workloads
keys = [("lie_oracle", workloads._label(n, kw)) for n, kw, _, _ in workloads.LIE_SYSTEMS]
keys += [("reduction_mix", name) for name in workloads.REDUCTIONS]
out = {"/".join(k): [a.tolist() for a in workloads.smooth_coefficients(
           workloads.case_rng(7, *k), 3, 1.0)] for k in keys}
out["cli"] = workloads.cli_arguments(7)
print(json.dumps(out, sort_keys=True))
"""


def test_inputs_do_not_depend_on_the_hash_seed():
    outputs = []
    for hash_seed in ("0", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(SRC))
        proc = subprocess.run([sys.executable, "-c", _INPUTS_SNIPPET], cwd=HERE, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert len(json.loads(outputs[0])) == 13 + 4 + 1


def _liesys_bindings():
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "liesys" or name.startswith("liesys."):
            out.update({(name, attr): value for attr, value in vars(mod).items()
                        if callable(value)})
    for cls, attr in ((GroupCurve, "__call__"), (TimeGrid, "nodes"),
                      (liesys.reduction.ReductionCase, "solve_homogeneous")):
        out[(cls.__name__, attr)] = cls.__dict__[attr]
    return out


def test_patches_cover_every_binding_and_restore_them():
    sys.modules.pop("liesys.checks", None)
    before = _liesys_bindings()
    tracer = spans.Tracer()
    with spans.Patches(tracer):
        for mod, attr in (("reduction", "left_log_derivative"), ("catalog", "wn_solve"),
                          ("weinorman", "rk4_step"), ("numerics", "rk4_step"),
                          ("systems", "integrate_rk4"), ("liesys", "wn_solve")):
            key = (mod if mod == "liesys" else f"liesys.{mod}", attr)
            assert getattr(sys.modules[key[0]], attr) is not before[key], key
        import liesys.checks  # imported while patched: binds the wrappers

        assert liesys.checks.get_system is not before[("liesys.catalog", "get_system")]
        liesys.checks.get_system("brockett")
        TimeGrid.uniform(0.0, 1.0, 4).nodes
    assert tracer.calls["catalog.get_system"] == 1
    assert tracer.calls["numerics.TimeGrid.nodes"] == 1
    after = _liesys_bindings()
    assert liesys.checks.get_system is before[("liesys.catalog", "get_system")]
    changed = [key for key, value in before.items() if after[key] is not value]
    assert changed == []


def test_on_node_share_counts_exact_grid_nodes():
    grid = TimeGrid.uniform(0.0, 1.0, 4)
    curve = GroupCurve(get_chart("H3", "canonical_first"), grid, np.zeros((5, 3)))
    tracer = spans.Tracer()
    with spans.Patches(tracer):
        for t in (0.25, 0.3, grid.nodes[2], 1.0 + 1e-3):
            curve(t)
    metrics = tracer.metrics()
    assert metrics[f"{spans.CURVE_CALL}.calls"] == (4, "count")
    assert metrics[f"{spans.CURVE_CALL}.on_node_share"] == (0.5, "ratio")
