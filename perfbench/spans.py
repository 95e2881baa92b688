"""Spans around the public functions of each liesys module.

The traced run replaces every module attribute that *is* a layer function
(``from .x import f`` copies the binding into each importing module) with a
wrapper that opens a span, and patches class attributes for methods and
properties.  Spans are aggregated as they close: per name, the call count and
the self time, which is the span's duration minus the time covered by its
child spans.  ``restore`` puts every original object back.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, qualified name) of every traced layer function, in report order.
LAYER_FUNCTIONS = [
    ("algebra", "exp_ad_basis"),
    ("algebra", "exp_ad"),
    ("weinorman", "wn_solve"),
    ("weinorman", "wn_matrix"),
    ("weinorman", "wn_reconstruct"),
    ("weinorman", "GroupCurve.__call__"),
    ("groups", "compose"),
    ("groups", "inverse"),
    ("groups", "group_adjoint"),
    ("groups", "left_log_derivative"),
    ("numerics", "rk4_step"),
    ("numerics", "integrate_rk4"),
    ("numerics", "cumulative_quadrature_samples"),
    ("numerics", "TimeGrid.nodes"),
    ("systems", "solve_direct"),
    ("systems", "field_eval"),
    ("systems", "solve_via_group"),
    ("reduction", "ReductionCase.solve_homogeneous"),
    ("reduction", "reduce_to_subgroup"),
    ("reduction", "solve_on_subgroup"),
    ("reduction", "reconstruct_full"),
    ("catalog", "get_system"),
]

SPAN_NAMES = [f"{mod}.{qual}" for mod, qual in LAYER_FUNCTIONS]

WN_SOLVE = "weinorman.wn_solve"
QUADRATURE = "numerics.cumulative_quadrature_samples"
RK4_STEP = "numerics.rk4_step"
CURVE_CALL = "weinorman.GroupCurve.__call__"


class Tracer:
    """Span aggregator; ``clock`` is injectable so tests can drive it."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.active = True
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        # frames: [name, start, time covered by children, names below]
        self._stack = []
        self.quadrature_solves = 0
        self.curve_calls_on_node = 0

    def enter(self, name):
        self._stack.append([name, self.clock(), 0.0, set()])

    def exit(self):
        name, start, child_s, below = self._stack.pop()
        dur = self.clock() - start
        self.calls[name] += 1
        self.self_s[name] += dur - child_s
        if name == WN_SOLVE and QUADRATURE in below and RK4_STEP not in below:
            self.quadrature_solves += 1
        if self._stack:
            parent = self._stack[-1]
            parent[2] += dur
            parent[3].add(name)
            parent[3] |= below

    @contextmanager
    def suspended(self):
        """Calls made inside run untraced (the benchmark's own checks)."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def metrics(self):
        """Per-layer metrics: ``<span>.calls``, ``<span>.self_s`` and the two
        ratios (0 when the base count is 0)."""
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = (self.calls.get(name, 0), "count")
            out[f"{name}.self_s"] = (self.self_s.get(name, 0.0), "s")
        solves = self.calls.get(WN_SOLVE, 0)
        curve = self.calls.get(CURVE_CALL, 0)
        out[f"{WN_SOLVE}.quadrature_share"] = (
            self.quadrature_solves / solves if solves else 0.0, "ratio")
        out[f"{CURVE_CALL}.on_node_share"] = (
            self.curve_calls_on_node / curve if curve else 0.0, "ratio")
        return out


def _span(tracer, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        tracer.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit()

    return wrapper


def _curve_call_span(tracer, fn, nodes_of):
    # t is on-node when it equals a grid node exactly; the node array is read
    # through the original property so the lookup is not counted.
    span = _span(tracer, CURVE_CALL, fn)
    nodes_by_grid = {}

    @functools.wraps(fn)
    def wrapper(curve, t):
        if tracer.active:
            hit = nodes_by_grid.get(id(curve.grid))
            if hit is None or hit[0] is not curve.grid:
                hit = nodes_by_grid[id(curve.grid)] = (curve.grid, nodes_of(curve.grid))
            nodes = hit[1]
            k = int(nodes.searchsorted(t))
            tracer.curve_calls_on_node += int(k < len(nodes) and nodes[k] == t)
        return span(curve, t)

    return wrapper


def _liesys_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "liesys" or n.startswith("liesys."))]


class Patches:
    """Wrappers installed over an imported liesys; ``restore`` undoes them."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.module_attrs = []   # (module, attribute, original)
        self.class_attrs = []    # (class, attribute, original)
        self.wrappers = {}       # id(wrapper) -> (wrapper, original)

    def install(self):
        mods = _liesys_modules()
        self._nodes_fget = sys.modules["liesys.numerics"].TimeGrid.__dict__["nodes"].fget
        for mod_name, qual in LAYER_FUNCTIONS:
            home = sys.modules[f"liesys.{mod_name}"]
            name = f"{mod_name}.{qual}"
            if "." in qual:
                self._patch_class(getattr(home, qual.split(".")[0]),
                                  qual.split(".")[1], name)
                continue
            original = getattr(home, qual)
            wrapper = _span(self.tracer, name, original)
            self.wrappers[id(wrapper)] = (wrapper, original)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self.module_attrs.append((mod, attr, original))
        return self

    def _patch_class(self, cls, attr, name):
        original = cls.__dict__[attr]
        if isinstance(original, property):
            patched = property(_span(self.tracer, name, original.fget), doc=original.__doc__)
        elif name == CURVE_CALL:
            patched = _curve_call_span(self.tracer, original, self._nodes_fget)
        else:
            patched = _span(self.tracer, name, original)
        setattr(cls, attr, patched)
        self.class_attrs.append((cls, attr, original))

    def restore(self):
        """Put back every original, including bindings that modules imported
        after ``install`` copied from a wrapper."""
        for cls, attr, original in reversed(self.class_attrs):
            setattr(cls, attr, original)
        for mod, attr, original in reversed(self.module_attrs):
            setattr(mod, attr, original)
        for mod in _liesys_modules():
            for attr, value in list(vars(mod).items()):
                hit = self.wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
        self.class_attrs.clear()
        self.module_attrs.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()
