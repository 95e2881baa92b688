"""Batch command-line surface.

Exit codes: 0 success, 2 parse/config errors, 3 domain or numeric errors.
Failures print a JSON error body {code, message, t?, node?, cond?} on
stderr.  Data files carry no timestamps; a sidecar .meta.json records the
resolved configuration.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import quantum, riccati
from .catalog import get_system, list_systems
from .errors import (
    CoincidenceError,
    DomainExitError,
    LieSysError,
    NumericsError,
    UnknownNameError,
    WNBreakdownError,
)
from .numerics import TimeGrid, Trajectory
from .reduction import catalog_reduction, list_reductions, run_catalog_reduction
from .systems import (
    INFINITY,
    SuperpositionRule,
    solve_direct,
    solve_via_group,
    superpose,
)
from .weinorman import ControlSignal, WNProblem, wn_solve


def _parse_range(flag, spec, least):
    """(a, b, n) from the `--flag a,b,n` spec: finite bounds a < b and an
    integer n >= least, or ValueError naming the flag."""
    parts = spec.split(",")
    if len(parts) != 3:
        raise ValueError(f"--{flag} must be a,b,n, got {spec!r}")
    a, b, n = float(parts[0]), float(parts[1]), int(parts[2])
    if not (np.isfinite([a, b]).all() and a < b):
        raise ValueError(f"--{flag} needs finite bounds a < b, got {spec!r}")
    if n < least:
        raise ValueError(f"--{flag} needs n >= {least}, got {spec!r}")
    return a, b, n


def _parse_grid(spec: str) -> TimeGrid:
    """`--grid t0,t1,n`: n uniform steps from t0 to t1."""
    return TimeGrid.uniform(*_parse_range("grid", spec, 1))


def _write_out(args, tables):
    """Write each data table to args.out plus its suffix, a Trajectory as its
    CSV and a (header, rows) pair by the same savetxt format, and then the
    .meta.json sidecar with the resolved configuration."""
    for suffix, table in tables.items():
        if isinstance(table, Trajectory):
            table.to_csv(args.out + suffix)
        else:
            np.savetxt(args.out + suffix, table[1], delimiter=",", header=table[0], comments="")
    config = {k: v for k, v in vars(args).items() if not callable(v)}
    with open(args.out + ".meta.json", "w") as fh:
        json.dump({"config": config}, fh, indent=1, sort_keys=True)


def _fail(code, exc):
    body = {"code": code, "message": str(exc)}
    for attr in ("t", "node", "cond"):
        if getattr(exc, attr, None) is not None:
            body[attr] = float(getattr(exc, attr)) if attr != "node" else int(exc.node)
    print(json.dumps(body), file=sys.stderr)
    return 3 if code != "parse" else 2


def _entry_params(args):
    params = {}
    for item in args.params or []:
        k, sep, v = item.partition("=")
        try:
            if not (k and sep):
                raise ValueError
            try:
                params[k] = int(v)
            except ValueError:
                params[k] = float(v)
        except ValueError:
            raise ValueError(
                f"--params expects key=value with a numeric value, got {item!r}") from None
    return params


def cmd_list_systems(args):
    rows = []
    for name in list_systems():
        entry = get_system(name)
        label = "" if entry.realization.action is None else "action"
        alg = entry.algebra.name or "?"
        rows.append(f"{name:34s} {alg:10s} {label}")
    print("\n".join(rows))
    print("\nreductions:", " ".join(list_reductions()))
    return 0


def cmd_simulate(args):
    entry = get_system(args.system, **_entry_params(args))
    grid = _parse_grid(args.grid)
    b = ControlSignal.from_spec(args.controls)
    x0 = np.array([float(v) for v in args.x0.split(",")])
    if len(x0) != (dim := entry.realization.state_dim):
        raise ValueError(f"--x0: {args.system} has {dim} states, got {len(x0)} values")
    traj = solve_direct(entry.realization, entry.pad_controls(b), x0, grid)
    report = {"system": args.system, "final_state": traj.states[-1].tolist()}
    if entry.realization.action is not None:
        curve = entry.wn_group_curve(b, grid)
        via = solve_via_group(entry.realization, curve, x0)
        report["group_action_max_gap"] = float(np.max(np.abs(via.states - traj.states)))
    if args.out:
        _write_out(args, {"": traj})
    print(json.dumps(report))
    return 0


def cmd_wei_norman(args):
    entry = get_system(args.system, **_entry_params(args))
    grid = _parse_grid(args.grid)
    b = ControlSignal.from_spec(args.controls)
    ordering = (tuple(int(i) for i in args.ordering.split(","))
                if args.ordering else entry.ordering())
    prob = WNProblem(entry.algebra, entry.pad_controls(b), grid, ordering)
    v = wn_solve(prob)
    if args.out:
        _write_out(args, {"": v})
    print(json.dumps({"system": args.system, "ordering": list(ordering),
                      "final_exponents": v.states[-1].tolist()}))
    return 0


def cmd_reduce(args):
    params = _entry_params(args)
    case = catalog_reduction(args.reduction, **params)
    grid = _parse_grid(args.grid)
    b = ControlSignal.from_spec(args.controls)
    out = run_catalog_reduction(case, b, grid)
    fix = case.fixture_coeffs(b, out["homogeneous"])
    report = {
        "reduction": args.reduction,
        "off_span_residual": out["off_span_residual"],
        "fixture_max_gap": float(np.max(np.abs(out["coefficients"] - fix))),
        "reconstruction_log_derivative_gap": case.reconstruction_gap(b, out["reconstruction"]),
    }
    if args.out:
        _write_out(args, {
            ".homogeneous.csv": out["homogeneous"],
            ".coefficients.csv": Trajectory(grid, out["coefficients"]),
            ".reconstruction.csv": Trajectory(grid, out["reconstruction"].coords)})
    print(json.dumps(report))
    return 0


def cmd_superpose(args):
    trajs = [Trajectory.from_csv(p) for p in args.inputs.split(",")]
    consts = [INFINITY if v.strip() in ("inf", "infinity") else float(v)
              for v in args.constants.split(",")]
    if args.kind == "riccati":
        rule = SuperpositionRule.riccati()
    elif args.kind == "sl2_complex":
        rule = SuperpositionRule.sl2_complex()
    elif args.kind == "linear":
        rule = SuperpositionRule.linear(len(trajs))
    else:
        rule = SuperpositionRule.affine(len(trajs) - 1)
    out = superpose(rule, trajs, consts)
    if args.out:
        _write_out(args, {"": out})
    print(json.dumps({"kind": args.kind, "final": out.states[-1].tolist()}))
    return 0


def _load_coeffs(path):
    data = Trajectory.from_csv(path)
    return riccati.RiccatiCoeffs.sampled(data.grid, *data.states.T[:3]), data.grid


def cmd_riccati(args):
    if args.ric_cmd == "transform":
        c, grid = _load_coeffs(args.coeffs)
        curve = Trajectory.from_csv(args.curve)
        entries = ControlSignal.sampled(curve.grid, curve.states[:, :4])
        out = riccati.transform_coeffs(riccati.SL2Curve(*entries.channels), c)
        rows = np.column_stack([grid.nodes, out(grid.nodes)])
        _write_out(args, {"": ("t,a0,a1,a2", rows)})
        print(json.dumps({"written": args.out}))
        return 0
    if args.ric_cmd == "reduce":
        c, grid = _load_coeffs(args.coeffs)
        known = [Trajectory.from_csv(p) for p in args.solutions.split(",")]
        red = riccati.reduce_known(c, known)
        report = {"kind": red.kind}
        if args.x0 is not None:
            traj = red.general_solution(float(args.x0))
            if args.out:
                _write_out(args, {"": traj})
            report["final"] = traj.states[-1].tolist()
        print(json.dumps(report))
        return 0
    if args.ric_cmd == "backlund":
        wk = Trajectory.from_csv(args.wk)
        wl = Trajectory.from_csv(args.wl)
        out = riccati.backlund_fd(wk, wl, args.eps_k, args.eps_l)
        _write_out(args, {"": out})
        print(json.dumps({"written": args.out}))
        return 0
    if args.ric_cmd == "darboux":
        w = Trajectory.from_csv(args.w)
        v = Trajectory.from_csv(args.v)
        out = riccati.darboux_riccati(w, v, args.gamma, args.c)
        _write_out(args, {"": out})
        print(json.dumps({"written": args.out}))
        return 0
    # general
    wp = Trajectory.from_csv(args.wp)
    F = INFINITY if args.F in ("inf", "infinity") else float(args.F)
    out = riccati.general_from_particular(wp, F)
    _write_out(args, {"": out})
    print(json.dumps({"written": args.out}))
    return 0


def _parse_xgrid(spec):
    """`--xgrid a,b,n`: n points from a to b, at least the 3 that second
    differences take."""
    return np.linspace(*_parse_range("xgrid", spec, 3))


def _quantum_family(args):
    """The superpotential family, x grid and parameter m of `quantum family`
    and `quantum check-si`; --m holds the family's `n` comma-separated
    parameters, a tuple for an nparam_linear family and a number otherwise."""
    fam = quantum.SuperpotentialFamily(
        args.kind, a=args.a, b=args.b, A=args.A, B=args.B, D=args.D, q=args.q,
        cs=tuple(float(v) for v in args.cs.split(",")) if args.cs else (),
        c0=args.c0)
    x = _parse_xgrid(args.xgrid)
    ms = [float(v) for v in args.m.split(",")]
    if len(ms) != fam.n:
        raise ValueError(f"--m: a {fam.kind} family takes {fam.n} parameter(s), got {len(ms)}")
    m = tuple(ms) if fam.kind == "nparam_linear" else ms[0]
    return fam, x, m


def cmd_quantum(args):
    if args.q_cmd == "family":
        fam, x, m = _quantum_family(args)
        W, R = quantum.eval_superpotential(fam, m, x)
        V, Vt = quantum.family_potentials(fam, m, x)
        rows = np.column_stack([x, W, V, Vt])
        if args.out:
            _write_out(args, {"": ("x,W,V,Vtilde", rows)})
        print(json.dumps({"R": R}))
        return 0
    if args.q_cmd == "check-si":
        fam, x, m = _quantum_family(args)
        res = quantum.shape_invariance_residual(fam, m, x)
        print(json.dumps({"shape_invariance_residual": res, "passes_1e-9": res <= 1e-9}))
        return 0
    # example
    x = _parse_xgrid(args.xgrid)
    fix = quantum.example_fixture(args.id, args.l, args.coupling, x)
    res = quantum.eigen_residual(fix)
    if args.out:
        _write_out(args, {"": ("x,V,psi", np.column_stack([x, fix.V, fix.psi]))})
    print(json.dumps({"example": args.id, "energy": fix.energy, "eigen_residual": res}))
    return 0


def cmd_check(args):
    from . import checks

    results = checks.run_suite(args.suite)
    all_ok = all(ok for ok, _ in results.values())
    for name, (ok, value) in sorted(results.items()):
        print(f"{'PASS' if ok else 'FAIL'}  {name}  ({value:.3g})")
    return 0 if all_ok else 3


def build_parser():
    # @path reads flags from a structured text file, one token per line
    p = argparse.ArgumentParser(prog="liesys", fromfile_prefix_chars="@")
    sub = p.add_subparsers(dest="cmd", required=True)

    s = sub.add_parser("list-systems")
    s.set_defaults(fn=cmd_list_systems)

    s = sub.add_parser("simulate")
    s.add_argument("--system", required=True)
    s.add_argument("--controls", required=True)
    s.add_argument("--grid", required=True)
    s.add_argument("--x0", required=True)
    s.add_argument("--out")
    s.add_argument("--params", nargs="*")
    s.set_defaults(fn=cmd_simulate)

    s = sub.add_parser("wei-norman")
    s.add_argument("--system", required=True)
    s.add_argument("--ordering")
    s.add_argument("--controls", required=True)
    s.add_argument("--grid", required=True)
    s.add_argument("--out")
    s.add_argument("--params", nargs="*")
    s.set_defaults(fn=cmd_wei_norman)

    s = sub.add_parser("reduce")
    s.add_argument("--reduction", required=True)
    s.add_argument("--controls", required=True)
    s.add_argument("--grid", required=True)
    s.add_argument("--out")
    s.add_argument("--params", nargs="*")
    s.set_defaults(fn=cmd_reduce)

    s = sub.add_parser("superpose")
    s.add_argument("--kind", required=True,
                   choices=["linear", "affine", "riccati", "sl2_complex"])
    s.add_argument("--inputs", required=True)
    s.add_argument("--constants", required=True)
    s.add_argument("--out")
    s.set_defaults(fn=cmd_superpose)

    s = sub.add_parser("riccati")
    rsub = s.add_subparsers(dest="ric_cmd", required=True)
    r = rsub.add_parser("transform")
    r.add_argument("--coeffs", required=True)
    r.add_argument("--curve", required=True)
    r.add_argument("--out", required=True)
    r = rsub.add_parser("reduce")
    r.add_argument("--coeffs", required=True)
    r.add_argument("--solutions", required=True)
    r.add_argument("--x0")
    r.add_argument("--out")
    r = rsub.add_parser("backlund")
    r.add_argument("--wk", required=True)
    r.add_argument("--wl", required=True)
    r.add_argument("--eps-k", type=float, required=True)
    r.add_argument("--eps-l", type=float, required=True)
    r.add_argument("--out", required=True)
    r = rsub.add_parser("darboux")
    r.add_argument("--w", required=True)
    r.add_argument("--v", required=True)
    r.add_argument("--gamma", type=float, required=True)
    r.add_argument("--c", type=float, default=1.0)
    r.add_argument("--out", required=True)
    r = rsub.add_parser("general")
    r.add_argument("--wp", required=True)
    r.add_argument("--F", required=True)
    r.add_argument("--out", required=True)
    s.set_defaults(fn=cmd_riccati)

    s = sub.add_parser("quantum")
    qsub = s.add_subparsers(dest="q_cmd", required=True)
    for qname in ("family", "check-si"):
        q = qsub.add_parser(qname)
        q.add_argument("--kind", required=True)
        q.add_argument("--a", type=float, default=0.0)
        q.add_argument("--b", type=float, default=0.0)
        q.add_argument("--A", type=float, default=0.0)
        q.add_argument("--B", type=float, default=1.0)
        q.add_argument("--D", type=float, default=0.0)
        q.add_argument("--q", type=float, default=1.0)
        q.add_argument("--cs")
        q.add_argument("--c0", type=float, default=0.0)
        q.add_argument("--m", required=True)
        q.add_argument("--xgrid", default="0.3,4.0,2001")
        q.add_argument("--out")
    q = qsub.add_parser("example")
    q.add_argument("--id", required=True)
    q.add_argument("--l", type=float, required=True)
    q.add_argument("--coupling", type=float, required=True)
    q.add_argument("--xgrid", default="0.02,10.0,5001")
    q.add_argument("--out")
    s.set_defaults(fn=cmd_quantum)

    s = sub.add_parser("check")
    s.add_argument("--suite", default="all")
    s.set_defaults(fn=cmd_check)
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ValueError, UnknownNameError, OSError) as e:
        return _fail("parse", e)
    except (DomainExitError, NumericsError, WNBreakdownError,
            CoincidenceError, LieSysError) as e:
        return _fail(type(e).__name__, e)


if __name__ == "__main__":
    sys.exit(main())
