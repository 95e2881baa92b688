import json
import warnings

import numpy as np
import pytest

from liesys.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_simulate_brockett(tmp_path, capsys):
    out = tmp_path / "b.csv"
    code, stdout, _ = run_cli(
        capsys, "simulate", "--system", "brockett", "--controls", "const:1,1",
        "--grid", "0,1,2000", "--x0", "0,0,0", "--out", str(out))
    assert code == 0
    report = json.loads(stdout)
    assert np.max(np.abs(np.array(report["final_state"]) - [1, 1, 0])) < 1e-6
    assert report["group_action_max_gap"] < 1e-5
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    assert data.shape == (2001, 4)
    assert (tmp_path / "b.csv.meta.json").exists()


def test_list_systems(capsys):
    code, stdout, _ = run_cli(capsys, "list-systems")
    assert code == 0
    assert "unicycle" in stdout
    assert "so3_kinematics" in stdout
    rows = {line.split()[0]: line.split()[1:] for line in stdout.split("\n\n")[0].splitlines()}
    # the label column names a group action only
    assert rows["brockett"] == ["h3", "action"]
    assert rows["murray_nonsinusoid"] == ["g8"]
    assert "closed-form" not in stdout


def test_quantum_check_si(capsys):
    code, stdout, _ = run_cli(
        capsys, "quantum", "check-si", "--kind", "linear_in_m", "--a", "1",
        "--b", "0.5", "--A", "0", "--B", "2", "--D", "0.3", "--m", "2")
    assert code == 0
    report = json.loads(stdout)
    assert report["shape_invariance_residual"] <= 1e-9
    assert report["passes_1e-9"] is True


def test_wei_norman_command(capsys):
    code, stdout, _ = run_cli(
        capsys, "wei-norman", "--system", "unicycle", "--ordering", "1,2,3",
        "--controls", "const:1,1", "--grid", "0,1,2000")
    assert code == 0
    v = json.loads(stdout)["final_exponents"]
    assert np.allclose(v, [1.0, np.sin(1.0), 1 - np.cos(1.0)], atol=1e-9)


def test_reduce_command(tmp_path, capsys):
    out = tmp_path / "red"
    code, stdout, _ = run_cli(
        capsys, "reduce", "--reduction", "se2/a2a3", "--controls",
        "sin:1,0.7;const:0.8", "--grid", "0,1,2000", "--out", str(out))
    assert code == 0
    report = json.loads(stdout)
    assert report["fixture_max_gap"] < 1e-6
    assert report["reconstruction_log_derivative_gap"] < 1e-5
    for suffix in (".homogeneous.csv", ".coefficients.csv", ".reconstruction.csv"):
        assert (tmp_path / ("red" + suffix)).exists()


def test_superpose_command(tmp_path, capsys):
    from liesys.numerics import TimeGrid, Trajectory
    from liesys.riccati import RiccatiCoeffs

    grid = TimeGrid.uniform(0, 1, 500)
    c = RiccatiCoeffs(1.0, 0.0, 1.0)
    paths = []
    for i, s in enumerate((0.0, 0.2, 0.4)):
        traj = Trajectory(grid, np.tan(grid.nodes + s)[:, None])
        p = tmp_path / f"x{i}.csv"
        traj.to_csv(p)
        paths.append(str(p))
    out = tmp_path / "sup.csv"
    code, stdout, _ = run_cli(
        capsys, "superpose", "--kind", "riccati", "--inputs", ",".join(paths),
        "--constants", "2.0", "--out", str(out))
    assert code == 0
    recovered = Trajectory.from_csv(out)
    ref = c.solve(recovered.states[0], grid)
    assert np.max(np.abs(recovered.states - ref.states)) < 1e-6


def test_riccati_general_command(tmp_path, capsys):
    from liesys.numerics import TimeGrid, Trajectory

    grid = TimeGrid.uniform(0, 1, 500)
    wp = tmp_path / "wp.csv"
    Trajectory(grid, grid.nodes[:, None]).to_csv(wp)
    out = tmp_path / "wg.csv"
    code, *_ = run_cli(capsys, "riccati", "general", "--wp", str(wp),
                       "--F", "5.0", "--out", str(out))
    assert code == 0
    assert out.exists()


def test_riccati_transform_command(tmp_path, capsys):
    from liesys.riccati import RiccatiCoeffs, SL2Curve, transform_coeffs

    t = np.linspace(0.0, 1.0, 401)
    triple = np.column_stack([np.sin(t), np.cos(t), 1.0 + 0.3 * t])
    p, q = 0.2 * np.sin(t), 0.3 * t
    entries = np.column_stack([np.exp(p), q, 0.1 * np.cos(t), (1.0 + 0.1 * q * np.cos(t)) * np.exp(-p)])
    coeffs, curve, out = tmp_path / "c.csv", tmp_path / "A.csv", tmp_path / "out.csv"
    np.savetxt(coeffs, np.column_stack([t, triple]), delimiter=",", header="t,a0,a1,a2",
               comments="")
    np.savetxt(curve, np.column_stack([t, entries]), delimiter=",",
               header="t,alpha,beta,gamma,delta", comments="")
    code, stdout, _ = run_cli(capsys, "riccati", "transform", "--coeffs", str(coeffs),
                              "--curve", str(curve), "--out", str(out))
    assert code == 0
    assert json.loads(stdout) == {"written": str(out)}
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    # reference: the same samples, linear between nodes, called one node at a time
    lin = [lambda s, col=col: float(np.interp(s, t, col)) for col in np.hstack([triple, entries]).T]
    ref = transform_coeffs(SL2Curve(*lin[3:]), RiccatiCoeffs(*lin[:3]))
    expected = np.array([ref(s) for s in t])
    assert np.array_equal(data[:, 0], t)
    assert np.max(np.abs(data[:, 1:] - expected)) <= 1e-12


def test_unknown_system_exit_2(capsys):
    code, _, stderr = run_cli(capsys, "simulate", "--system", "nope",
                              "--controls", "const:1", "--grid", "0,1,10",
                              "--x0", "0")
    assert code == 2
    body = json.loads(stderr)
    assert body["code"] == "parse"


def test_wrong_channel_count_exit_2(capsys):
    # a control list has one channel per driven index: brockett is driven on
    # 2 of its 3 basis elements, and 3 channels are refused as 1 and 4 are
    for argv, given, driven, r in (
            (["reduce", "--reduction", "se3/so3"], 1, 6, 6),
            (["simulate", "--system", "brockett", "--x0", "0,0,0"], 1, 2, 3),
            (["simulate", "--system", "brockett", "--x0", "0,0,0"], 3, 2, 3),
            (["simulate", "--system", "brockett", "--x0", "0,0,0"], 4, 2, 3)):
        controls = ";".join(["const:1"] * given)
        code, stdout, stderr = run_cli(capsys, *argv, "--controls", controls,
                                       "--grid", "0,1,10")
        assert code == 2 and stdout == ""
        body = json.loads(stderr)
        assert body["code"] == "parse"
        assert f"give {given} channels" in body["message"]
        assert f"({driven})" in body["message"] and body["message"].endswith(f" of {r}")


def test_reduce_refuses_controls_outside_the_driven_channels(capsys):
    # h3/a3 is driven on a1 and a2; its fixture would read a third channel
    # as if it were not there
    code, stdout, stderr = run_cli(capsys, "reduce", "--reduction", "h3/a3", "--controls",
                                   "sin:1,1,0;const:0.5;sin:0.7,2,1", "--grid", "0,1,2000")
    assert code == 2 and stdout == ""
    assert json.loads(stderr) == {
        "code": "parse",
        "message": "controls give 3 channels; need one per driven index (2): channels [1, 2] "
                   "of 3"}


def test_wrong_x0_length_exit_2(capsys):
    for x0 in ("0.1,0.2", "0.1,0.2,0.3,0.4"):
        code, stdout, stderr = run_cli(capsys, "simulate", "--system", "so3_kinematics",
                                       "--controls", "const:1", "--grid", "0,1,10", "--x0", x0)
        assert code == 2 and stdout == ""
        body = json.loads(stderr)
        assert body["code"] == "parse"
        assert body["message"] == (f"--x0: so3_kinematics has 3 states, "
                                   f"got {x0.count(',') + 1} values")


def test_bad_quantum_parameters_and_unknown_suite_exit_2(capsys):
    xgrid = "--xgrid=-1,1,50"
    for argv, words in (
            (["quantum", "family", "--kind", "linear_in_m", "--a", "1", "--m", "1.5,2", xgrid],
             ("linear_in_m", "takes 1 parameter", "got 2")),
            (["quantum", "check-si", "--kind", "inverse_m", "--a", "1", "--m", "1,2,3", xgrid],
             ("inverse_m", "takes 1 parameter", "got 3")),
            (["quantum", "check-si", "--kind", "nparam_linear", "--cs", "0.5,0.5", "--m", "2",
              xgrid], ("nparam_linear", "takes 2 parameter", "got 1")),
            (["check", "--suite", "nosuch"], ("unknown suite 'nosuch'", "reduction")),
            (["simulate", "--system", "nope", "--controls", "const:1", "--grid", "0,1,10",
              "--x0", "0"], ("unknown system 'nope'",))):
        code, stdout, stderr = run_cli(capsys, *argv)
        assert code == 2 and stdout == "", argv
        body = json.loads(stderr)
        assert body["code"] == "parse"
        assert all(w in body["message"] for w in words), body["message"]
        # an unknown name is reported unquoted, the message first
        if words[0].startswith("unknown"):
            assert body["message"].startswith(words[0]), body["message"]


def test_malformed_params_exit_2(capsys):
    for item in ("eps", "=1", "eps=one"):
        code, stdout, stderr = run_cli(capsys, "simulate", "--system", "elastic_euler",
                                       "--params", item, "--controls", "const:1",
                                       "--grid", "0,1,10", "--x0", "0,0,0")
        assert code == 2 and stdout == ""
        body = json.loads(stderr)
        assert body["code"] == "parse"
        assert body["message"] == f"--params expects key=value with a numeric value, got {item!r}"


@pytest.mark.parametrize("argv,message", [
    (["simulate", "--system", "brockett", "--params", "foo=1", "--x0", "0,0,0"],
     "system 'brockett' has no parameter 'foo'; it takes none"),
    (["simulate", "--system", "td_linear_potential_classical", "--params", "m=2",
      "--x0", "0,0"], "system 'td_linear_potential_classical' has no parameter 'm'; it takes none"),
    (["simulate", "--system", "elastic_euler", "--params", "eps=1", "m=2", "--x0", "0,0,0"],
     "system 'elastic_euler' has no parameter 'm'; it takes eps"),
    (["simulate", "--system", "chained_n", "--params", "n=5.5", "--x0", "0,0,0,0,0"],
     "chained_n supports integral 3 <= n <= 10, got 5.5"),
    (["simulate", "--system", "power_n", "--params", "n=4.5", "--x0", "0,0,0,0"],
     "power_n supports integral 3 <= n <= 10, got 4.5"),
    (["reduce", "--reduction", "se2/a2a3", "--params", "foo=1"],
     "reduction 'se2/a2a3' has no parameter 'foo'; it takes none"),
    # the registration loops once leaked their case as a parameter: h3/a1
    # with which=3 ran h3/a3, and se2/a1 with which=1 ran se2/a2a3
    (["reduce", "--reduction", "h3/a1", "--params", "which=3"],
     "reduction 'h3/a1' has no parameter 'which'; it takes none"),
    (["reduce", "--reduction", "se2/a1", "--params", "which=1"],
     "reduction 'se2/a1' has no parameter 'which'; it takes none"),
], ids=["brockett-foo", "tdlin-m", "elastic-m", "chained-5.5", "power-4.5", "se2-foo",
        "h3-which", "se2-which"])
def test_unknown_or_malformed_catalog_parameters_exit_2(argv, message, capsys):
    code, stdout, stderr = run_cli(capsys, *argv, "--controls", "const:1,1", "--grid", "0,1,10")
    assert code == 2 and stdout == ""
    assert json.loads(stderr) == {"code": "parse", "message": message}


def test_an_integral_float_names_the_same_form(capsys):
    # as eps=1.0 names elastic_euler at eps = +1, n=4.0 names power_4
    reports = []
    for n in ("4", "4.0"):
        code, stdout, _ = run_cli(capsys, "simulate", "--system", "power_n", "--params", f"n={n}",
                                  "--controls", "const:1,1", "--grid", "0,1,10", "--x0", "0,0,0,0")
        assert code == 0
        reports.append(json.loads(stdout))
    assert reports[0] == reports[1]


_SIMULATE = ["simulate", "--system", "brockett", "--x0", "0,0,0"]
_SPEC_FORMS = "expected const:v1[,v2...] or sin:amp,freq[,phase]"


@pytest.mark.parametrize("argv,message", [
    *((_SIMULATE + ["--controls", spec, "--grid", "0,1,10"],
       f"cannot parse control spec {spec!r}: {_SPEC_FORMS}")
      for spec in ("sin:1", "sin:1,2,3,4", "sin:1,x", "const:1,")),
    (_SIMULATE + ["--controls", "sin:1,1", "--grid", "0,1,0"], "--grid needs n >= 1, got '0,1,0'"),
    (_SIMULATE + ["--controls", "sin:1,1", "--grid", "1,0,10"],
     "--grid needs finite bounds a < b, got '1,0,10'"),
    (_SIMULATE + ["--controls", "sin:1,1", "--grid", "0,inf,10"],
     "--grid needs finite bounds a < b, got '0,inf,10'"),
    (["quantum", "example", "--id", "5.1", "--l", "-1.2", "--coupling", "1",
      "--xgrid=0.02,10,1"], "--xgrid needs n >= 3, got '0.02,10,1'"),
    (["wei-norman", "--system", "so3_kinematics", "--controls", "const:1,1,1", "--grid",
      "0,1,10", "--ordering", "1,2"], "ordering must be a permutation of 1..3, got (1, 2)"),
], ids=["sin-one-number", "sin-four-numbers", "sin-not-a-number", "const-empty-value",
        "grid-no-steps", "grid-reversed", "grid-inf", "xgrid-one-point", "ordering-short"])
def test_malformed_problem_arguments_exit_2(argv, message, capsys):
    # each is refused before any numerics run, so none warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, stdout, stderr = run_cli(capsys, *argv)
    assert code == 2 and stdout == ""
    assert json.loads(stderr) == {"code": "parse", "message": message}


def test_superpose_command_rejects_a_wrong_constant_count(tmp_path, capsys):
    from liesys.numerics import TimeGrid, Trajectory

    grid = TimeGrid.uniform(0, 1, 10)
    paths = []
    for i in range(3):
        paths.append(str(tmp_path / f"x{i}.csv"))
        Trajectory(grid, grid.nodes[:, None] + i).to_csv(paths[-1])
    out = tmp_path / "sup.csv"
    code, stdout, stderr = run_cli(capsys, "superpose", "--kind", "linear", "--inputs",
                                   ",".join(paths), "--constants", "1,2", "--out", str(out))
    assert code == 3 and stdout == ""
    assert "takes 3 constants, got 2" in json.loads(stderr)["message"]
    assert not out.exists()


def test_check_command_reduction(capsys):
    code, stdout, _ = run_cli(capsys, "check", "--suite", "reduction")
    assert code == 0
    names = [line.split()[1] for line in stdout.splitlines()]
    assert names == ["reduction/fixtures", "reduction/reconstruction"]
    assert "FAIL" not in stdout


def test_domain_error_exit_3(capsys):
    code, _, stderr = run_cli(
        capsys, "simulate", "--system", "unicycle_feedback", "--controls",
        "const:1,0.5", "--grid", "0,1,200", "--x0", "0,0,1.58")
    assert code == 3
    body = json.loads(stderr)
    assert body["code"] == "DomainExitError"
    assert "t" in body


def test_byte_stable_outputs(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for out in (a, b):
        run_cli(capsys, "simulate", "--system", "unicycle", "--controls",
                "sin:1,0.5;const:0.7", "--grid", "0,1,500", "--x0", "0,0,0",
                "--out", str(out))
    assert a.read_bytes() == b.read_bytes()


def test_check_command_algebra(capsys):
    code, stdout, _ = run_cli(capsys, "check", "--suite", "algebra")
    assert code == 0
    assert "PASS" in stdout and "FAIL" not in stdout


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("simulate\n--system\nbrockett\n--controls\nconst:1,1\n"
                   "--grid\n0,1,200\n--x0\n0,0,0\n")
    code, stdout, _ = run_cli(capsys, f"@{cfg}")
    assert code == 0
    report = json.loads(stdout)
    assert np.max(np.abs(np.array(report["final_state"]) - [1, 1, 0])) < 1e-6


def test_quantum_example_command(tmp_path, capsys):
    out = tmp_path / "ex.csv"
    code, stdout, _ = run_cli(
        capsys, "quantum", "example", "--id", "5.1", "--l", "-1.25",
        "--coupling", "2.0", "--out", str(out))
    assert code == 0
    report = json.loads(stdout)
    assert report["eigen_residual"] < 1e-3
    assert out.exists()
