"""End-to-end tests for the command line interface."""

import copy
import json

import pytest

from hilferbvp import cli

from conftest import ORACLE


def _write_problem(tmp_path, payload, name="prob.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _no_bounds_problem():
    raw = copy.deepcopy(cli.EXAMPLE_PROBLEM)
    del raw["bounds"]
    raw["solver"]["nodes"] = 256
    return raw


def test_check_with_user_bounds(example_file, capsys):
    rc = cli.main(["check", example_file, "--nodes", "256"])
    out = capsys.readouterr().out
    assert rc == cli.EXIT_OK
    assert "unique = True" in out
    assert "schauder_applies = True" in out
    assert "krasnoselskii_applies = True" in out
    assert "G = " in out and "W = " in out and "K_con = " in out
    assert "(user)" in out


def test_check_json_output(example_file, capsys):
    rc = cli.main(["check", example_file, "--json", "--nodes", "256"])
    out = capsys.readouterr().out
    assert rc == cli.EXIT_OK
    data = json.loads(out)
    assert data["unique"] is True
    assert data["G"] == pytest.approx(ORACLE["G"], rel=1e-12)
    assert data["W"] == pytest.approx(ORACLE["W"], rel=1e-12)
    assert data["K_con"] == pytest.approx(ORACLE["K_con"], rel=1e-12)


def test_check_untrusted_estimates_no_theorem(tmp_path, capsys):
    path = _write_problem(tmp_path, _no_bounds_problem())
    rc = cli.main(["check", path])
    out = capsys.readouterr().out
    assert rc == cli.EXIT_NO_THEOREM
    assert "unique = False" in out
    assert "(estimated)" in out
    assert "trust_estimates" in out


def test_check_trust_estimates_flag(tmp_path, capsys):
    path = _write_problem(tmp_path, _no_bounds_problem())
    rc = cli.main(["check", path, "--trust-estimates"])
    out = capsys.readouterr().out
    assert rc == cli.EXIT_OK
    assert "unique = True" in out


def test_solve_writes_csv(example_file, tmp_path, capsys):
    out_csv = tmp_path / "solution.csv"
    rc = cli.main(["solve", example_file, "--nodes", "512",
                   "--out", str(out_csv)])
    out = capsys.readouterr().out
    assert rc == cli.EXIT_OK
    assert "converged = True" in out
    assert "# elapsed" in out
    lines = out_csv.read_text().strip().split("\n")
    assert lines[0] == "t,w,z"
    assert len(lines) == 514
    # weighted endpoint value is finite and positive for the example
    last = lines[-1].split(",")
    assert float(last[0]) == 1.0
    assert float(last[1]) > 0.0


def test_solve_output_deterministic(example_file, capsys):
    def run():
        rc = cli.main(["solve", example_file, "--nodes", "512"])
        assert rc == cli.EXIT_OK
        text = capsys.readouterr().out
        return [ln for ln in text.split("\n") if not ln.startswith("#")]

    assert run() == run()


def test_solve_json_output(example_file, capsys):
    rc = cli.main(["solve", example_file, "--nodes", "512", "--json"])
    data = json.loads(capsys.readouterr().out)
    assert rc == cli.EXIT_OK
    assert data["converged"] is True
    assert data["volterra_residual"] <= 1e-8


def test_solve_nonconvergent_exit(tmp_path, capsys):
    raw = _no_bounds_problem()
    raw["f"] = "100*z"
    path = _write_problem(tmp_path, raw)
    rc = cli.main(["solve", path])
    out = capsys.readouterr().out
    assert rc == cli.EXIT_NO_CONVERGENCE
    assert "converged = False" in out
    assert "diverged = True" in out


def test_solve_tol_and_max_iter_overrides(example_file, capsys):
    rc = cli.main(["solve", example_file, "--nodes", "256",
                   "--max-iter", "2"])
    out = capsys.readouterr().out
    assert rc == cli.EXIT_NO_CONVERGENCE
    assert "iterations = 2" in out
    rc = cli.main(["solve", example_file, "--nodes", "256", "--tol", "1e-2"])
    out = capsys.readouterr().out
    assert rc == cli.EXIT_OK
    assert "iterations = " in out


@pytest.mark.parametrize("mangle,fragment", [
    (lambda raw: raw.update(d=0.0), "degenerate boundary: d = 0"),
    (lambda raw: raw.update(alpha=1.5), "alpha"),
    (lambda raw: raw.pop("e"), "missing required field"),
    (lambda raw: raw.update(f="2 +"), "f:"),
    (lambda raw: raw.update(extra=1.0), "unknown field"),
    (lambda raw: raw.update(b=-1.0), "must exceed"),
    (lambda raw: raw.update(f="1e999 * z"), "a finite number"),
    (lambda raw: raw.update(bounds={"L": -1.0}), "bounds.L"),
    (lambda raw: raw["solver"].update(divergence_factor=0), "divergence_factor"),
    (lambda raw: raw.update(a=-1e308, b=1e308), "b - a overflows"),
    # nesting beyond exprlang.MAX_DEPTH, each kind once
    pytest.param(lambda raw: raw.update(f="(" * 300 + "t" + ")" * 300), "f:",
                 id="deep-parentheses"),
    pytest.param(lambda raw: raw.update(f="-" * 1200 + "t"), "f:",
                 id="deep-unary-minus"),
    pytest.param(lambda raw: raw.update(f="t^" * 1200 + "1"), "f:",
                 id="deep-power"),
    pytest.param(lambda raw: raw.update(f="t+" * 5000 + "t"), "f:",
                 id="long-sum"),
])
def test_bad_problem_files(tmp_path, capsys, mangle, fragment):
    raw = _no_bounds_problem()
    mangle(raw)
    path = _write_problem(tmp_path, raw)
    # a bad file is rejected by every subcommand that reads one
    for command in ("solve", "check"):
        rc = cli.main([command, path])
        err = capsys.readouterr().err
        assert rc == cli.EXIT_INPUT
        assert fragment in err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_solve_non_finite_tol_rejected(example_file, capsys, value):
    rc = cli.main(["solve", example_file, "--nodes", "64", "--tol", value])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_INPUT
    assert "tol must be positive and finite" in captured.err
    assert "iterations" not in captured.out


def test_check_overflowing_constant_exit(tmp_path, capsys):
    # b - a = 1e300 overflows ba ** (...) in the Omega constant
    raw = copy.deepcopy(cli.EXAMPLE_PROBLEM)
    raw["b"] = 1e300
    path = _write_problem(tmp_path, raw)
    rc = cli.main(["check", path, "--nodes", "64"])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_NO_CONVERGENCE
    assert "evaluation failed:" in err
    assert "Omega" in err
    assert "[0.0, 1e+300]" in err


@pytest.mark.parametrize("field,value,what", [
    ("b", 1e300, "Picard iteration 1: the weighted iterate overflowed"),
    ("e", 1e308, "Picard iteration 0: its unweighted samples overflowed"),
])
def test_solve_overflowing_iterate_exit(tmp_path, capsys, field, value, what):
    # any numpy warning would fail the test under filterwarnings = error
    raw = copy.deepcopy(cli.EXAMPLE_PROBLEM)
    raw[field] = value
    path = _write_problem(tmp_path, raw)
    rc = cli.main(["solve", path, "--nodes", "64"])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_NO_CONVERGENCE
    assert err == f"evaluation failed: {what}\n"


@pytest.mark.parametrize("flag", ["--nodes", "--grading"])
def test_zero_grid_flag_rejected(example_file, capsys, flag):
    # 0 is a bad value, not an absent flag: no fallback to the file's mesh
    rc = cli.main(["solve", example_file, flag, "0"])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_INPUT
    assert "error:" in err


def test_check_eval_failure_exit(tmp_path, capsys):
    # estimating growth samples z <= 0, where ln(z) is undefined
    raw = _no_bounds_problem()
    raw["f"] = "ln(z)"
    path = _write_problem(tmp_path, raw)
    rc = cli.main(["check", path])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_NO_CONVERGENCE
    assert "evaluation failed: ln of non-positive value" in err


def test_invalid_json_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    rc = cli.main(["solve", str(path)])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_INPUT
    assert "not valid JSON" in err


def test_missing_file(capsys):
    rc = cli.main(["solve", "/nonexistent/prob.json"])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_INPUT
    assert "cannot read" in err


def test_unknown_flag_and_no_args(capsys):
    assert cli.main(["solve", "x.json", "--bogus"]) == cli.EXIT_INPUT
    assert cli.main([]) == cli.EXIT_INPUT
    capsys.readouterr()


def test_solve_one_panel_is_input_error(example_file, capsys):
    rc = cli.main(["solve", example_file, "--nodes", "1"])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_INPUT
    assert "at least 2 panels" in err


def test_solve_divergence_factor_must_exceed_one(tmp_path, capsys):
    raw = copy.deepcopy(cli.EXAMPLE_PROBLEM)
    raw["solver"]["divergence_factor"] = 0
    path = _write_problem(tmp_path, raw)
    rc = cli.main(["solve", path, "--nodes", "256"])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_INPUT
    assert "divergence_factor must be > 1" in err


def test_identities_battery_passes(capsys):
    rc = cli.main(["identities"])
    out = capsys.readouterr().out
    assert rc == cli.EXIT_OK
    lines = [ln for ln in out.strip().split("\n")]
    assert all(ln.startswith("PASS") for ln in lines[:-1])
    assert lines[-1].startswith("failed = 0 of")


def test_identities_failure_exit(capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_identity_battery",
                        lambda tol_scale=1.0: [("stub check", 2.0, 1.0)])
    rc = cli.main(["identities"])
    out = capsys.readouterr().out
    assert rc == cli.EXIT_IDENTITY
    assert "FAIL stub check" in out
    assert "failed = 1 of 1" in out


def test_identities_tol_scale_validation(capsys):
    # nan would fail every identity and inf would pass every one
    for value in ("0", "nan", "inf"):
        rc = cli.main(["identities", "--tol-scale", value])
        captured = capsys.readouterr()
        assert rc == cli.EXIT_INPUT, value
        assert "tol-scale" in captured.err and captured.out == ""


def test_example_command(capsys):
    rc = cli.main(["example", "--nodes", "512"])
    out = capsys.readouterr().out
    assert rc == cli.EXIT_OK
    assert "reference" in out
    assert "unique = True" in out
    assert "converged = True" in out


def test_example_json(capsys):
    rc = cli.main(["example", "--nodes", "512", "--json"])
    data = json.loads(capsys.readouterr().out)
    assert rc == cli.EXIT_OK
    assert set(data) == {"report", "reference", "solve"}
    assert data["solve"]["converged"] is True
    assert data["report"]["unique"] is True


def test_example_problem_is_valid():
    spec, solver = cli.problem_from_dict(cli.EXAMPLE_PROBLEM)
    assert spec.gamma == pytest.approx(2.0 / 3.0)
    assert solver["nodes"] == 2048
    assert solver["divergence_factor"] == 1.5
