"""End-to-end tests for the command line interface."""

import copy
import json
import warnings

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
    assert "inputs_used[N_bound] = user" in out
    assert "resolved[N_bound] = 1.0" in out


def test_check_json_output(example_file, capsys):
    rc = cli.main(["check", example_file, "--json", "--nodes", "256"])
    out = capsys.readouterr().out
    assert rc == cli.EXIT_OK
    data = json.loads(out)
    assert data["unique"] is True
    assert data["G"] == pytest.approx(ORACLE["G"], rel=1e-12)
    assert data["W"] == pytest.approx(ORACLE["W"], rel=1e-12)
    assert data["K_con"] == pytest.approx(ORACLE["K_con"], rel=1e-12)


def test_check_prints_B_and_radii(example_file, capsys):
    rc = cli.main(["check", example_file, "--nodes", "256"])
    out = capsys.readouterr().out
    assert rc == cli.EXIT_OK
    assert "B = 2.30590464013" in out
    assert "radii[schauder] = 3.03932439951" in out
    assert "radii[krasnoselskii] = 3.03932439951" in out
    assert "radii[schaefer] = 2.74541892479" in out


def test_check_no_solution_problem(tmp_path, capsys):
    # lambda b^alpha is a root of c + d E_alpha(x), so no solution exists
    # (Furati, Kassim and Tatar 2012); the paper's G = 0.684 < 1 would
    # certify Schauder
    lam = -12.870472838786846
    raw = {"alpha": 0.5, "beta": 1.0 / 3.0, "a": 0.0, "b": 0.001,
           "c": -0.5, "d": 0.75, "e": 0.4, "f": f"{lam!r}*z",
           "bounds": {"N": 1e-6, "zeta": abs(lam) / 1e-6, "L": abs(lam)}}
    path = _write_problem(tmp_path, raw)
    rc = cli.main(["check", path, "--nodes", "64"])
    out = capsys.readouterr().out
    assert rc == cli.EXIT_NO_THEOREM
    assert "G = 0.68406" in out
    assert "radii[schauder] = none" in out
    assert "reasons[schauder] = B N zeta = 1.97182 >= 1" in out


def test_check_untrusted_estimates_no_theorem(tmp_path, capsys):
    path = _write_problem(tmp_path, _no_bounds_problem())
    rc = cli.main(["check", path])
    out = capsys.readouterr().out
    assert rc == cli.EXIT_NO_THEOREM
    assert "unique = False" in out
    assert "inputs_used[N_bound] = estimated" in out
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


def test_solve_diverged_json_is_strict(tmp_path, capsys):
    # the residuals of a failed solve are NaN; --json writes them as null
    raw = copy.deepcopy(cli.EXAMPLE_PROBLEM)
    raw["f"] = "100*z"
    path = _write_problem(tmp_path, raw)
    rc = cli.main(["solve", path, "--json", "--nodes", "256"])
    out = capsys.readouterr().out

    def reject(constant):
        raise ValueError(f"non-finite JSON constant {constant}")

    data = json.loads(out, parse_constant=reject)
    assert rc == cli.EXIT_NO_CONVERGENCE
    assert data["diverged"] is True
    assert data["volterra_residual"] is None
    assert data["boundary_residual"] is None


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
    (lambda raw: raw.update(f="t^(-1/6) + 5*z",
                            bounds={"eta": "t^(-1/6) + 5*z"}), "bounds.eta"),
    # nesting beyond exprlang.MAX_DEPTH, each kind once
    pytest.param(lambda raw: raw.update(f="(" * 300 + "t" + ")" * 300), "f:",
                 id="deep-parentheses"),
    pytest.param(lambda raw: raw.update(f="-" * 1200 + "t"), "f:",
                 id="deep-unary-minus"),
    pytest.param(lambda raw: raw.update(f="t^" * 1200 + "1"), "f:",
                 id="deep-power"),
    pytest.param(lambda raw: raw.update(f="t+" * 5000 + "t"), "f:",
                 id="long-sum"),
    # JSON shapes
    pytest.param(lambda raw: raw.update(alpha="0.5"),
                 "alpha: must be a number, got '0.5'", id="string-number"),
    pytest.param(lambda raw: raw.update(e=True),
                 "e: must be a number, got True", id="bool-number"),
    pytest.param(lambda raw: raw.update(c=float("nan")),
                 "c: must be finite, got nan", id="nan-number"),
    pytest.param(lambda raw: raw.update(f=1.0),
                 "f: must be an expression string, got 1.0", id="non-string-f"),
    pytest.param(lambda raw: [raw], "problem file must be a JSON object",
                 id="non-object-file"),
    pytest.param(lambda raw: raw.update(bounds=[1.0]),
                 "bounds: must be an object, got [1.0]", id="non-object-bounds"),
    pytest.param(lambda raw: raw.update(solver=2048),
                 "solver: must be an object, got 2048", id="non-object-solver"),
    pytest.param(lambda raw: raw.update(bounds={"M": 1.0}),
                 "bounds.M: unknown field", id="unknown-bounds-key"),
    pytest.param(lambda raw: raw["solver"].update(threads=2),
                 "solver.threads: unknown field", id="unknown-solver-key"),
    pytest.param(lambda raw: raw["solver"].update(nodes=2048.5),
                 "solver.nodes: must be an integer, got 2048.5",
                 id="fractional-nodes"),
])
def test_bad_problem_files(tmp_path, capsys, mangle, fragment):
    raw = _no_bounds_problem()
    # a mangle edits the problem in place, or returns a whole new file body
    body = mangle(raw)
    path = _write_problem(tmp_path, body if isinstance(body, list) else raw)
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
    # b - a = 1e300 overflows ba ** (...) in the Omega constant, which
    # raises; a bound near the float limit overflows a product instead,
    # silently: W = B L to inf, and G = (...) N zeta with zeta = 0 to nan
    cases = [
        ({"b": 1e300}, "Omega", "[0.0, 1e+300]"),
        ({"bounds": {"N": 1.0, "zeta": 0.0625, "L": 1e308}}, "W", "[0.0, 1.0]"),
        ({"bounds": {"N": 1e308, "zeta": 0, "L": 0.0625}}, "G", "[0.0, 1.0]"),
    ]
    for change, name, interval in cases:
        raw = copy.deepcopy(cli.EXAMPLE_PROBLEM)
        raw.update(change)
        path = _write_problem(tmp_path, raw)
        for extra in ([], ["--json"]):
            rc = cli.main(["check", path, "--nodes", "64"] + extra)
            captured = capsys.readouterr()
            assert rc == cli.EXIT_NO_CONVERGENCE, name
            assert captured.out == ""
            assert captured.err == (f"evaluation failed: constant {name} "
                                    f"overflows on [a, b] = {interval}\n")


@pytest.mark.parametrize("name", ["f", "bounds.eta"])
def test_check_overflowing_weighted_sup_exit(tmp_path, capsys, name):
    # (t-a)^(1-gamma) * 1e308 overflows once b - a > 1; the sup must not
    # turn into an infinite norm that certifies Schaefer
    raw = copy.deepcopy(cli.EXAMPLE_PROBLEM)
    raw["b"] = 10.0
    if name == "f":
        raw["f"] = "1e308"
    else:
        raw["bounds"]["eta"] = "1e308"
    path = _write_problem(tmp_path, raw)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(["check", path, "--json", "--nodes", "64"])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_NO_CONVERGENCE
    assert captured.out == ""
    assert captured.err == (f"evaluation failed: weighted sup of {name} "
                            "overflows on [a, b] = [0.0, 10.0]\n")


def test_check_estimated_growth_overflow_exit(tmp_path, capsys):
    # with no bounds, the growth estimate multiplies the weight into
    # |f| = 1e308 first; it must leave the overflow to the sup of f
    raw = copy.deepcopy(cli.EXAMPLE_PROBLEM)
    del raw["bounds"]
    raw.update(b=10.0, f="1e308*(1+0*z)")
    path = _write_problem(tmp_path, raw)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(["check", path, "--json", "--nodes", "64",
                       "--trust-estimates"])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_NO_CONVERGENCE
    assert captured.out == ""
    assert captured.err == ("evaluation failed: weighted sup of f overflows "
                            "on [a, b] = [0.0, 10.0]\n")


def test_check_overflowing_radius_exit(tmp_path, capsys):
    # eta = 1e308 keeps eta_norm and ell finite on [0, 1], but B > 1 takes
    # the Schaefer radius bc + B eta_norm to inf, which must not certify
    raw = copy.deepcopy(cli.EXAMPLE_PROBLEM)
    raw["bounds"]["eta"] = "1e308"
    path = _write_problem(tmp_path, raw)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(["check", path, "--json", "--nodes", "64"])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_NO_CONVERGENCE
    assert captured.out == ""
    assert captured.err == ("evaluation failed: radius schaefer overflows "
                            "on [a, b] = [0.0, 1.0]\n")


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


@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_unwritable_out_is_input_error(example_file, tmp_path, capsys, where):
    """An --out path in a missing directory, or naming a directory, exits 1
    with one error line, as an unreadable problem file does."""
    out = tmp_path / "no" / "such" / "z.csv" if where == "missing-dir" \
        else tmp_path
    rc = cli.main(["solve", example_file, "--nodes", "64", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_INPUT
    assert err.startswith(f"error: cannot write {out}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_unknown_flag_and_no_args(capsys):
    assert cli.main(["solve", "x.json", "--bogus"]) == cli.EXIT_INPUT
    assert cli.main([]) == cli.EXIT_INPUT
    capsys.readouterr()


def test_solve_one_panel_is_input_error(example_file, capsys):
    rc = cli.main(["solve", example_file, "--nodes", "1"])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_INPUT
    assert "at least 2 panels" in err


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


def test_example_command(capsys):
    rc = cli.main(["example", "--nodes", "512"])
    out = capsys.readouterr().out
    assert rc == cli.EXIT_OK
    assert "reference[G] = 0.19" in out
    assert "report[unique] = True" in out
    assert "solve[converged] = True" in out


def test_example_json(capsys):
    rc = cli.main(["example", "--nodes", "512", "--json"])
    data = json.loads(capsys.readouterr().out)
    assert rc == cli.EXIT_OK
    assert set(data) == {"report", "reference", "solve"}
    assert data["solve"]["converged"] is True
    assert data["report"]["unique"] is True


def test_parser_keeps_no_state_between_calls(example_file, capsys):
    # the parser is built once per process; other commands and options in
    # between must not change what a later identical call prints
    first = cli.main(["check", example_file]), capsys.readouterr().out
    assert first[0] == cli.EXIT_OK
    assert cli.main(["solve", example_file, "--nodes", "256"]) == cli.EXIT_OK
    assert cli.main(["check", example_file, "--nodes", "64"]) == cli.EXIT_OK
    assert capsys.readouterr().out != first[1]
    assert (cli.main(["check", example_file]), capsys.readouterr().out) == first


def test_example_problem_is_valid():
    spec, solver = cli.problem_from_dict(cli.EXAMPLE_PROBLEM)
    assert spec.gamma == pytest.approx(2.0 / 3.0)
    assert solver["nodes"] == 2048


def _flat(payload, prefix=""):
    for key, v in payload.items():
        name = f"{prefix}[{key}]" if prefix else key
        if isinstance(v, dict):
            yield from _flat(v, name)
        else:
            yield f"{name} = " + ("none" if v is None else repr(v)
                                   if isinstance(v, float) else str(v))


@pytest.mark.parametrize("argv", [
    ["check", "EXAMPLE", "--nodes", "256"],
    ["check", "NO_BOUNDS"],
    ["solve", "EXAMPLE", "--nodes", "256"],
    ["solve", "DIVERGING"],
    ["example", "--nodes", "256"],
], ids=["check", "check-no-bounds", "solve", "solve-diverged", "example"])
def test_text_lines_are_json_leaves(tmp_path, capsys, argv):
    # text and --json print one payload: each text line is one JSON leaf
    diverging = _no_bounds_problem()
    diverging["f"] = "100*z"
    files = {"EXAMPLE": cli.EXAMPLE_PROBLEM, "NO_BOUNDS": _no_bounds_problem(),
             "DIVERGING": diverging}
    argv = [_write_problem(tmp_path, files[a]) if a in files else a
            for a in argv]
    rc_text = cli.main(argv)
    text = capsys.readouterr().out.splitlines()
    rc_json = cli.main(argv + ["--json"])
    data = json.loads(capsys.readouterr().out)
    assert rc_text == rc_json
    if argv[0] == "solve":
        assert text[-1].startswith("# elapsed ")
        text = text[:-1]
    assert sorted(text) == sorted(_flat(data))
