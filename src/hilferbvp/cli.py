"""Command line interface.

    hilfer check PROBLEM.json [--trust-estimates] [--json] [--nodes N] ...
    hilfer solve PROBLEM.json [--out solution.csv] [--json] [--tol X] ...
    hilfer identities [--tol-scale X]
    hilfer example [--json]

Exit codes: 0 success / a theorem applies; 1 input error (any ValueError);
2 no theorem applies; 3 no convergence, f failed to evaluate, or a constant
or the solution overflowed (any ArithmeticError); 4 an identity failed.

Range rules live with the code that uses each value (ProblemSpec, Bounds,
Grid, bvpsolve.check_settings); problem_from_dict checks only JSON types.

Output is deterministic for identical inputs; the only non-reproducible
lines are timing notes prefixed with '#'.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from . import exprlang
from .bvpsolve import Bounds, ProblemSpec, check_settings, solve_picard
from .fracops import hilfer_derivative, power_rule, rl_integral
from .gridfn import Grid, WeightedGridFunction, write_csv
from .hypcheck import applicability_report
from .specfun import gamma

__all__ = ["main", "load_problem", "EXAMPLE_PROBLEM", "run_identity_battery"]

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NO_THEOREM = 2
EXIT_NO_CONVERGENCE = 3
EXIT_IDENTITY = 4

EXAMPLE_PROBLEM = {
    "alpha": 0.5,
    "beta": 0.3333333333333333,
    "a": 0.0,
    "b": 1.0,
    "c": 0.25,
    "d": 0.75,
    "e": 0.4,
    "f": "t^(-1/6) + (1/16)*t^(5/6)*sin(z)",
    "bounds": {
        "N": 1.0,
        "zeta": 0.0625,
        "L": 0.0625,
        "eta": "t^(-1/6) + (1/16)*t^(5/6)",
    },
    "solver": {"nodes": 2048, "grading": 2.0, "tol": 1e-10, "max_iter": 200},
}

# reference values the built-in example is expected to reproduce
_EXAMPLE_REFERENCE = {"G": 0.19, "W": 0.14, "K_con": 0.05}


class CLIInputError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage, which collides with
    # "no theorem applies"; route usage problems to the input-error code
    def error(self, message):
        raise CLIInputError(message)


# ------------------------------------------------------------ problem files

def _need_number(obj: dict, key: str, ctx: str = "") -> float:
    if key not in obj:
        raise CLIInputError(f"{ctx}{key}: missing required field")
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise CLIInputError(f"{ctx}{key}: must be a number, got {v!r}")
    v = float(v)
    if not math.isfinite(v):
        raise CLIInputError(f"{ctx}{key}: must be finite, got {v!r}")
    return v


def _opt_number(obj: dict, key: str, ctx: str) -> float | None:
    if key not in obj or obj[key] is None:
        return None
    return _need_number(obj, key, ctx)


def _parse_expr_field(text, key: str) -> exprlang.Expr:
    if not isinstance(text, str):
        raise CLIInputError(f"{key}: must be an expression string, got {text!r}")
    try:
        return exprlang.parse(text)
    except exprlang.ParseError as exc:
        raise CLIInputError(f"{key}: {exc}") from exc


def load_problem(path: str) -> tuple[ProblemSpec, dict]:
    """Read a problem file; returns the problem and its solver settings."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise CLIInputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CLIInputError(f"{path}: not valid JSON: {exc}") from exc
    return problem_from_dict(raw)


def problem_from_dict(raw: dict) -> tuple[ProblemSpec, dict]:
    if not isinstance(raw, dict):
        raise CLIInputError("problem file must be a JSON object")
    known = {"alpha", "beta", "a", "b", "c", "d", "e", "f", "bounds", "solver"}
    for key in raw:
        if key not in known:
            raise CLIInputError(f"unknown field {key!r}")

    coeffs = {key: _need_number(raw, key)
              for key in ("alpha", "beta", "a", "b", "c", "d", "e")}
    f = _parse_expr_field(raw.get("f"), "f")

    bounds = None
    if raw.get("bounds") is not None:
        bd = raw["bounds"]
        if not isinstance(bd, dict):
            raise CLIInputError(f"bounds: must be an object, got {bd!r}")
        for key in bd:
            if key not in {"N", "zeta", "L", "eta"}:
                raise CLIInputError(f"bounds.{key}: unknown field")
        eta = None
        if bd.get("eta") is not None:
            eta = _parse_expr_field(bd["eta"], "bounds.eta")
        bounds = Bounds(N_bound=_opt_number(bd, "N", "bounds."),
                        zeta=_opt_number(bd, "zeta", "bounds."),
                        L=_opt_number(bd, "L", "bounds."),
                        eta=eta)

    solver = {"nodes": 2048, "grading": 2.0, "tol": 1e-10, "max_iter": 200,
              "divergence_factor": 1.5}
    if raw.get("solver") is not None:
        sv = raw["solver"]
        if not isinstance(sv, dict):
            raise CLIInputError(f"solver: must be an object, got {sv!r}")
        for key in sv:
            if key not in solver:
                raise CLIInputError(f"solver.{key}: unknown field")
            v = _need_number(sv, key, "solver.")
            if key in ("nodes", "max_iter"):
                if v != int(v):
                    raise CLIInputError(f"solver.{key}: must be an integer, got {v}")
                v = int(v)
            solver[key] = v
    # every subcommand rejects a bad solver section, not only `solve`
    check_settings(solver["tol"], solver["max_iter"], solver["divergence_factor"])
    return ProblemSpec(f=f, bounds=bounds, **coeffs), solver


def _make_grid(p: ProblemSpec, solver: dict, args) -> Grid:
    nodes = args.nodes if args.nodes is not None else solver["nodes"]
    grading = args.grading if args.grading is not None else solver["grading"]
    return Grid(p.a, p.b, int(nodes), float(grading))


# ------------------------------------------------------------------- check

def _fmt(v) -> str:
    if v is None:
        return "none"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def cmd_check(args) -> int:
    p, solver = load_problem(args.problem)
    grid = _make_grid(p, solver, args)
    rep = applicability_report(p, grid, trust_estimates=args.trust_estimates)
    if args.json:
        print(rep.to_json())
    else:
        print(f"interval = [{p.a!r}, {p.b!r}]")
        print(f"alpha = {p.alpha!r}")
        print(f"beta = {p.beta!r}")
        print(f"gamma = {p.gamma!r}")
        for key in ("N_bound", "zeta", "L", "eta"):
            if key in rep.inputs_used:
                val = rep.resolved.get(key)
                src = rep.inputs_used[key]
                print(f"{key} = {_fmt(val)} ({src})" if val is not None
                      else f"{key} = {src}")
        for key in ("G", "Omega", "r", "W", "K_con", "Lambda", "epsilon", "ell"):
            print(f"{key} = {_fmt(getattr(rep, key))}")
        print(f"schauder_applies = {rep.schauder_applies}")
        print(f"schaefer_applies = {rep.schaefer_applies}")
        print(f"krasnoselskii_applies = {rep.krasnoselskii_applies}")
        print(f"unique = {rep.unique}")
        for key in sorted(rep.reasons):
            print(f"note[{key}] = {rep.reasons[key]}")
    ok = rep.schauder_applies or rep.schaefer_applies or rep.krasnoselskii_applies
    return EXIT_OK if ok else EXIT_NO_THEOREM


# ------------------------------------------------------------------- solve

def cmd_solve(args) -> int:
    p, solver = load_problem(args.problem)
    grid = _make_grid(p, solver, args)
    tol = args.tol if args.tol is not None else solver["tol"]
    max_iter = args.max_iter if args.max_iter is not None else solver["max_iter"]
    t0 = time.perf_counter()
    res = solve_picard(p, grid, tol=tol, max_iter=max_iter,
                       divergence_factor=solver["divergence_factor"])
    elapsed = time.perf_counter() - t0
    if args.out:
        write_csv(res.solution, args.out)
    if args.json:
        print(json.dumps(res.to_dict(), sort_keys=True, indent=2))
    else:
        print(f"converged = {res.converged}")
        print(f"diverged = {res.diverged}")
        print(f"iterations = {res.iterations}")
        print(f"final_step = {res.step_norms[-1]!r}")
        print(f"volterra_residual = {res.volterra_residual!r}")
        print(f"boundary_residual = {res.boundary_residual!r}")
        if args.out:
            print(f"solution_csv = {args.out}")
        print(f"# elapsed {elapsed:.3f} s")
    return EXIT_OK if res.converged else EXIT_NO_CONVERGENCE


# --------------------------------------------------------------- identities

def run_identity_battery(tol_scale: float = 1.0) -> list[tuple[str, float, float]]:
    """Run the operator identity suite; returns (name, measured, tolerance)
    triples.  An identity passes when measured <= tolerance."""
    out = []
    grid = Grid(0.0, 1.0, 2048, 2.0)
    tau = grid.offsets()
    i0 = grid.n_panels // 16
    for mu in (0.3, 0.5, 0.8):
        for pp in (0.7, 1.0, 1.5):
            sigma = max(1.0 - pp, 0.0)
            w = np.ones(grid.n_nodes) if pp < 1.0 else tau ** (pp - 1.0)
            g = WeightedGridFunction(grid, sigma, w)
            got = rl_integral(mu, g)
            exact = np.array([power_rule(mu, pp, x) for x in tau[1:]])
            rel = (np.abs(got.unweighted() - exact) / np.abs(exact))[i0 - 1:].max()
            out.append((f"power_rule mu={mu} p={pp}", float(rel), 1e-4 * tol_scale))

    grid1 = Grid(0.0, 1.0, 1024, 2.0)
    g = WeightedGridFunction(grid1, 0.0, np.cos(grid1.offsets()))
    two = rl_integral(0.4, rl_integral(0.6, g))
    one = rl_integral(1.0, g)
    out.append(("semigroup I^0.4 I^0.6 = I^1.0 on cos",
                float(np.abs(two.values - one.values).max()), 1e-3 * tol_scale))
    out.append(("I^1 cos = sin",
                float(np.abs(one.values - np.sin(grid1.nodes)).max()),
                1e-6 * tol_scale))

    grid4 = Grid(0.0, 1.0, 4096, 2.0)
    sq = WeightedGridFunction(grid4, 0.0, grid4.offsets() ** 2)
    exact = 2.0 / gamma(2.5) * grid4.offsets() ** 1.5
    lo, hi = grid4.n_panels // 8, grid4.n_panels * 7 // 8
    for bval, name in ((0.0, "riemann-liouville"), (1.0, "caputo")):
        got = hilfer_derivative(0.5, bval, sq)
        err = float(np.abs(got.values[lo:hi] - exact[lo:hi]).max())
        out.append((f"derivative beta={bval:g} matches {name} form on t^2",
                    err, 1e-2 * tol_scale))

    # node-0 handling: stored limit when sigma >= mu, hard zero otherwise
    gs = WeightedGridFunction(grid1, 0.3, np.ones(grid1.n_nodes))
    lim = rl_integral(0.1, gs).values[0]
    out.append(("node-0 limit, sigma >= mu",
                float(abs(lim - gamma(0.7) / gamma(0.8))), 1e-12 * tol_scale))
    van = rl_integral(0.5, gs).values[0]
    out.append(("node-0 vanishing, sigma < mu", float(abs(van)),
                1e-12 * tol_scale))
    return out


def cmd_identities(args) -> int:
    if not 0.0 < args.tol_scale < math.inf:
        raise CLIInputError(
            f"tol-scale: must be positive and finite, got {args.tol_scale}")
    rows = run_identity_battery(args.tol_scale)
    failures = 0
    for name, measured, tol in rows:
        ok = measured <= tol
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'} {name}: measured = {measured!r}, "
              f"tolerance = {tol!r}")
    print(f"failed = {failures} of {len(rows)}")
    return EXIT_OK if failures == 0 else EXIT_IDENTITY


# ------------------------------------------------------------------ example

def cmd_example(args) -> int:
    p, solver = problem_from_dict(EXAMPLE_PROBLEM)
    grid = _make_grid(p, solver, args)
    rep = applicability_report(p, grid)
    res = solve_picard(p, grid, tol=solver["tol"], max_iter=solver["max_iter"])
    if args.json:
        payload = {"report": json.loads(rep.to_json()),
                   "reference": _EXAMPLE_REFERENCE,
                   "solve": res.to_dict()}
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print("built-in example: f(t, z) = " + EXAMPLE_PROBLEM["f"])
        print("constant   computed                reference")
        for key in ("G", "W", "K_con"):
            print(f"{key:<10} {getattr(rep, key)!r:<23} {_EXAMPLE_REFERENCE[key]}")
        print(f"unique = {rep.unique}")
        print(f"converged = {res.converged}")
        print(f"iterations = {res.iterations}")
        print(f"volterra_residual = {res.volterra_residual!r}")
        print(f"boundary_residual = {res.boundary_residual!r}")
    ok = (res.converged and rep.unique
          and all(abs(getattr(rep, k) - v) < 5e-3
                  for k, v in _EXAMPLE_REFERENCE.items()))
    return EXIT_OK if ok else EXIT_NO_CONVERGENCE


# --------------------------------------------------------------------- main

def _build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="hilfer",
                 description="Weighted-space solver and hypothesis checker "
                             "for Hilfer fractional boundary value problems")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_grid_opts(sp):
        sp.add_argument("--nodes", type=int, default=None,
                        help="mesh panels (default: problem file or 2048)")
        sp.add_argument("--grading", type=float, default=None,
                        help="mesh grading exponent (default 2.0)")

    sp = sub.add_parser("check", help="evaluate hypothesis constants")
    sp.add_argument("problem", help="problem JSON file")
    sp.add_argument("--trust-estimates", action="store_true",
                    help="let sampled estimates certify theorems")
    sp.add_argument("--json", action="store_true")
    add_grid_opts(sp)
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("solve", help="run the fixed-point solver")
    sp.add_argument("problem")
    sp.add_argument("--out", default=None, help="write solution CSV here")
    sp.add_argument("--tol", type=float, default=None)
    sp.add_argument("--max-iter", type=int, default=None)
    sp.add_argument("--json", action="store_true")
    add_grid_opts(sp)
    sp.set_defaults(fn=cmd_solve)

    sp = sub.add_parser("identities", help="verify operator identities")
    sp.add_argument("--tol-scale", type=float, default=1.0,
                    help="multiply every tolerance by this factor")
    sp.set_defaults(fn=cmd_identities)

    sp = sub.add_parser("example", help="run the built-in example problem")
    sp.add_argument("--json", action="store_true")
    add_grid_opts(sp)
    sp.set_defaults(fn=cmd_example)
    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
        return args.fn(args)
    except ValueError as exc:  # every input-error type subclasses it
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ArithmeticError as exc:  # EvalError and float overflow
        print(f"evaluation failed: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
