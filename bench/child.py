"""Child process of the benchmark, started by run.py with src/ on PYTHONPATH.

    child.py setup import|warm       import the package and, for warm, solve
                                     once on the warm_sweep grid; then print
                                     one JSON line
    child.py cli TRACE SPAWN ARGS... run `hilfer ARGS...`; unless TRACE is "-",
                                     write the request's spans there, taking
                                     SPAWN (time.monotonic of the parent at
                                     spawn) as the start of the process
    child.py errcost                 solve the k = 0 problem on nine meshes;
                                     print the error-against-time table as JSON
"""
from __future__ import annotations

import json
import sys
import time

import problems


def _import_package() -> float:
    t0 = time.perf_counter()
    import hilferbvp  # noqa: F401
    return time.perf_counter() - t0


def setup(mode: str) -> int:
    import_s = _import_package()
    if mode == "warm":
        import hilferbvp as hb
        prm = problems.CANONICAL
        res = hb.solve_picard(problems.spec(hb, prm, problems.f_solve(prm)),
                              problems.warm_grid(hb), tol=problems.TOL,
                              max_iter=problems.MAX_ITER)
        if not res.converged:
            return 3
    print(json.dumps({"import_s": import_s}), flush=True)
    return 0


def cli(trace_path: str, spawn: float, argv: list[str]) -> int:
    _import_package()
    ready = time.monotonic()
    from hilferbvp import cli as hcli
    if trace_path == "-":
        return hcli.main(argv)
    from tracer import Tracer
    tracer = Tracer()
    tracer.install()
    main = tracer.span("cli.main", hcli.main)
    tracer.begin("child", process="child")
    t0 = time.perf_counter()
    code = main(argv)
    rec = tracer.end(time.perf_counter() - t0)
    rec["proc_s"] = ready - spawn
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump(rec, fh)
    return code


def errcost() -> int:
    _import_package()
    import numpy as np
    import hilferbvp as hb
    prm = problems.CANONICAL
    p = problems.spec(hb, prm, problems.f_solve(prm))
    rows = []
    for q in (1.0, 2.0, 3.0):
        for n in (512, 1024, 2048):
            grid = hb.Grid(0.0, 1.0, n, q)
            t0 = time.perf_counter()
            res = hb.solve_picard(p, grid, tol=problems.TOL,
                                  max_iter=problems.MAX_ITER)
            secs = time.perf_counter() - t0
            err = float(np.abs(res.solution.values
                               - problems.w_exact(prm, grid.offsets())).max())
            rows.append({"grading": q, "nodes": n, "time_s": secs,
                         "error": err, "converged": bool(res.converged)})
    print(json.dumps(rows))
    return 0


def main(argv: list[str]) -> int:
    if argv in (["setup", "import"], ["setup", "warm"]):
        return setup(argv[1])
    if argv[:1] == ["cli"] and len(argv) >= 3:
        return cli(argv[1], float(argv[2]), argv[3:])
    if argv == ["errcost"]:
        return errcost()
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
