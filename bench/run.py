"""hilferbvp benchmark: one workload per run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the package from ./src and
builds nothing.  Inputs come from --seed only.  Every request's output is
checked against the closed forms in problems.py; a failed check counts in
"failed" and does not stop the run.  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics of a traced run
with --trace 1.  README.md defines every metric.  Scratch files and the
span dump of a traced run go to .bench_out/ in the checkout.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import problems
from tracer import Tracer, assembly_s, layer_metrics, self_times

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
CHILD = BENCH / "child.py"

SIGMA = 1.0 - problems.GAMMA
SETUP_PROBES = 8        # half before the measured phase, half after it
COLD_NODES = 8192       # cold_solve draws N around this, never twice in a run
COLD_BAND = 32
# the in-process workloads make at least 100 requests per untraced run
MIN_REQUESTS = {"cold_solve": 1, "warm_sweep": 100, "check_sampled": 100}
PHASE_CAP_S = 100.0     # keeps a run under three minutes on a slow machine
CHILD_TIMEOUT_S = 150.0
COVERAGE_TOL = 0.10     # layer self times must sum to within 10% of the wall


class BenchError(RuntimeError):
    pass


@dataclass
class Outcome:
    latency_s: float
    ok: bool
    error: float                  # relative to the closed form's scale;
                                  # 1 when the output could not be read
    iterations: int = 0
    ratio: float = 0.0            # largest observed Picard step ratio
    contraction: float = 0.0      # hypcheck's K_con for the problem
    record: dict | None = field(default=None, repr=False)
    csv: Path | None = None       # kept solution file of a baseline request


def child_env(threads: int | None = None) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("HILFER_THREADS", None)
    if threads is not None:
        env["HILFER_THREADS"] = str(threads)
    return env


def probe(mode: str) -> tuple[float, float]:
    """One set-up in a fresh interpreter: (seconds until ready, import s)."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, str(CHILD), "setup", mode],
                          stdout=subprocess.PIPE, env=child_env(),
                          text=True) as proc:
        line = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    if code != 0 or not line:
        raise BenchError(f"set-up probe exited with {code}")
    return setup_s, json.loads(line)["import_s"]


def step_ratio(steps: list[float]) -> float:
    """Largest ratio of consecutive Picard step norms."""
    return max((b / a for a, b in zip(steps, steps[1:]) if a > 0.0),
               default=0.0)


def _distinct_nodes(rng: random.Random):
    """Panel counts near COLD_NODES in seeded order, never repeating; the
    band widens only if a run outlasts it."""
    lo, hi = COLD_NODES - COLD_BAND, COLD_NODES + COLD_BAND
    pool = list(range(lo, hi + 1))
    while True:
        rng.shuffle(pool)
        yield from pool
        lo, hi = lo - COLD_BAND, hi + COLD_BAND
        pool = (list(range(lo, lo + COLD_BAND))
                + list(range(hi - COLD_BAND + 1, hi + 1)))


# ---------------------------------------------------------------- workloads

class ColdSolve:
    """`hilfer solve p.json --out z.csv --json`, each in a fresh process."""

    name = "cold_solve"
    setup = "import"

    def __init__(self, seed: int, workdir: Path, stream: str = "cold_solve"):
        rng = random.Random(f"{stream}:{seed}")
        self.params = problems.sampler(rng)
        self.nodes = _distinct_nodes(rng)
        self.workdir = workdir
        self.count = 0

    def warm_up(self, tracer: Tracer | None) -> None:
        """Nothing to fill: every request starts a fresh interpreter."""

    def draw(self) -> tuple[dict, int]:
        return dict(next(self.params), k=0.0), next(self.nodes)

    def request(self, tracer: Tracer | None, problem=None, threads=None,
                kind: str = "request") -> Outcome:
        prm, n = problem or self.draw()
        self.count += 1
        tag = f"{self.count}"
        pfile = self.workdir / f"p{tag}.json"
        csv = self.workdir / f"z{tag}.csv"
        trace = self.workdir / f"t{tag}.json"
        pfile.write_text(json.dumps(problems.problem_dict(
            prm, problems.f_solve(prm), n, problems.GRADING)))
        spawn = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(CHILD), "cli",
             str(trace) if tracer else "-", repr(spawn),
             "solve", str(pfile), "--out", str(csv), "--json"],
            env=child_env(threads), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S)
        latency = time.monotonic() - spawn
        out = self._verify(proc, prm, n, csv)
        out.latency_s = latency
        if tracer is not None and trace.exists():
            rec = json.loads(trace.read_text())
            rec.update(id=tag, kind=kind, process=f"child-{tag}",
                       wall_s=latency, converged=out.ok,
                       iterations=out.iterations)
            tracer.requests.append(rec)
            out.record = rec
        pfile.unlink()
        trace.unlink(missing_ok=True)
        if kind == "request":
            csv.unlink(missing_ok=True)
        else:
            out.csv = csv
        return out

    @staticmethod
    def _verify(proc, prm, n, csv) -> Outcome:
        """Exit code 0, converged, and every CSV w within ERROR_TOL of w*."""
        try:
            if proc.returncode != 0:
                raise ValueError(f"exit {proc.returncode}: {proc.stderr}")
            res = json.loads(proc.stdout)
            lines = csv.read_text().splitlines()
            if lines[0] != "t,w,z" or len(lines) != n + 2:
                raise ValueError(f"{csv.name}: bad header or row count")
            err = 0.0
            for line in lines[1:]:
                t, w, _ = line.split(",")
                err = max(err, abs(float(w) - problems.w_exact(prm, float(t))))
        except (ValueError, OSError, KeyError) as exc:
            sys.stderr.write(f"cold_solve: {exc}\n")
            return Outcome(0.0, False, 1.0)
        ok = res["converged"] and err <= problems.ERROR_TOL
        return Outcome(0.0, ok, err / problems.amplitudes(prm)[1],
                       iterations=res["iterations"],
                       ratio=step_ratio(res["step_norms"]))

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


class WarmSweep:
    """`solve_picard` in process on one grid whose operators are cached."""

    name = "warm_sweep"
    setup = "warm"

    def __init__(self, seed: int, workdir: Path):
        import hilferbvp
        self.hb = hilferbvp
        self.grid = problems.warm_grid(hilferbvp)
        self.tau = self.grid.offsets()
        self.params = problems.sampler(random.Random(f"warm_sweep:{seed}"))
        self.count = 0

    def warm_up(self, tracer: Tracer | None) -> None:
        """The first solve on the grid assembles its operators; it is set-up,
        as in the probes, and not a request."""
        out = self._solve(problems.CANONICAL, tracer, "warmup")
        if not out.ok:
            raise BenchError("warm_sweep: the warm-up solve failed")

    def request(self, tracer: Tracer | None) -> Outcome:
        return self._solve(next(self.params), tracer, "request")

    def _solve(self, prm: dict, tracer: Tracer | None, kind: str) -> Outcome:
        spec = problems.spec(self.hb, prm, problems.f_solve(prm))
        self.count += 1
        solve = self.hb.solve_picard
        if tracer is not None:
            solve = tracer.span("bvpsolve.solve_picard", solve)
            tracer.begin(self.count, kind)
        t0 = time.perf_counter()
        try:
            res = solve(spec, self.grid, tol=problems.TOL,
                        max_iter=problems.MAX_ITER)
        except (ValueError, ArithmeticError) as exc:
            latency = time.perf_counter() - t0
            sys.stderr.write(f"warm_sweep: {exc}\n")
            out = Outcome(latency, False, 1.0)
        else:
            latency = time.perf_counter() - t0
            err = float(abs(res.solution.values
                            - problems.w_exact(prm, self.tau)).max())
            out = Outcome(latency, res.converged and err <= problems.ERROR_TOL,
                          err / problems.amplitudes(prm)[1],
                          iterations=res.iterations,
                          ratio=step_ratio(res.step_norms),
                          contraction=problems.contraction_exact(prm, prm["k"]))
        if tracer is not None:
            out.record = tracer.end(latency)
            out.record.update(converged=out.ok, iterations=out.iterations)
        return out

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class CheckSampled:
    """`hilfer check p.json --json --trust-estimates` in process, no bounds."""

    name = "check_sampled"
    setup = "import"

    def __init__(self, seed: int, workdir: Path, stream: str = "check_sampled"):
        from hilferbvp import cli
        self.cli = cli
        self.params = problems.sampler(random.Random(f"{stream}:{seed}"))
        self.pfile = workdir / "check.json"
        self.count = 0

    def warm_up(self, tracer: Tracer | None) -> None:
        """Nothing to fill: a check keeps no state between calls."""

    def request(self, tracer: Tracer | None, kind: str = "request") -> Outcome:
        prm = next(self.params)
        self.pfile.write_text(json.dumps(
            problems.problem_dict(prm, problems.f_check(prm))))
        self.count += 1
        main = self.cli.main
        if tracer is not None:
            main = tracer.span("cli.main", main)
            tracer.begin(self.count, kind)
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = main(["check", str(self.pfile), "--json", "--trust-estimates"])
        latency = time.perf_counter() - t0
        out = self._verify(code, buf.getvalue(), prm)
        out.latency_s = latency
        if tracer is not None:
            out.record = tracer.end(latency)
        return out

    @staticmethod
    def _verify(code: int, text: str, prm: dict) -> Outcome:
        """Estimated L in [0.99k, k], N in [0.99s, s], K_con exact for that L."""
        try:
            if code != 0:
                raise ValueError(f"exit {code}")
            rep = json.loads(text)
            lips, n_bound, k_con = (rep["resolved"]["L"],
                                    rep["resolved"]["N_bound"], rep["K_con"])
        except (ValueError, KeyError, TypeError) as exc:
            sys.stderr.write(f"check_sampled: {exc}\n")
            return Outcome(0.0, False, 1.0)
        k, s = prm["k"], prm["s"]
        slack = 1.0 + 1e-12
        k_lips = problems.contraction_exact(prm, lips)
        ok = (0.99 * k <= lips <= k * slack
              and 0.99 * s <= n_bound <= s * slack
              and abs(k_con - k_lips) <= 1e-12 * k_lips)
        k_true = problems.contraction_exact(prm, k)
        err = max(abs(lips - k) / k, abs(n_bound - s) / s,
                  abs(k_con - k_true) / k_true)
        return Outcome(0.0, ok, err, contraction=k_con)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


WORKLOADS = {w.name: w for w in (ColdSolve, WarmSweep, CheckSampled)}


# -------------------------------------------------------------------- runs

def phase(wl, seconds: float, min_requests: int) -> list[Outcome]:
    """Closed loop, one request at a time.  It stops once `min_requests`
    have completed and the next request, as long as the last one, would end
    after `seconds`."""
    outs: list[Outcome] = []
    t0 = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t0
        if elapsed >= PHASE_CAP_S or (
                len(outs) >= min_requests
                and elapsed + outs[-1].latency_s > seconds):
            return outs
        outs.append(wl.request(None))


def end_to_end(wl, seconds: float) -> tuple[list[Outcome], dict]:
    """The gated latency is the fastest request's.  On a shared host,
    interference only adds time, and it comes in phases of up to minutes
    that moved the median latency of whole runs by up to 1.75x; the fastest
    request of a run moves far less.  The median and the rate are printed
    for reference."""
    wl.warm_up(None)
    outs = phase(wl, seconds, MIN_REQUESTS[wl.name])
    lat = [o.latency_s for o in outs]
    sys.stderr.write(f"{wl.name}: median latency {statistics.median(lat):.4g} s, "
                     f"{len(lat) / sum(lat):.4g} requests/s\n")
    return outs, {
        "latency_min_s": (min(lat), "s"),
        "peak_rss_mb": (wl.peak_rss_mb(), "MB"),
        "error_max": (max(o.error for o in outs), "ratio"),
    }


def baseline(workdir: Path, seed: int) -> tuple[list[Outcome], dict]:
    """One cold_solve request under the default thread count and under
    HILFER_THREADS=1; their CSVs must be byte-identical."""
    cold = ColdSolve(seed, workdir / "baseline", stream="baseline")
    cold.workdir.mkdir()
    problem = cold.draw()
    tracer = Tracer()
    pair = [cold.request(tracer, problem, threads, kind="baseline")
            for threads in (None, 1)]
    texts = [o.csv.read_bytes() if o.csv.exists() else b"" for o in pair]
    if not texts[0] == texts[1] != b"":
        sys.stderr.write("baseline: HILFER_THREADS=1 CSV differs\n")
        pair[1].ok = False
    default_s, single_s = (assembly_s(o.record) if o.record else 0.0
                           for o in pair)
    return pair, {
        "fracops.assemble_1thread_s": single_s,
        "fracops.assemble_parallel_speedup":
            single_s / default_s if default_s else 0.0,
    }


def error_against_cost() -> tuple[bool, list[dict], dict]:
    """The k = 0 problem on nine meshes in one child process."""
    proc = subprocess.run([sys.executable, str(CHILD), "errcost"],
                          env=child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(f"errcost: exit {proc.returncode}: {proc.stderr}\n")
        return False, [], {f"fracops.observed_order.q{q}": 0.0
                            for q in (1, 2, 3)}
    rows = json.loads(proc.stdout)
    err = {(r["grading"], r["nodes"]): r["error"] for r in rows}
    orders = {f"fracops.observed_order.q{q}":
              math.log2(err[(float(q), 1024)] / err[(float(q), 2048)])
              for q in (1, 2, 3)}
    ok = all(r["converged"] and math.isfinite(r["error"]) for r in rows)
    return ok, rows, orders


def traced(name: str, seconds: float, workdir: Path, seed: int):
    """Half the time untraced, then the same inputs again traced, so that
    each traced request has an untraced twin for the overhead."""
    tracer = Tracer()
    wl = WORKLOADS[name](seed, workdir)
    uninstall = tracer.install()
    try:
        wl.warm_up(tracer)
    finally:
        uninstall()
    plain = phase(wl, seconds / 2, 1)
    twin = WORKLOADS[name](seed, workdir)
    uninstall = tracer.install()
    try:
        outs = [twin.request(tracer) for _ in plain]
    finally:
        uninstall()

    ratios = []
    for o in outs:
        if o.record is None:
            o.ok = False
            continue
        ratio = sum(self_times(o.record).values()) / o.record["wall_s"]
        ratios.append(ratio)
        if abs(ratio - 1.0) > COVERAGE_TOL:
            sys.stderr.write(f"trace: layer self times cover {ratio:.3f} "
                             f"of request {o.record['id']}\n")
            o.ok = False

    # The same side requests in every traced run: a cold CLI solve under
    # the default pool and under HILFER_THREADS=1, the error-against-cost
    # table, and one check.  A per-layer figure that the workload's own
    # requests leave at 0, because they never enter that code, is taken
    # from the side requests, so that every figure is measured on every
    # workload.
    side, base_metrics = baseline(workdir, seed)
    errcost_ok, rows, orders = error_against_cost()
    uninstall = tracer.install()
    try:
        side.append(CheckSampled(seed, workdir, stream="side")
                    .request(tracer, kind="side"))
    finally:
        uninstall()
    metrics = layer_metrics(tracer.requests, problems.ALPHA, SIGMA)
    for o in (side[0], side[2]):
        if o.record:
            alone = layer_metrics([dict(o.record, kind="request")],
                                  problems.ALPHA, SIGMA)
            metrics = {k: v or alone[k] for k, v in metrics.items()}
    metrics.update(base_metrics)
    metrics.update(orders)
    metrics.update({
        "bvpsolve.observed_ratio": statistics.median(o.ratio for o in outs),
        "hypcheck.K_con": statistics.median(o.contraction for o in outs),
        "trace.overhead_ratio": statistics.median(
            o.latency_s / u.latency_s for o, u in zip(outs, plain)) - 1.0,
        "trace.self_sum_ratio_min": min(ratios, default=0.0),
    })
    OUT.mkdir(exist_ok=True)
    (OUT / f"trace-{name}-seed{seed}.json").write_text(json.dumps({
        "workload": name, "seed": seed, "metrics": metrics,
        "error_against_cost": rows, "requests": tracer.requests,
        "side": [o.record for o in side]}))
    outcomes = plain + outs + side
    attempted = len(outcomes) + 1
    failed = sum(not o.ok for o in outcomes) + (not errcost_ok)
    return attempted, failed, metrics


PER_LAYER_UNITS = [
    ("fracops.assemble_s.I_alpha", "s"), ("fracops.assemble_s.I_bdry", "s"),
    ("fracops.assemble_s.I_sigma", "s"), ("fracops.operator_bytes", "bytes"),
    ("fracops.matvec.calls", "count"), ("fracops.matvec_s", "s"),
    ("fracops.matvec_flops", "flop"), ("fracops.cache_hit_ratio", "ratio"),
    ("fracops.assemble_1thread_s", "s"),
    ("fracops.assemble_parallel_speedup", "ratio"),
    ("fracops.observed_order.q1", "order"),
    ("fracops.observed_order.q2", "order"),
    ("fracops.observed_order.q3", "order"),
    ("exprlang.evaluate.calls", "count"), ("exprlang.evaluate.rhs_s", "s"),
    ("exprlang.evaluate.estimator_s", "s"), ("exprlang.parse.calls", "count"),
    ("exprlang.parse_s", "s"),
    ("hypcheck.applicability_report_s", "s"),
    ("hypcheck.estimate_lipschitz_s", "s"),
    ("hypcheck.estimate_growth_s", "s"), ("hypcheck.weighted_sup_s", "s"),
    ("hypcheck.K_con", "ratio"),
    ("bvpsolve.iterations", "count"), ("bvpsolve.apply_T.calls", "count"),
    ("bvpsolve.apply_T.self_s", "s"), ("bvpsolve.residual_s", "s"),
    ("bvpsolve.solve_picard_s", "s"), ("bvpsolve.observed_ratio", "ratio"),
    ("gridfn.write_csv_s", "s"), ("gridfn.csv_bytes", "bytes"),
    ("cli.load_problem_s", "s"), ("specfun.gamma.calls", "count"),
    ("proc.import_s", "s"),
    ("trace.overhead_ratio", "ratio"), ("trace.self_sum_ratio_min", "ratio"),
]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "hilferbvp" / "__init__.py").is_file():
        print(f"error: no hilferbvp package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("HILFER_THREADS", None)

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        cls = WORKLOADS[args.workload]
        probes = [probe(cls.setup) for _ in range(SETUP_PROBES // 2)]
        if args.trace:
            attempted, failed, layers = traced(args.workload, args.seconds,
                                               workdir, args.seed)
        else:
            outs, metrics = end_to_end(cls(args.seed, workdir), args.seconds)
            attempted, failed = len(outs), sum(not o.ok for o in outs)
        probes += [probe(cls.setup) for _ in range(SETUP_PROBES // 2)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.trace:
        layers["proc.import_s"] = statistics.median(p[1] for p in probes)
        metrics = {name: (layers[name], unit) for name, unit in PER_LAYER_UNITS}
    else:
        metrics["setup_s"] = (statistics.median(p[0] for p in probes), "s")

    sys.stderr.write(f"{args.workload}: {attempted} attempted, {failed} failed, "
                     f"failed_ratio {failed / attempted:.4g}\n")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
