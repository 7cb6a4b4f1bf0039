"""Spans around calls into hilferbvp's modules, installed from outside.

`install` rebinds public functions at the sites that import them, so only
calls that cross a module boundary are timed.  Calls that happen in tight
loops (expression evaluation, gamma) are not kept as spans: their calls
and time are summed per request and charged to the enclosing span, so the
enclosing span's self time excludes them.  Spans live in memory and are
written out when the benchmark ends.

A span is [name, start, end, parent index, leaf seconds inside it, key].
The layer of a span or counted call is its name up to the first dot.
"""
from __future__ import annotations

import os
import statistics
import time

# (module, attribute, name, how): "span" keeps one span per call, "count"
# sums calls and time per request.
SITES = [
    ("bvpsolve", "rl_integral", "fracops.rl_integral", "span"),
    ("bvpsolve", "apply_T", "bvpsolve.apply_T", "span"),
    ("bvpsolve", "boundary_functional", "bvpsolve.boundary_functional", "span"),
    ("bvpsolve", "gamma_fn", "specfun.gamma", "count"),
    ("cli", "load_problem", "cli.load_problem", "span"),
    ("cli", "solve_picard", "bvpsolve.solve_picard", "span"),
    ("cli", "applicability_report", "hypcheck.applicability_report", "span"),
    ("cli", "write_csv", "gridfn.write_csv", "span"),
    ("hypcheck", "estimate_lipschitz", "hypcheck.estimate_lipschitz", "span"),
    ("hypcheck", "estimate_growth", "hypcheck.estimate_growth", "span"),
    ("hypcheck", "weighted_sup", "hypcheck.weighted_sup", "span"),
    ("hypcheck", "gamma", "specfun.gamma", "count"),
    ("hypcheck", "beta_fn", "specfun.beta", "count"),
    ("fracops", "gamma", "specfun.gamma", "count"),
    ("fracops", "beta_fn", "specfun.beta", "count"),
]

# Modules that reach exprlang through `exprlang.<fn>`.  Their reference is
# replaced by a view with one function counted, so exprlang's own
# recursion through its module global stays untouched and only outermost
# calls are counted.
VIEWS = [
    ("bvpsolve", "evaluate", "exprlang.evaluate.rhs"),
    ("hypcheck", "evaluate", "exprlang.evaluate.estimator"),
    ("cli", "parse", "exprlang.parse"),
]


class _ModuleView:
    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


def _operator_key(args):
    """(n_panels, grading, mu, sigma) of an rl_integral(mu, g) call."""
    mu, g = args[0], args[1]
    return [g.grid.n_panels, g.grid.grading, float(mu), float(g.sigma)]


def _file_bytes(args):
    return os.path.getsize(args[1]) if isinstance(args[1], str) else 0


KEYS = {"fracops.rl_integral": _operator_key, "gridfn.write_csv": _file_bytes}


class Tracer:
    """Collects one record per request: its spans and counted calls."""

    def __init__(self):
        self.requests: list[dict] = []
        self._cur: dict | None = None
        self._stack: list[int] = []

    def begin(self, rid, kind: str = "request", process: str = "main") -> None:
        self._cur = {"id": rid, "kind": kind, "process": process,
                     "spans": [], "leaves": {}, "proc_s": 0.0}
        self._stack = []
        self.requests.append(self._cur)

    def end(self, wall_s: float) -> dict:
        cur, self._cur = self._cur, None
        cur["wall_s"] = wall_s
        return cur

    def span(self, name, fn):
        key_of = KEYS.get(name)

        def traced(*args, **kwargs):
            cur = self._cur
            if cur is None:
                return fn(*args, **kwargs)
            spans = cur["spans"]
            rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else None,
                   0.0, None]
            self._stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()
                if key_of is not None:
                    try:
                        rec[5] = key_of(args)
                    except (IndexError, AttributeError, OSError):
                        pass
        return traced

    def count(self, name, fn):
        def counted(*args, **kwargs):
            cur = self._cur
            if cur is None:
                return fn(*args, **kwargs)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                agg = cur["leaves"].setdefault(name, [0, 0.0])
                agg[0] += 1
                agg[1] += dt
                if self._stack:
                    cur["spans"][self._stack[-1]][4] += dt
        return counted

    def install(self):
        """Rebind the traced sites; returns a function that restores them."""
        import importlib
        undo = []

        def rebind(mod, attr, new):
            undo.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, new)

        for modname, attr, name, how in SITES:
            mod = importlib.import_module(f"hilferbvp.{modname}")
            if hasattr(mod, attr):
                wrap = self.span if how == "span" else self.count
                rebind(mod, attr, wrap(name, getattr(mod, attr)))
        for modname, attr, name in VIEWS:
            mod = importlib.import_module(f"hilferbvp.{modname}")
            ref = getattr(mod, "exprlang", None)
            if ref is not None and hasattr(ref, attr):
                view = ref if isinstance(ref, _ModuleView) else _ModuleView(ref)
                setattr(view, attr, self.count(name, getattr(ref, attr)))
                if view is not ref:
                    rebind(mod, "exprlang", view)

        def uninstall():
            for mod, attr, old in reversed(undo):
                setattr(mod, attr, old)
        return uninstall


# ------------------------------------------------------------- aggregation

def self_times(req: dict) -> dict[str, float]:
    """Self seconds per layer in one request, counted calls and the child
    process's start-up ("proc") included."""
    spans = req["spans"]
    inner = [0.0] * len(spans)
    for name, start, end, parent, leaf_s, key in spans:
        if parent is not None:
            inner[parent] += end - start
    out: dict[str, float] = {}
    for (name, start, end, _, leaf_s, _), kids in zip(spans, inner):
        layer = name.split(".")[0]
        out[layer] = out.get(layer, 0.0) + (end - start) - kids - leaf_s
    for name, (_, secs) in req["leaves"].items():
        layer = name.split(".")[0]
        out[layer] = out.get(layer, 0.0) + secs
    if req["proc_s"]:
        out["proc"] = out.get("proc", 0.0) + req["proc_s"]
    return out


def assembly_s(req: dict) -> float:
    """Seconds in the first rl_integral call per operator of a record from
    a fresh process: assembly plus one matvec each."""
    seen = set()
    total = 0.0
    for name, start, end, _, _, key in req["spans"]:
        if name == "fracops.rl_integral" and key is not None:
            if tuple(key) not in seen:
                seen.add(tuple(key))
                total += end - start
    return total


def operator_label(key, alpha: float, sigma: float) -> str:
    mu, sig = key[2], key[3]
    for label, want in (("I_alpha", alpha), ("I_bdry", sigma + alpha),
                        ("I_sigma", sigma)):
        if abs(mu - want) < 1e-12 and abs(sig - sigma) < 1e-12:
            return label
    return "other"


def _mean(xs) -> float:
    return sum(xs) / len(xs) if xs else 0.0


# per-request sums of whole span durations
INCLUSIVE = {
    "bvpsolve.solve_picard": "bvpsolve.solve_picard_s",
    "bvpsolve.boundary_functional": "bvpsolve.residual_s",
    "gridfn.write_csv": "gridfn.write_csv_s",
    "cli.load_problem": "cli.load_problem_s",
    "hypcheck.applicability_report": "hypcheck.applicability_report_s",
    "hypcheck.estimate_lipschitz": "hypcheck.estimate_lipschitz_s",
    "hypcheck.estimate_growth": "hypcheck.estimate_growth_s",
    "hypcheck.weighted_sup": "hypcheck.weighted_sup_s",
}
# per-request counted calls: (calls metric, seconds metric)
LEAVES = {
    "exprlang.evaluate.rhs": ("exprlang.evaluate.calls", "exprlang.evaluate.rhs_s"),
    "exprlang.evaluate.estimator": ("exprlang.evaluate.calls",
                                    "exprlang.evaluate.estimator_s"),
    "exprlang.parse": ("exprlang.parse.calls", "exprlang.parse_s"),
    "specfun.gamma": ("specfun.gamma.calls", None),
}
PER_REQUEST = sorted(
    {"fracops.matvec.calls", "fracops.matvec_s", "fracops.matvec_flops",
     "bvpsolve.iterations", "bvpsolve.apply_T.calls",
     "bvpsolve.apply_T.self_s", "gridfn.csv_bytes"}
    | set(INCLUSIVE.values())
    | {m for pair in LEAVES.values() for m in pair if m})


def layer_metrics(records: list[dict], alpha: float, sigma: float) -> dict:
    """Per-layer figures over the records of kind "request".

    Counts and times are means per request.  An rl_integral call is an
    assembly when its (grid, mu, sigma) is new to its process, and a
    matvec otherwise.  Records of kind "warmup" add only the operators they
    assemble.
    """
    held: dict[str, set] = {}
    assemble: dict[str, list[float]] = {"I_alpha": [], "I_bdry": [],
                                        "I_sigma": []}
    op_bytes: dict[str, int] = {}
    rows = []
    hits = used = 0
    for req in records:
        if req["kind"] not in ("request", "warmup"):
            continue
        ops = held.setdefault(req["process"], set())
        before = set(ops)
        row = dict.fromkeys(PER_REQUEST, 0.0)
        keys_used = set()
        spans = req["spans"]
        inner = [0.0] * len(spans)
        for _, start, end, parent, _, _ in spans:
            if parent is not None:
                inner[parent] += end - start
        last_apply_t = 0.0
        for (name, start, end, _, leaf_s, key), kids in zip(spans, inner):
            dur = end - start
            if name in INCLUSIVE:
                row[INCLUSIVE[name]] += dur
            elif name == "fracops.rl_integral" and key is not None:
                op, n = tuple(key), key[0] + 1
                keys_used.add(op)
                if op in ops:
                    row["fracops.matvec.calls"] += 1
                    row["fracops.matvec_s"] += dur
                    row["fracops.matvec_flops"] += 2.0 * n * n
                else:
                    ops.add(op)
                    op_bytes[req["process"]] = (op_bytes.get(req["process"], 0)
                                                + 8 * n * n)
                    assemble.get(operator_label(key, alpha, sigma), []).append(dur)
            elif name == "bvpsolve.apply_T":
                row["bvpsolve.apply_T.calls"] += 1
                row["bvpsolve.apply_T.self_s"] += dur - kids - leaf_s
                last_apply_t = dur
            if name == "gridfn.write_csv":
                row["gridfn.csv_bytes"] += key or 0
        # a converged solve ends with one more apply_T for the residual
        if req.get("converged"):
            row["bvpsolve.residual_s"] += last_apply_t
        for name, (calls, secs) in req["leaves"].items():
            metric = LEAVES.get(name)
            if metric:
                row[metric[0]] += calls
                if metric[1]:
                    row[metric[1]] += secs
        if req["kind"] != "request":
            continue
        row["bvpsolve.iterations"] = req.get("iterations", 0)
        hits += len(keys_used & before)
        used += len(keys_used)
        rows.append(row)

    out = {name: _mean([r[name] for r in rows]) for name in PER_REQUEST}
    out.update({f"fracops.assemble_s.{label}": statistics.median(v) if v else 0.0
                for label, v in assemble.items()})
    out["fracops.operator_bytes"] = max(op_bytes.values(), default=0)
    out["fracops.cache_hit_ratio"] = hits / used if used else 0.0
    return out
