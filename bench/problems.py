"""Seeded inputs and their closed-form answers.

Every workload uses alpha = 0.5 and beta = 1/3, so gamma = 2/3 and the
weight exponent sigma = 1 - gamma = 1/3.  For

    f(t, z) = s t^(-1/6) + k t^(5/6) sin(z - z*(t)),
    z*(t)   = A t^(-1/3) + C t^(1/3),

the weighted solution is w*(tau) = A + C tau^(2/3) for every k, with

    C = s Gamma(5/6) / Gamma(4/3),
    A = e / (Gamma(gamma) (c + d)) - s d / ((c + d) Gamma(gamma)) Gamma(5/6) / Gamma(5/3).

The answers use math.gamma only, never the package under test.
"""
from __future__ import annotations

import math
import random

ALPHA = 0.5
BETA = 1.0 / 3.0
GAMMA = ALPHA + BETA * (1.0 - ALPHA)

# sampling ranges of the seeded parameters
RANGES = {"c": (0.0, 0.5), "d": (0.5, 1.0), "e": (0.1, 1.0),
          "s": (0.5, 2.0), "k": (0.02, 0.3)}

# c, d, e, s of acceptance criterion 07; k = 0 makes f independent of z
CANONICAL = {"c": 0.25, "d": 0.75, "e": 0.4, "s": 1.0, "k": 0.0}

TOL = 1e-10
MAX_ITER = 200
GRADING = 2.0
WARM_NODES = 2048  # the one grid warm_sweep solves on
ERROR_TOL = 1e-3  # acceptance criterion 07


def amplitudes(prm: dict) -> tuple[float, float]:
    """(A, C) of w*(tau) = A + C tau^(2/3)."""
    c, d, e, s = prm["c"], prm["d"], prm["e"], prm["s"]
    g = math.gamma
    amp_c = s * g(5.0 / 6.0) / g(4.0 / 3.0)
    amp_a = (e / (g(GAMMA) * (c + d))
             - s * d / ((c + d) * g(GAMMA)) * g(5.0 / 6.0) / g(5.0 / 3.0))
    return amp_a, amp_c


def w_exact(prm: dict, tau):
    """Closed-form weighted solution at offsets tau = t - a (array or float)."""
    amp_a, amp_c = amplitudes(prm)
    return amp_a + amp_c * tau ** (2.0 / 3.0)


def contraction_exact(prm: dict, lips: float) -> float:
    """K_con = (d / (c + d)) L / Gamma(3/2) on [0, 1] with alpha = 1/2."""
    return prm["d"] / (prm["c"] + prm["d"]) * lips / math.gamma(1.5)


def f_solve(prm: dict) -> str:
    """Right-hand side whose solution is w*; the sine term vanishes on it."""
    s, k = prm["s"], prm["k"]
    if k == 0.0:
        return f"{s!r}*t^(-1/6)"
    amp_a, amp_c = amplitudes(prm)
    return (f"{s!r}*t^(-1/6) + {k!r}*t^(5/6)"
            f"*sin(z - ({amp_a!r}*t^(-1/3) + {amp_c!r}*t^(1/3)))")


def f_check(prm: dict) -> str:
    """Right-hand side with Lipschitz constant k and growth bound s."""
    return f"{prm['s']!r}*t^(-1/6) + {prm['k']!r}*t^(5/6)*sin(z)"


def problem_dict(prm: dict, f: str, nodes: int | None = None,
                 grading: float | None = None) -> dict:
    """Problem file contents; no bounds, so the checker estimates them."""
    prob = {"alpha": ALPHA, "beta": BETA, "a": 0.0, "b": 1.0,
            "c": prm["c"], "d": prm["d"], "e": prm["e"], "f": f}
    if nodes is not None:
        prob["solver"] = {"nodes": nodes, "grading": grading, "tol": TOL,
                          "max_iter": MAX_ITER}
    return prob


def sampler(rng: random.Random, block: int = 20):
    """Endless parameter draws, stratified in blocks: within each block of
    `block` draws every parameter visits each of `block` equal strata of
    its range once, in seeded order.  Runs of different lengths and seeds
    then see nearly the same spread of parameters, and so of iteration
    counts."""
    while True:
        cols = {}
        for name, (lo, hi) in RANGES.items():
            strata = list(range(block))
            rng.shuffle(strata)
            cols[name] = [lo + (hi - lo) * (j + rng.random()) / block
                          for j in strata]
        for i in range(block):
            yield {name: col[i] for name, col in cols.items()}


def warm_grid(hb):
    """The fixed warm_sweep grid (hb = hilferbvp)."""
    return hb.Grid(0.0, 1.0, WARM_NODES, GRADING)


def spec(hb, prm: dict, f: str):
    """ProblemSpec built through the package's public API (hb = hilferbvp)."""
    return hb.ProblemSpec(alpha=ALPHA, beta=BETA, a=0.0, b=1.0, c=prm["c"],
                          d=prm["d"], e=prm["e"], f=hb.parse(f))
