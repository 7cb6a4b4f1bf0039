"""Exact solutions for f = lambda z, checked against the solver and the
existence certificates.

For f(t, z) = lambda z the weighted solution is

    w(tau) = C E_(alpha,gamma)(lambda tau^alpha),
    C      = e / (c + d E_alpha(lambda (b-a)^alpha)),

with tau = t - a and E the two-parameter Mittag-Leffler function, and no
solution exists where c + d E_alpha(lambda (b-a)^alpha) = 0 (Furati,
Kassim and Tatar, Comput. Math. Appl. 64 (2012) 1616-1626).  E is summed
here from a fixed number of series terms in mpmath, independently of the
package.  For 0 < alpha <= 1 and gamma >= alpha, E_(alpha,gamma) is
monotone on the real line, so |w| is largest at tau = 0 or tau = b - a.
"""

import functools
import math

import mpmath
import numpy as np
import pytest

from hilferbvp import Bounds, Grid, ProblemSpec, applicability_report, parse
from hilferbvp import compute_B, solve_picard

TERMS = 400  # enough for |x| <= 6 at alpha >= 0.5
DPS = 60     # the series cancels to about e^(x^2) at alpha = 1/2


@functools.lru_cache(maxsize=None)
def _coefficients(alpha: float, gam: float) -> tuple:
    with mpmath.workdps(DPS):
        return tuple(1 / mpmath.gamma(alpha * k + gam) for k in range(TERMS))


def mittag_leffler(alpha: float, gam: float, xs) -> list[float]:
    """E_(alpha,gam)(x) for each x in xs, summed from TERMS terms."""
    coef = _coefficients(alpha, gam)
    with mpmath.workdps(DPS):
        out = []
        for x in map(mpmath.mpf, xs):
            assert abs(x) ** (TERMS - 1) * coef[-1] < 1e-30, "series too short"
            acc = mpmath.mpf(0)
            for c in reversed(coef):
                acc = acc * x + c
            out.append(float(acc))
    return out


def exact_w(p: ProblemSpec, lam: float, tau) -> np.ndarray:
    """Weighted solution of D^(alpha,beta) z = lam z at offsets tau."""
    e_end, = mittag_leffler(p.alpha, 1.0, [lam * (p.b - p.a) ** p.alpha])
    amp = p.e / (p.c + p.d * e_end)
    xs = [lam * float(s) ** p.alpha for s in tau]
    return amp * np.array(mittag_leffler(p.alpha, p.gamma, xs))


def test_series_matches_closed_forms():
    # E_(1,1)(x) = exp(x); E_(1/2,1)(x) = exp(x^2) erfc(-x)
    xs = [-3.0, -0.5, 0.0, 1.0, 2.5]
    for x, got in zip(xs, mittag_leffler(1.0, 1.0, xs)):
        assert got == pytest.approx(math.exp(x), rel=1e-14)
    for x, got in zip(xs, mittag_leffler(0.5, 1.0, xs)):
        assert got == pytest.approx(math.exp(x * x) * math.erfc(-x), rel=1e-13)


@pytest.mark.parametrize("lam", [0.5, -0.5])
def test_picard_matches_exact_solution(lam):
    p = ProblemSpec(alpha=0.5, beta=1.0 / 3.0, a=0.0, b=1.0, c=0.25, d=0.75,
                    e=0.4, f=parse(f"{lam!r}*z"))
    grid = Grid(0.0, 1.0, 512, 2.0)
    res = solve_picard(p, grid, tol=1e-12)
    assert res.converged
    idx = np.arange(0, 513, 16)
    want = exact_w(p, lam, grid.nodes[idx] - p.a)
    # measured 4.2e-8 (lam = 0.5) and 9.6e-8 (lam = -0.5)
    assert np.abs(res.solution.values[idx] - want).max() <= 3e-7


def _random_problem(rng, f: str, lo_c: float, bounds=None) -> ProblemSpec:
    return ProblemSpec(alpha=float(rng.uniform(0.5, 0.95)),
                       beta=float(rng.uniform(0.0, 1.0)), a=0.0,
                       b=float(rng.uniform(0.3, 2.0)),
                       c=float(rng.uniform(lo_c, 1.0)),
                       d=float(rng.uniform(0.3, 1.5)),
                       e=float(rng.uniform(-1.0, 1.0)), f=parse(f),
                       bounds=bounds)


def test_radii_contain_solutions():
    """Every radius the report gives contains the solution: the exact one
    for f = lambda z, a Picard solve for f = s cos(3t) + k sin(z), both
    with exact user bounds."""
    rng = np.random.default_rng(20261018)
    checked = 0
    for _ in range(16):
        # lam is drawn so that W = B |lam| falls on both sides of 1
        draw = _random_problem(rng, "0", 0.0)
        lam = float(rng.uniform(-1.25, 1.25)) / compute_B(draw)
        p = ProblemSpec(draw.alpha, draw.beta, draw.a, draw.b, draw.c, draw.d,
                        draw.e, parse(f"{lam!r}*z"),
                        Bounds(N_bound=1e-6, zeta=abs(lam) / 1e-6, L=abs(lam)))
        ends = [0.0, 0.25 * (p.b - p.a), p.b - p.a]
        w_norm = float(np.abs(exact_w(p, lam, ends)).max())
        rep = applicability_report(p, Grid(p.a, p.b, 64, 2.0))
        for radius in rep.radii.values():
            if radius is not None:
                assert w_norm <= radius
                checked += 1
    for _ in range(16):
        s, k = float(rng.uniform(0.0, 2.0)), float(rng.uniform(0.0, 0.6))
        draw = _random_problem(rng, f"{s!r}*cos(3*t) + {k!r}*sin(z)", -0.5)
        p = ProblemSpec(draw.alpha, draw.beta, draw.a, draw.b, draw.c, draw.d,
                        draw.e, draw.f,
                        Bounds(N_bound=(s + k) * (draw.b - draw.a) ** draw.sigma,
                               zeta=0.0, L=k,
                               eta=parse(f"{s!r}*abs(cos(3*t)) + {k!r}")))
        grid = Grid(p.a, p.b, 256, 2.0)
        res = solve_picard(p, grid, tol=1e-10)
        if not res.converged:
            continue
        w_norm = float(np.abs(res.solution.values).max())
        rep = applicability_report(p, grid)
        for radius in rep.radii.values():
            if radius is not None:
                assert w_norm <= radius
                checked += 1
    assert checked >= 40


def test_no_solution_certifies_nothing():
    """Where c + d E_alpha(lambda (b-a)^alpha) = 0 no solution exists, so no
    route may certify one."""
    rng = np.random.default_rng(11)
    lams = [-12.870472838786846]
    probs = [ProblemSpec(alpha=0.5, beta=1.0 / 3.0, a=0.0, b=0.001, c=-0.5,
                         d=0.75, e=0.4, f=parse("0"))]
    for _ in range(6):
        q = float(rng.uniform(0.3, 0.9))
        draw = _random_problem(rng, "0", 0.0)
        with mpmath.workdps(30):
            root = mpmath.findroot(
                lambda x: mittag_leffler(draw.alpha, 1.0, [x])[0] - q,
                (-6.0, 0.0), solver="illinois")
        lams.append(float(root) / (draw.b - draw.a) ** draw.alpha)
        probs.append(ProblemSpec(draw.alpha, draw.beta, draw.a, draw.b,
                                 -q * draw.d, draw.d, draw.e, draw.f))
    for lam, draw in zip(lams, probs):
        p = ProblemSpec(draw.alpha, draw.beta, draw.a, draw.b, draw.c, draw.d,
                        draw.e, parse(f"{lam!r}*z"),
                        Bounds(N_bound=1e-6, zeta=abs(lam) / 1e-6, L=abs(lam)))
        e_end, = mittag_leffler(p.alpha, 1.0, [lam * (p.b - p.a) ** p.alpha])
        assert abs(p.c + p.d * e_end) < 1e-12
        rep = applicability_report(p, Grid(p.a, p.b, 64, 2.0))
        assert rep.radii == {"schauder": None, "krasnoselskii": None,
                             "schaefer": None}
        assert not (rep.schauder_applies or rep.schaefer_applies
                    or rep.krasnoselskii_applies)
