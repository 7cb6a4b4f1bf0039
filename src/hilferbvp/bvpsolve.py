"""Boundary value problem setup and fixed-point solver.

The problem is D^(alpha,beta) z = f(t, z) on (a, b] with the weighted
two-point condition  c * lim_{t->a+} I^(1-gamma) z + d * (I^(1-gamma) z)(b)
= e,  gamma = alpha + beta (1 - alpha).  It is equivalent to the fixed-point
equation z = T z with

  (T z)(t) = (t-a)^(gamma-1)/Gamma(gamma) * e / (d (1 + c/d))
           - (t-a)^(gamma-1) / ((1 + c/d) Gamma(gamma)) * (I^(1-gamma+alpha) F)(b)
           + (I^alpha F)(t),          F(s) = f(s, z(s)),

which is what apply_T evaluates, entirely in weighted samples.  A solve
builds T's linear part once (_linear) and runs Picard iteration on arrays
from the boundary term: geometric convergence when T contracts (hypcheck).
"""
from __future__ import annotations

import math
import numbers
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from . import exprlang
from .exprlang import Expr
from .fracops import _end_row, _operator, hilfer_gamma
from .gridfn import Grid, WeightedGridFunction
from .specfun import gamma as gamma_fn

__all__ = [
    "Bounds", "ProblemSpec", "SolveResult", "DegenerateBoundary",
    "boundary_term", "apply_T", "boundary_functional", "check_settings",
    "solve_picard",
]

DIVERGENCE_FACTOR = 1.5  # three steps in a row each growing this much: diverged


class DegenerateBoundary(ValueError):
    """Boundary coefficients make the resolvent constant 1/(d (1+c/d)) blow up."""


@dataclass(frozen=True)
class Bounds:
    """Optional user-certified hypothesis constants.

    N_bound, zeta: weighted growth |f| <= N (1 + zeta ||z||); L: Lipschitz
    constant in z; eta: expression in t alone with |f(t, z)| <= eta(t).
    """

    N_bound: float | None = None
    zeta: float | None = None
    L: float | None = None
    eta: Expr | None = None

    def __post_init__(self):
        for key, v in (("N", self.N_bound), ("zeta", self.zeta), ("L", self.L)):
            if v is not None and not 0.0 <= v < math.inf:
                raise ValueError(f"bounds.{key}: must be finite and >= 0, got {v}")
        if self.eta is not None and "z" in exprlang.variables(self.eta):
            raise ValueError("bounds.eta: must not depend on z")


@dataclass(frozen=True)
class ProblemSpec:
    alpha: float
    beta: float
    a: float
    b: float
    c: float
    d: float
    e: float
    f: Expr
    bounds: Bounds | None = None

    def __post_init__(self):
        hilfer_gamma(self.alpha, self.beta)  # validates orders
        for name, v in zip("abcde", (self.a, self.b, self.c, self.d, self.e)):
            if not math.isfinite(v):
                raise ValueError(f"{name}: must be finite, got {v!r}")
        if not self.b > self.a:
            raise ValueError(f"b must exceed a, got [{self.a}, {self.b}]")
        if self.d == 0.0:
            raise DegenerateBoundary("degenerate boundary: d = 0")
        if self.c + self.d == 0.0:
            raise DegenerateBoundary("degenerate boundary: c + d = 0")

    @property
    def gamma(self) -> float:
        return hilfer_gamma(self.alpha, self.beta)

    @property
    def sigma(self) -> float:
        """Weight exponent of the solution space: 1 - gamma."""
        return 1.0 - self.gamma

    @property
    def resolvent(self) -> float:
        """1 / (1 + c/d)."""
        return 1.0 / (1.0 + self.c / self.d)

    @property
    def boundary_const(self) -> float:
        """e / (Gamma(gamma) d (1 + c/d)): the weighted boundary-term value."""
        return self.e / (gamma_fn(self.gamma) * self.d * (1.0 + self.c / self.d))


@dataclass(frozen=True)
class SolveResult:
    solution: WeightedGridFunction
    iterations: int
    step_norms: list[float] = field(repr=False)
    converged: bool = False
    diverged: bool = False
    volterra_residual: float = math.nan
    boundary_residual: float = math.nan

    def to_dict(self) -> dict:
        """The result as JSON-safe values: a non-finite residual is None."""
        def finite(x):
            return x if math.isfinite(x) else None
        return {
            "converged": self.converged,
            "diverged": self.diverged,
            "iterations": self.iterations,
            "step_norms": list(self.step_norms),
            "volterra_residual": finite(self.volterra_residual),
            "boundary_residual": finite(self.boundary_residual),
        }


def boundary_term(p: ProblemSpec, grid: Grid) -> WeightedGridFunction:
    """The f-independent part of T: constant in weighted form."""
    _check_grid(p, grid)
    vals = np.full(grid.n_nodes, p.boundary_const)
    return WeightedGridFunction(grid, p.sigma, vals)


def _check_grid(p: ProblemSpec, grid: Grid) -> None:
    if grid.a != p.a or grid.b != p.b:
        raise ValueError(
            f"grid interval [{grid.a}, {grid.b}] differs from problem "
            f"interval [{p.a}, {p.b}]")
    if grid.n_panels < 2:
        raise ValueError(
            f"need at least 2 panels, got {grid.n_panels}: the right-hand "
            f"side at t = a is extrapolated from two interior nodes")


def _check_weight(p: ProblemSpec, z: WeightedGridFunction) -> None:
    _check_grid(p, z.grid)
    if abs(z.sigma - p.sigma) > 1e-12:
        raise ValueError(f"z carries sigma = {z.sigma}, problem needs {p.sigma}")


# T w = bc - kappa (ell . F) + tau_expo (A F), F = tau_sig f(t, tau_nsig w)
# at 1..N; A = I^alpha; ell, ell_b: t = b rows of I^(sigma+alpha), I^sigma
_Linear = namedtuple(
    "_Linear", "f t tau ell ell_b A kappa bc tau_expo tau_sig tau_nsig")


def _linear(p: ProblemSpec, grid: Grid) -> _Linear:
    _check_grid(p, grid)
    sig, tau = p.sigma, grid.offsets()
    expo = sig - max(sig - p.alpha, 0.0)  # alpha when sigma > alpha, else sigma
    return _Linear(p.f, grid.nodes[1:], tau,  # rows first: lower cold peak
                   _end_row(grid, float(sig + p.alpha), sig),
                   _end_row(grid, sig, sig) if sig > 0.0 else None,
                   _operator(grid, float(p.alpha), sig),
                   p.resolvent / gamma_fn(p.gamma), p.boundary_const,
                   tau ** expo, tau[1:] ** sig, tau[1:] ** -sig)


def _apply(lin: _Linear, w: np.ndarray) -> np.ndarray:
    """T on weighted samples w.  F at node 0 is Richardson-extrapolated from
    the first two interior nodes."""
    F, tau1, tau2 = np.empty(len(w)), lin.tau[1], lin.tau[2]
    F[1:] = lin.tau_sig * exprlang.evaluate(lin.f, lin.t, w[1:] * lin.tau_nsig)
    F[0] = (F[1] * tau2 - F[2] * tau1) / (tau2 - tau1)
    return lin.bc - lin.kappa * float(lin.ell @ F) + lin.tau_expo * (lin.A @ F)


def apply_T(p: ProblemSpec, z: WeightedGridFunction) -> WeightedGridFunction:
    """One application of the equivalent integral operator, in weighted form."""
    _check_weight(p, z)
    return WeightedGridFunction(z.grid, p.sigma,
                                _apply(_linear(p, z.grid), z.values))


def boundary_functional(p: ProblemSpec, z: WeightedGridFunction) -> float:
    """c * Gamma(gamma) w(a) + d * (I^(1-gamma) z)(b).

    The value at a uses the analytic limit of I^(1-gamma) z, which is
    Gamma(gamma) times the stored weighted limit.
    """
    _check_weight(p, z)
    row = _end_row(z.grid, p.sigma, float(z.sigma)) if p.sigma > 0.0 else None
    return _functional(p, row, z.values)


def _functional(p: ProblemSpec, ell_b, w: np.ndarray) -> float:
    right = w[-1] if ell_b is None else ell_b @ w
    return p.c * gamma_fn(p.gamma) * float(w[0]) + p.d * float(right)


def check_settings(tol: float, max_iter: int) -> None:
    """Raise ValueError unless the Picard controls of solve_picard are usable:
    0 < tol < inf and an integer max_iter >= 1."""
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if (isinstance(max_iter, bool) or not isinstance(max_iter, numbers.Integral)
            or max_iter < 1):
        raise ValueError(f"max_iter must be an integer >= 1, got {max_iter!r}")


def _check_finite(lin: _Linear, w: np.ndarray, iteration: int) -> None:
    for what, v in (("the weighted iterate", w),
                     ("its unweighted samples", w[1:] * lin.tau_nsig)):
        if not np.all(np.isfinite(v)):
            raise OverflowError(f"Picard iteration {iteration}: {what} overflowed")


@np.errstate(over="ignore", invalid="ignore")  # _check_finite raises instead
def solve_picard(p: ProblemSpec, grid: Grid, *, tol: float = 1e-10,
                 max_iter: int = 200) -> SolveResult:
    """Picard iteration z <- T z from the boundary term.

    Stops on step norm <= tol (converged), on max_iter, or early when the
    step norm grows by >= DIVERGENCE_FACTOR three times in a row (diverged).
    Residuals are filled only for converged runs.  Raises OverflowError
    when an iterate, or its unweighted samples, stop being finite.
    """
    check_settings(tol, max_iter)
    lin = _linear(p, grid)
    w = np.full(grid.n_nodes, lin.bc)
    _check_finite(lin, w, 0)
    steps: list[float] = []
    converged = diverged = False
    growth = 0
    for iteration in range(1, max_iter + 1):
        w_new = _apply(lin, w)
        _check_finite(lin, w_new, iteration)
        step = float(np.abs(w_new - w).max())
        grew = bool(steps) and step >= DIVERGENCE_FACTOR * steps[-1]
        growth = growth + 1 if grew else 0
        steps.append(step)
        w = w_new
        converged, diverged = step <= tol, growth >= 3  # a growing step > tol
        if converged or diverged:
            break
    vres = bres = math.nan
    if converged:
        vres = float(np.abs(_apply(lin, w) - w).max())
        bres = abs(_functional(p, lin.ell_b, w) - p.e)
    return SolveResult(WeightedGridFunction(grid, p.sigma, w), len(steps),
                       steps, converged, diverged, vres, bres)
