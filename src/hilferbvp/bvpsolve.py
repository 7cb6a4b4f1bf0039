"""Boundary value problem setup and fixed-point solver.

The problem is D^(alpha,beta) z = f(t, z) on (a, b] with the weighted
two-point condition  c * lim_{t->a+} I^(1-gamma) z + d * (I^(1-gamma) z)(b)
= e,  gamma = alpha + beta (1 - alpha).  It is equivalent to the fixed-point
equation z = T z with

  (T z)(t) = (t-a)^(gamma-1)/Gamma(gamma) * e / (d (1 + c/d))
           - (t-a)^(gamma-1) / ((1 + c/d) Gamma(gamma)) * (I^(1-gamma+alpha) F)(b)
           + (I^alpha F)(t),          F(s) = f(s, z(s)),

which is what apply_T evaluates, entirely in weighted samples.  Picard
iteration from the boundary term converges geometrically whenever the
composite Lipschitz constant of T is below one (see hypcheck).
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import exprlang
from .exprlang import Expr
from .fracops import hilfer_gamma, rl_integral, rl_integral_end
from .gridfn import Grid, WeightedGridFunction, weighted_norm
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


def _weighted_rhs(p: ProblemSpec, z: WeightedGridFunction) -> WeightedGridFunction:
    """Weighted samples of F(s) = f(s, z(s)); node 0 by Richardson
    extrapolation from the first two interior nodes."""
    grid = z.grid
    tau = grid.offsets()
    vals = np.empty(grid.n_nodes)
    vals[1:] = tau[1:] ** p.sigma * exprlang.evaluate(
        p.f, grid.nodes[1:], z.unweighted())
    vals[0] = (vals[1] * tau[2] - vals[2] * tau[1]) / (tau[2] - tau[1])
    return WeightedGridFunction(grid, p.sigma, vals)


def apply_T(p: ProblemSpec, z: WeightedGridFunction) -> WeightedGridFunction:
    """One application of the equivalent integral operator, in weighted form."""
    grid = z.grid
    _check_grid(p, grid)
    if abs(z.sigma - p.sigma) > 1e-12:
        raise ValueError(
            f"z carries sigma = {z.sigma}, problem needs {p.sigma}")
    tau = grid.offsets()
    sig = p.sigma

    F = _weighted_rhs(p, z)
    # the end row before I^alpha: a cold solve then peaks lower
    tail = rl_integral_end(sig + p.alpha, F)  # order 1 - gamma + alpha
    i_alpha = rl_integral(p.alpha, F)

    expo = sig - i_alpha.sigma  # alpha when sigma > alpha, else sigma
    w = p.boundary_const - p.resolvent / gamma_fn(p.gamma) * tail \
        + tau ** expo * i_alpha.values
    return WeightedGridFunction(grid, sig, w)


def boundary_functional(p: ProblemSpec, z: WeightedGridFunction) -> float:
    """c * Gamma(gamma) w(a) + d * (I^(1-gamma) z)(b).

    The value at a uses the analytic limit of I^(1-gamma) z, which is
    Gamma(gamma) times the stored weighted limit.
    """
    _check_grid(p, z.grid)
    left = p.c * gamma_fn(p.gamma) * float(z.values[0])
    mu = p.sigma
    if mu == 0.0:
        right = float(z.values[-1])
    else:
        right = rl_integral_end(mu, z)
    return left + p.d * right


def check_settings(tol: float, max_iter: int) -> None:
    """Raise ValueError unless the Picard controls of solve_picard are usable:
    0 < tol < inf and an integer max_iter >= 1."""
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if (isinstance(max_iter, bool) or not isinstance(max_iter, numbers.Integral)
            or max_iter < 1):
        raise ValueError(f"max_iter must be an integer >= 1, got {max_iter!r}")


def _check_finite(z: WeightedGridFunction, iteration: int) -> None:
    for what, v in (("the weighted iterate", z.values),
                     ("its unweighted samples", z.unweighted())):
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
    z = boundary_term(p, grid)
    _check_finite(z, 0)
    steps: list[float] = []
    converged = False
    diverged = False
    growth = 0
    for iteration in range(1, max_iter + 1):
        z_new = apply_T(p, z)
        _check_finite(z_new, iteration)
        step = float(np.abs(z_new.values - z.values).max())
        if steps and step >= DIVERGENCE_FACTOR * steps[-1]:
            growth += 1
        else:
            growth = 0
        steps.append(step)
        z = z_new
        if step <= tol:
            converged = True
            break
        if growth >= 3:
            diverged = True
            break
    if converged:
        vres = weighted_norm(
            WeightedGridFunction(grid, p.sigma, apply_T(p, z).values - z.values))
        bres = abs(boundary_functional(p, z) - p.e)
    else:
        vres = math.nan
        bres = math.nan
    return SolveResult(solution=z, iterations=len(steps), step_norms=steps,
                       converged=converged, diverged=diverged,
                       volterra_residual=vres, boundary_residual=bres)
