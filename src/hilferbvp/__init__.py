"""Weighted-space solver for Hilfer fractional boundary value problems.

The problem class: D^(alpha,beta) z = f(t, z) on (a, b] with the weighted
boundary condition c * I^(1-gamma) z(a+) + d * I^(1-gamma) z(b) = e, where
D^(alpha,beta) is the two-parameter fractional derivative interpolating
the Riemann-Liouville (beta = 0) and Caputo (beta = 1) forms and
gamma = alpha + beta (1 - alpha).

The solver works in the weighted space where (t-a)^(1-gamma) z is
continuous: it converts the problem to its equivalent integral fixed-point
form, discretizes the Riemann-Liouville integrals by product integration on
a graded mesh, and iterates.  A separate checker evaluates the constants
behind three fixed-point existence theorems and reports which of them
certify a solution (and whether it is unique).
"""
from .bvpsolve import (Bounds, DegenerateBoundary, ProblemSpec, SolveResult,
                       apply_T, boundary_functional, boundary_term,
                       solve_picard)
from .exprlang import EvalError, Expr, ParseError, UnknownIdentifier, parse
from .fracops import (OrderError, hilfer_derivative, hilfer_gamma, power_rule,
                      rl_integral)
from .gridfn import (Grid, GridError, WeightedGridFunction, weighted_norm,
                     write_csv)
from .hypcheck import (HypothesisReport, applicability_report, compute_B,
                       compute_G, compute_Lambda, compute_Omega, compute_W,
                       compute_contraction, compute_ell, estimate_growth,
                       estimate_lipschitz)
from .specfun import PoleError, beta, gamma

__version__ = "0.1.0"

__all__ = [
    "Bounds", "DegenerateBoundary", "ProblemSpec", "SolveResult",
    "apply_T", "boundary_functional", "boundary_term", "solve_picard",
    "EvalError", "Expr", "ParseError", "UnknownIdentifier", "parse",
    "OrderError", "hilfer_derivative", "hilfer_gamma", "power_rule",
    "rl_integral",
    "Grid", "GridError", "WeightedGridFunction", "weighted_norm", "write_csv",
    "HypothesisReport", "applicability_report", "compute_B", "compute_G",
    "compute_Lambda", "compute_Omega", "compute_W", "compute_contraction",
    "compute_ell", "estimate_growth", "estimate_lipschitz",
    "PoleError", "beta", "gamma",
    "__version__",
]
