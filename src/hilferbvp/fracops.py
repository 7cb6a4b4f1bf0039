"""Fractional integral and derivative operators on graded meshes.

rl_integral computes (I^mu g)(t_i) = 1/Gamma(mu) * int_a^t (t-s)^(mu-1) g(s) ds
by product integration against the piecewise-linear interpolant of the
weighted samples w_j = (s_j - a)^sigma g(s_j).  Panel rules:

  * target-adjacent panel: Gauss-Jacobi in (1 - v)^(mu-1), so the kernel
    singularity at s = t is part of the weight, not the integrand;
  * first panel (sigma > 0): Gauss-Jacobi in u^(-sigma); when the target is
    node 1 both singularities share the panel and the integral of the linear
    interpolant is done in closed form with two Beta values;
  * everything in between: Gauss-Legendre.

The result is linear in the w vector, so every target node has an operator
row, and one builder assembles the rows for any set of targets.  I^mu is the
only whole matrix: each (grid, mu, sigma) gets one, cached and reused, so a
fixed-point iteration costs one matrix-vector product per step.  A value
needed only at t = b (rl_integral_end) comes from the last row alone, also
cached.  Output weighting: sigma_out = max(sigma - mu, 0), and the stored
node-0 value is the analytic limit w_0 Gamma(1-sigma)/Gamma(1-sigma+mu) when
sigma >= mu, else 0.

hilfer_derivative composes integral - derivative - integral,
I^(beta(1-alpha)) D I^((1-beta)(1-alpha)), with second-order np.gradient
differences on the native non-uniform mesh for the middle step.  It is a
verification tool: the solver itself never differentiates.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi

from .gridfn import Grid, WeightedGridFunction
from .specfun import beta as beta_fn
from .specfun import gamma

__all__ = [
    "OrderError", "rl_integral", "rl_integral_end", "power_rule",
    "hilfer_derivative", "hilfer_gamma",
]


N_GL = 6  # Gauss-Legendre points per interior panel
N_GJ = 8  # Gauss-Jacobi points on the singular panels


class OrderError(ValueError):
    """Fractional order outside the supported range."""


def hilfer_gamma(alpha: float, beta: float) -> float:
    """gamma = alpha + beta (1 - alpha) for 0 < alpha < 1, 0 <= beta <= 1."""
    if not 0.0 < alpha < 1.0:
        raise OrderError(f"alpha must be in (0, 1), got {alpha}")
    if not 0.0 <= beta <= 1.0:
        raise OrderError(f"beta must be in [0, 1], got {beta}")
    return alpha + beta * (1.0 - alpha)


def _gauss_legendre01(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return (x + 1.0) / 2.0, w / 2.0


def _gauss_jacobi_right(n: int, mu: float):
    """Nodes/weights for int_0^1 (1-v)^(mu-1) g(v) dv."""
    y, lam = roots_jacobi(n, mu - 1.0, 0.0)
    return (y + 1.0) / 2.0, lam * 2.0 ** (-mu)


def _gauss_jacobi_left(n: int, sigma: float):
    """Nodes/weights for int_0^1 u^(-sigma) g(u) du."""
    x, kap = roots_jacobi(n, 0.0, -sigma)
    return (x + 1.0) / 2.0, kap * 2.0 ** (sigma - 1.0)


def _rows(grid: Grid, mu: float, sigma: float,
          targets: np.ndarray) -> np.ndarray:
    """Operator rows for the node indices `targets`: row r takes
    stored w values of g to the stored w value of I^mu g at node targets[r].
    The 1/Gamma(mu) factor, the output weighting, the node-1 closed form and
    the node-0 limit are applied."""
    tau = grid.offsets()
    h = np.diff(tau)
    M = np.zeros((len(targets), grid.n_nodes))
    first = 2 if sigma > 0.0 else 1   # targets below are set in closed form
    jmin = first - 1                  # panel 0 has its own rule if sigma > 0
    reg = np.flatnonzero(targets >= first)
    i_reg = targets[reg]

    # ---- interior panels jmin..i-2, Gauss-Legendre, one target at a time
    x, w = _gauss_legendre01(N_GL)
    s = tau[:-1, None] + h[:, None] * x[None, :]                   # (N, K)
    base = w[None, :] * h[:, None] * s ** (-sigma)
    hats = np.stack([1.0 - x, x], axis=1)   # left/right hat functions (K, 2)
    for r, i in zip(reg, i_reg):
        if i - 1 > jmin:
            kern = tau[i] - s[jmin:i - 1]                          # (i-1, K)
            np.power(kern, mu - 1.0, out=kern)
            kern *= base[jmin:i - 1]
            c = kern @ hats
            M[r, jmin:i - 1] += c[:, 0]
            M[r, jmin + 1:i] += c[:, 1]

    # ---- first panel under u^(-sigma), targets beyond it
    if sigma > 0.0:
        u, nu = _gauss_jacobi_left(N_GJ, sigma)
        kern = (tau[i_reg][:, None] - h[0] * u[None, :]) ** (mu - 1.0)
        scale = h[0] ** (1.0 - sigma)
        M[reg, 0] += scale * (kern @ (nu * (1.0 - u)))
        M[reg, 1] += scale * (kern @ (nu * u))

    # ---- target-adjacent panel under (1-v)^(mu-1)
    v, om = _gauss_jacobi_right(N_GJ, mu)
    hj = h[i_reg - 1]
    w8 = om * (tau[i_reg - 1][:, None] + hj[:, None] * v[None, :]) ** (-sigma)
    scale = hj ** mu
    M[reg, i_reg - 1] += scale * (w8 @ (1.0 - v))
    M[reg, i_reg] += scale * (w8 @ v)

    if sigma > 0.0:
        # node-1 target: both singularities on one panel; linear interpolant
        # integrates in closed form
        hs = h[0] ** (mu - sigma)
        b1 = beta_fn(1.0 - sigma, mu)
        b2 = beta_fn(2.0 - sigma, mu)
        M[targets == 1, :2] = hs * (b1 - b2), hs * b2

    # output weighting and the 1/Gamma(mu) front factor
    M *= (tau[targets] ** max(sigma - mu, 0.0) / gamma(mu))[:, None]
    if sigma >= mu:
        M[targets == 0, 0] = gamma(1.0 - sigma) / gamma(1.0 - sigma + mu)
    M.setflags(write=False)  # cached and shared by every later caller
    return M


@lru_cache(maxsize=8)
def _operator(grid: Grid, mu: float, sigma: float) -> np.ndarray:
    """Dense matrix taking stored w values of g to stored w values of I^mu g."""
    return _rows(grid, mu, sigma, np.arange(grid.n_nodes))


@lru_cache(maxsize=8)
def _end_row(grid: Grid, mu: float, sigma: float) -> np.ndarray:
    """The last row of _operator, built alone."""
    return _rows(grid, mu, sigma, np.array([grid.n_nodes - 1]))[0]


def _check_order(mu: float) -> None:
    if not 0.0 < mu <= 2.0:
        raise OrderError(f"integral order must be in (0, 2], got {mu}")


def rl_integral(mu: float, g: WeightedGridFunction) -> WeightedGridFunction:
    """Riemann-Liouville integral I^mu g on g's grid.

    Output carries sigma_out = max(g.sigma - mu, 0); its node-0 value is the
    analytic limit (zero once the integral has soaked up the singularity).
    """
    _check_order(mu)
    M = _operator(g.grid, float(mu), float(g.sigma))
    sigma_out = max(g.sigma - mu, 0.0)
    return WeightedGridFunction(g.grid, sigma_out, M @ g.values)


def rl_integral_end(mu: float, g: WeightedGridFunction) -> float:
    """Stored value of I^mu g at t = b: rl_integral(mu, g).values[-1] from
    one quadrature row instead of the whole matrix."""
    _check_order(mu)
    row = _end_row(g.grid, float(mu), float(g.sigma))
    return float(row @ g.values)


def power_rule(mu: float, p: float, t_minus_a: float) -> float:
    """Closed form I^mu (t-a)^(p-1) = Gamma(p)/Gamma(p+mu) (t-a)^(p+mu-1)."""
    if mu <= 0.0:
        raise OrderError(f"integral order must be positive, got {mu}")
    if p <= 0.0:
        raise OrderError(f"power-rule exponent p must be positive, got {p}")
    if t_minus_a < 0.0:
        raise ValueError(f"t must not precede a, got t - a = {t_minus_a}")
    return gamma(p) / gamma(p + mu) * t_minus_a ** (p + mu - 1.0)


def hilfer_derivative(alpha: float, beta: float,
                      g: WeightedGridFunction) -> WeightedGridFunction:
    """Composite derivative I^(beta(1-alpha)) D I^((1-beta)(1-alpha)) g.

    beta = 0 reduces to the Riemann-Liouville derivative D I^(1-alpha),
    beta = 1 to the Caputo form I^(1-alpha) D.  The middle step uses
    three-point differences on the native mesh, so values at the first few
    nodes are noisy; trust the interior.  Verification use only.
    """
    hilfer_gamma(alpha, beta)  # validates the orders
    nu1 = (1.0 - beta) * (1.0 - alpha)
    nu2 = beta * (1.0 - alpha)

    u = rl_integral(nu1, g) if nu1 > 0.0 else g
    tau = g.grid.offsets()

    if u.sigma == 0.0:
        v_vals = np.gradient(u.values, tau, edge_order=2)
    elif g.grid.n_panels < 2:  # np.gradient raises IndexError on one sample
        raise ValueError("need at least three samples to differentiate")
    else:
        inner = np.gradient(u.unweighted(), tau[1:], edge_order=2)
        v_vals = np.empty(g.grid.n_nodes)
        v_vals[1:] = inner
        # linear extrapolation to tau = 0 for the panel-0 contribution
        v_vals[0] = (inner[0] * tau[2] - inner[1] * tau[1]) / (tau[2] - tau[1])
    v = WeightedGridFunction(g.grid, 0.0, v_vals)

    return rl_integral(nu2, v) if nu2 > 0.0 else v
