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

The result is linear in the w vector, so each (grid, mu, sigma) gets a dense
operator matrix, cached and reused; a fixed-point iteration then costs one
matrix-vector product per step.  Output weighting: sigma_out =
max(sigma - mu, 0), and the stored node-0 value is the analytic limit
w_0 Gamma(1-sigma)/Gamma(1-sigma+mu) when sigma >= mu, else 0.

hilfer_derivative composes integral - derivative - integral,
I^(beta(1-alpha)) D I^((1-beta)(1-alpha)), with three-point finite
differences on the native non-uniform mesh for the middle step.  It is a
verification tool: the solver itself never differentiates.
"""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi

from .gridfn import Grid, WeightedGridFunction
from .specfun import beta as beta_fn
from .specfun import gamma

__all__ = [
    "OrderError", "rl_integral", "power_rule", "hilfer_derivative",
    "hilfer_gamma", "worker_count",
]

_CHUNK = 128


class OrderError(ValueError):
    """Fractional order outside the supported range."""


def hilfer_gamma(alpha: float, beta: float) -> float:
    """gamma = alpha + beta (1 - alpha) for 0 < alpha < 1, 0 <= beta <= 1."""
    if not 0.0 < alpha < 1.0:
        raise OrderError(f"alpha must be in (0, 1), got {alpha}")
    if not 0.0 <= beta <= 1.0:
        raise OrderError(f"beta must be in [0, 1], got {beta}")
    return alpha + beta * (1.0 - alpha)


def worker_count() -> int:
    """Thread count for operator assembly, from HILFER_THREADS (0 = auto)."""
    raw = os.environ.get("HILFER_THREADS", "0")
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(f"HILFER_THREADS must be an integer, got {raw!r}")
    if n < 0:
        raise ValueError(f"HILFER_THREADS must be >= 0, got {n}")
    if n == 0:
        return min(8, os.cpu_count() or 1)
    return n


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


def _assemble_rows(M, rows, tau, h, mu, sigma, gl, gjl, gjr):
    """Fill operator rows for targets i in `rows` (all >= 2, or >= 1 when
    sigma == 0).  Raw integrals only; no 1/Gamma(mu), no output weighting."""
    n_panels = len(h)
    jmin = 1 if sigma > 0.0 else 0
    x_gl, w_gl = gl
    i_arr = np.asarray(rows)

    # ---- interior panels jmin..i-2, Gauss-Legendre
    jmax = int(i_arr.max()) - 2
    if jmax >= jmin:
        js = np.arange(jmin, jmax + 1)
        s_off = tau[js][:, None] + h[js][:, None] * x_gl[None, :]   # (J, K)
        base = w_gl[None, :] * h[js][:, None]
        if sigma > 0.0:
            base = base * s_off ** (-sigma)
        diff = tau[i_arr][:, None, None] - s_off[None, :, :]        # (C, J, K)
        mask = js[None, :] <= (i_arr[:, None] - 2)
        kern = np.where(diff > 0.0, diff, 1.0) ** (mu - 1.0)
        kern *= mask[:, :, None]
        contrib = kern * base[None, :, :]
        c0 = contrib @ (1.0 - x_gl)                                  # (C, J)
        c1 = contrib @ x_gl
        M[np.ix_(i_arr, js)] += c0
        M[np.ix_(i_arr, js + 1)] += c1

    # ---- first panel under u^(-sigma), targets beyond it
    if sigma > 0.0:
        u, nu = gjl
        s_off0 = h[0] * u
        kern = (tau[i_arr][:, None] - s_off0[None, :]) ** (mu - 1.0)
        scale = h[0] ** (1.0 - sigma)
        M[i_arr, 0] += scale * (kern @ (nu * (1.0 - u)))
        M[i_arr, 1] += scale * (kern @ (nu * u))

    # ---- target-adjacent panel under (1-v)^(mu-1)
    v, om = gjr
    hj = h[i_arr - 1]
    s_off = tau[i_arr - 1][:, None] + hj[:, None] * v[None, :]
    w8 = om[None, :] * np.ones_like(s_off)
    if sigma > 0.0:
        w8 = w8 * s_off ** (-sigma)
    scale = hj ** mu
    M[i_arr, i_arr - 1] += scale * (w8 * (1.0 - v)[None, :]).sum(axis=1)
    M[i_arr, i_arr] += scale * (w8 * v[None, :]).sum(axis=1)


@lru_cache(maxsize=8)
def _operator(grid: Grid, mu: float, sigma: float,
              n_gl: int, n_gj: int) -> np.ndarray:
    """Dense matrix taking stored w values of g to stored w values of I^mu g."""
    tau = grid.offsets()
    h = np.diff(tau)
    n = grid.n_nodes
    M = np.zeros((n, n))

    gl = _gauss_legendre01(n_gl)
    gjr = _gauss_jacobi_right(n_gj, mu)
    gjl = _gauss_jacobi_left(n_gj, sigma) if sigma > 0.0 else None

    first = 2 if sigma > 0.0 else 1
    targets = np.arange(first, n)
    if targets.size:
        chunks = [targets[k:k + _CHUNK] for k in range(0, targets.size, _CHUNK)]
        workers = worker_count()
        if workers > 1 and len(chunks) > 1:
            with ThreadPoolExecutor(max_workers=workers) as ex:
                list(ex.map(
                    lambda ch: _assemble_rows(M, ch, tau, h, mu, sigma,
                                              gl, gjl, gjr), chunks))
        else:
            for ch in chunks:
                _assemble_rows(M, ch, tau, h, mu, sigma, gl, gjl, gjr)

    if sigma > 0.0:
        # node-1 target: both singularities on one panel; linear interpolant
        # integrates in closed form
        hs = h[0] ** (mu - sigma)
        b1 = beta_fn(1.0 - sigma, mu)
        b2 = beta_fn(2.0 - sigma, mu)
        M[1, 0] = hs * (b1 - b2)
        M[1, 1] = hs * b2

    # output weighting and the 1/Gamma(mu) front factor
    sigma_out = max(sigma - mu, 0.0)
    rho = np.empty(n)
    rho[1:] = tau[1:] ** sigma_out / gamma(mu)
    rho[0] = 0.0
    M *= rho[:, None]
    if sigma >= mu:
        M[0, 0] = gamma(1.0 - sigma) / gamma(1.0 - sigma + mu)
    M.setflags(write=False)  # cached and shared by every later caller
    return M


def rl_integral(mu: float, g: WeightedGridFunction, *,
                n_gl: int = 6, n_gj: int = 8) -> WeightedGridFunction:
    """Riemann-Liouville integral I^mu g on g's grid.

    Output carries sigma_out = max(g.sigma - mu, 0); its node-0 value is the
    analytic limit (zero once the integral has soaked up the singularity).
    """
    if not 0.0 < mu <= 2.0:
        raise OrderError(f"integral order must be in (0, 2], got {mu}")
    M = _operator(g.grid, float(mu), float(g.sigma), n_gl, n_gj)
    sigma_out = max(g.sigma - mu, 0.0)
    return WeightedGridFunction(g.grid, sigma_out, M @ g.values)


def power_rule(mu: float, p: float, t_minus_a: float) -> float:
    """Closed form I^mu (t-a)^(p-1) = Gamma(p)/Gamma(p+mu) (t-a)^(p+mu-1)."""
    if mu <= 0.0:
        raise OrderError(f"integral order must be positive, got {mu}")
    if p <= 0.0:
        raise OrderError(f"power-rule exponent p must be positive, got {p}")
    if t_minus_a < 0.0:
        raise ValueError(f"t must not precede a, got t - a = {t_minus_a}")
    return gamma(p) / gamma(p + mu) * t_minus_a ** (p + mu - 1.0)


def _diff_nonuniform(tau: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Three-point derivative of samples u at abscissae tau (one-sided at the
    ends, central in between).  Needs len >= 3."""
    n = len(tau)
    if n < 3:
        raise ValueError("need at least three samples to differentiate")
    d = np.empty(n)
    h = np.diff(tau)
    hl, hr = h[:-1], h[1:]
    d[1:-1] = (-hr / (hl * (hl + hr)) * u[:-2]
               + (hr - hl) / (hl * hr) * u[1:-1]
               + hl / (hr * (hl + hr)) * u[2:])
    h1, h2 = h[0], h[1]
    d[0] = (-(2 * h1 + h2) / (h1 * (h1 + h2)) * u[0]
            + (h1 + h2) / (h1 * h2) * u[1]
            - h1 / (h2 * (h1 + h2)) * u[2])
    g1, g2 = h[-2], h[-1]
    d[-1] = (g2 / (g1 * (g1 + g2)) * u[-3]
             - (g1 + g2) / (g1 * g2) * u[-2]
             + (2 * g2 + g1) / (g2 * (g1 + g2)) * u[-1])
    return d


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
        v_vals = _diff_nonuniform(tau, u.values)
    else:
        inner = _diff_nonuniform(tau[1:], u.unweighted())
        v_vals = np.empty(g.grid.n_nodes)
        v_vals[1:] = inner
        # linear extrapolation to tau = 0 for the panel-0 contribution
        v_vals[0] = (inner[0] * tau[2] - inner[1] * tau[1]) / (tau[2] - tau[1])
    v = WeightedGridFunction(g.grid, 0.0, v_vals)

    return rl_integral(nu2, v) if nu2 > 0.0 else v
