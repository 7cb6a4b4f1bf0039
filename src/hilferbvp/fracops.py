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

The result is linear in the w vector: one builder, _block, gives any
sub-block of the operator matrix from the rules above.  All the Gauss rules
come from one Golub-Welsch in numpy.  Each (grid, mu, sigma) gets one
operator, cached and reused, so a fixed-point iteration costs one
matrix-vector product per step.  The operator is stored as a HODLR matrix
(hierarchically off-diagonal low-rank).  A grid of at most LEAF nodes is one
exact dense leaf; a larger one is halved until each piece holds at most
LEAF // 2 nodes, each diagonal leaf is stored dense, and each strictly-lower
off-diagonal block as U @ V.T truncated to ACA_TOL.  A factor column whose
singular value is at most _F32_CUT = ACA_TOL / (2 eps32) ~ 4.2e-6 of the
block's largest, s1, is stored in float32, which costs it at most ACA_TOL s1
/ 4; that part of U is divided by s1, and a matvec divides x by max|x| before
its float32 products and multiplies them back by s1 max|x|, so no interval,
order or input can under- or overflow float32.  A block next to a leaf
is sampled whole and truncated by SVD; a larger one is built by adaptive
cross approximation from a few sampled rows and columns.  The accepted
crosses are the rows of two arrays, so each ACA residual update is one BLAS
product, and each build makes one quadrature table (offsets, panel points
and weights, output weighting) that all its samples read.  Blocks above the
diagonal are zero, since the operator is a Volterra one.  Beyond one leaf no
(N+1)^2 array is formed; the whole matrix exists only as the test oracle.
A value needed only at t = b (rl_integral_end) comes from the last row
alone, also cached.  Output weighting: sigma_out = max(sigma - mu, 0); the
node-0 value is w_0 Gamma(1-sigma)/Gamma(1-sigma+mu) if sigma >= mu, else 0.

hilfer_derivative composes I^(beta(1-alpha)) D I^((1-beta)(1-alpha)) for
g.sigma <= (1-beta)(1-alpha), where the inner integral u stays bounded.  D
is one rule: second-order np.gradient differences of u's unweighted samples
on nodes 1..N, extrapolated linearly to node 0.  It is a verification tool:
the solver itself never differentiates.
"""
from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gridfn import Grid, WeightedGridFunction
from .specfun import beta as beta_fn
from .specfun import gamma

__all__ = [
    "OrderError", "rl_integral", "rl_integral_end", "power_rule",
    "hilfer_derivative", "hilfer_gamma",
]


N_GL = 6  # Gauss-Legendre points per interior panel
N_GJ = 8  # Gauss-Jacobi points on the singular panels
LEAF = 128       # largest diagonal block of the operator stored dense
ACA_TOL = 1e-12  # relative accuracy of each low-rank off-diagonal block
_F32_CUT = ACA_TOL / (2.0 * np.finfo(np.float32).eps)  # float32 column cut


class OrderError(ValueError):
    """Fractional order outside the supported range."""


def hilfer_gamma(alpha: float, beta: float) -> float:
    """gamma = alpha + beta (1 - alpha) for 0 < alpha < 1, 0 <= beta <= 1."""
    if not 0.0 < alpha < 1.0:
        raise OrderError(f"alpha must be in (0, 1), got {alpha}")
    if not 0.0 <= beta <= 1.0:
        raise OrderError(f"beta must be in [0, 1], got {beta}")
    return alpha + beta * (1.0 - alpha)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)  # cached and shared by every later caller
    return a


@lru_cache(maxsize=16)
def _gauss_jacobi_right(n: int, mu: float):
    """Nodes/weights for int_0^1 (1-v)^(mu-1) g(v) dv by Golub-Welsch: the
    eigenvalues of the Jacobi matrix of (1-x)^(mu-1) on [-1, 1], mapped to
    [0, 1], with weights 1/mu times the squared first eigenvector entries."""
    a = mu - 1.0
    k = np.arange(1, n, dtype=float)
    s = 2.0 * k + a
    diag = -a * np.append(1.0 / (a + 2.0), a / (s * (s + 2.0)))
    off = 2.0 * k * (k + a) / (s * np.sqrt(s * s - 1.0))
    x, vec = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return _frozen((x + 1.0) / 2.0), _frozen(vec[0] ** 2 / mu)


def _gauss_legendre01(n: int):
    """Nodes/weights for int_0^1 g(v) dv: the right rule for mu = 1."""
    return _gauss_jacobi_right(n, 1.0)


def _gauss_jacobi_left(n: int, sigma: float):
    """Nodes/weights for int_0^1 u^(-sigma) g(u) du: the right rule for
    mu = 1 - sigma, reflected."""
    v, w = _gauss_jacobi_right(n, 1.0 - sigma)
    return 1.0 - v, w


# Shared by every sample of one build: offsets tau, panel widths h, panel
# Gauss-Legendre points s (N_GL, panels), weights ws = w h s^(-sigma), rho
_Table = namedtuple("_Table", "grid mu sigma tau h s ws rho")


def _table(grid: Grid, mu: float, sigma: float) -> _Table:
    tau = grid.offsets()
    h = np.diff(tau)
    x, w = _gauss_legendre01(N_GL)
    s = h * x[:, None]  # in place: fewer (N_GL, N) temporaries at the peak
    s += tau[:-1]
    ws = w[:, None] * h
    ws *= s ** (-sigma)
    rho = tau ** max(sigma - mu, 0.0) / gamma(mu)
    return _Table(grid, mu, sigma, tau, h, s, ws, rho)


def _block(grid: Grid, mu: float, sigma: float,
           r0: int, r1: int, c0: int, c1: int) -> np.ndarray:
    """Entries [r0:r1, c0:c1] of the matrix taking stored w values of g to
    stored w values of I^mu g.  The 1/Gamma(mu) factor, the output
    weighting, the node-1 closed form and the node-0 limit are applied."""
    return _sample(_table(grid, mu, sigma), r0, r1, c0, c1)


def _sample(tab: _Table, r0: int, r1: int, c0: int, c1: int) -> np.ndarray:
    """_block from a prebuilt quadrature table."""
    grid, mu, sigma, tau, h, s, ws, rho = tab
    i = np.arange(r0, r1)
    first = 2 if sigma > 0.0 else 1   # targets below are set in closed form
    jmin = first - 1                  # panel 0 has its own rule if sigma > 0
    # panel p adds to its nodes p and p + 1; E[:, k] is node p0 + k
    p0, p1 = max(c0 - 1, 0), min(c1, grid.n_panels)
    E = np.zeros((r1 - r0, p1 - p0 + 1))

    # ---- interior panels jmin..i-2, Gauss-Legendre
    x, _ = _gauss_legendre01(N_GL)
    p = np.arange(p0, p1)
    use = (p >= jmin) & (p <= i[:, None] - 2)                      # (R, P)
    # |t_i - s| > 0 on every panel, so the unused entries stay finite
    kern = np.abs(tau[r0:r1, None, None] - s[:, p0:p1])            # (R, K, P)
    np.power(kern, mu - 1.0, out=kern)
    kern *= ws[:, p0:p1]
    E[:, :-1] += ((1.0 - x) @ kern) * use
    E[:, 1:] += (x @ kern) * use

    # ---- first panel under u^(-sigma), targets beyond it
    if sigma > 0.0 and p0 == 0:
        lo = max(r0, 2)
        u, nu = _gauss_jacobi_left(N_GJ, sigma)
        kern = (tau[lo:r1, None] - h[0] * u) ** (mu - 1.0)
        scale = h[0] ** (1.0 - sigma)
        E[lo - r0:, 0] += scale * (kern @ (nu * (1.0 - u)))
        E[lo - r0:, 1] += scale * (kern @ (nu * u))

    # ---- target-adjacent panel i-1 under (1-v)^(mu-1): rows p0+1..p1 only
    lo, hi = max(r0, first, p0 + 1), min(r1, p1 + 1)
    if lo < hi:
        v, om = _gauss_jacobi_right(N_GJ, mu)
        ir = np.arange(lo, hi)
        hj = h[ir - 1]
        w8 = om * (tau[ir - 1, None] + hj[:, None] * v) ** (-sigma)
        scale = hj ** mu
        E[ir - r0, ir - 1 - p0] += scale * (w8 @ (1.0 - v))
        E[ir - r0, ir - p0] += scale * (w8 @ v)

    if sigma > 0.0 and p0 == 0 and r0 <= 1 < r1:
        # node-1 target: both singularities on one panel; linear interpolant
        # integrates in closed form
        hs = h[0] ** (mu - sigma)
        b1 = beta_fn(1.0 - sigma, mu)
        b2 = beta_fn(2.0 - sigma, mu)
        E[1 - r0, :2] = hs * (b1 - b2), hs * b2

    # output weighting and the 1/Gamma(mu) front factor
    M = E[:, c0 - p0:c1 - p0] * rho[r0:r1, None]
    if sigma >= mu and r0 == 0 and c0 == 0:
        M[0, 0] = gamma(1.0 - sigma) / gamma(1.0 - sigma + mu)
    return M


def _truncated_svd(M: np.ndarray, qu=None, qv=None):
    """(U, V, s1, U32, V32) with U @ V.T + s1 U32 @ V32.T = M (or qu @ M @
    qv.T) less its singular values <= ACA_TOL s1, s1 the largest; float32
    U32, V32 hold the columns with singular values <= _F32_CUT s1."""
    w, s, zt = np.linalg.svd(M, full_matrices=False)
    r = int(np.count_nonzero(s > ACA_TOL * s[0]))
    k = int(np.count_nonzero(s > _F32_CUT * s[0]))
    s1 = float(s[0])
    parts = [w[:, :k] * s[:k], zt[:k].T, w[:, k:r] * (s[k:r] / s1), zt[k:r].T]
    if qu is not None:
        parts = [q @ a for q, a in zip((qu, qv, qu, qv), parts)]
    U, V, U32, V32 = parts  # V is copied below: a view would keep all of zt
    return (_frozen(U), _frozen(np.ascontiguousarray(V)), s1,
            _frozen(U32.astype(np.float32)), _frozen(V32.astype(np.float32)))


def _lowrank(tab: _Table, r0: int, r1: int, c0: int, c1: int):
    """_truncated_svd factors equal to _block(grid, mu, sigma, r0, r1, c0,
    c1) within ACA_TOL relative.  A block with a side of at most
    LEAF // 2 (in _operator, one next to a leaf) is sampled whole and
    truncated by SVD, which there costs less than ACA's ~2r single rows and
    columns (at 128 x 128 the SVD alone costs more).  A larger block comes
    from partial-pivot adaptive cross approximation (Bebendorf 2000),
    recompressed by QR and SVD; the crosses are rows of U and V."""
    if min(r1 - r0, c1 - c0) <= LEAF // 2:
        return _truncated_svd(_sample(tab, r0, r1, c0, c1))
    U, V = np.empty((8, r1 - r0)), np.empty((8, c1 - c0))
    k, norm2 = 0, 0.0
    i, free = 0, np.ones(r1 - r0, dtype=bool)
    while free.any():
        free[i] = False
        a = _sample(tab, r0 + i, r0 + i + 1, c0, c1)[0]
        a -= U[:k, i] @ V[:k]
        j = int(np.argmax(np.abs(a)))
        if a[j] == 0.0:  # row i already reproduced exactly
            break
        v = a / a[j]
        u = _sample(tab, r0, r1, c0 + j, c0 + j + 1)[:, 0]
        u -= V[:k, j] @ U[:k]
        step2 = (u @ u) * (v @ v)
        norm2 += step2 + 2.0 * ((U[:k] @ u) @ (V[:k] @ v))
        if k == len(U):
            U, V = (np.concatenate([X, np.empty_like(X)]) for X in (U, V))
        U[k], V[k] = u, v
        k += 1
        if step2 <= ACA_TOL ** 2 * norm2:
            break
        i = int(np.argmax(np.where(free, np.abs(u), -1.0)))
    qu, ru = np.linalg.qr(U[:k].T)
    qv, rv = np.linalg.qr(V[:k].T)
    return _truncated_svd(ru @ rv.T, qu, qv)


@dataclass(frozen=True, eq=False)
class HODLR:
    """Square Volterra matrix stored hierarchically: dense diagonal leaves
    (lo, hi, D) cover every row, and each strictly-lower off-diagonal block
    (r0, r1, c0, c1, U, V, s1, U32, V32) is U @ V.T + s1 U32 @ V32.T.
    Blocks above the diagonal are zero."""

    n: int
    leaves: tuple
    factors: tuple

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        y = np.empty(self.n)
        for lo, hi, D in self.leaves:
            y[lo:hi] = D @ x[lo:hi]
        m = float(np.abs(x).max())  # NaN or inf if x is: y is non-finite too
        x32 = (x / (m or 1.0)).astype(np.float32)  # in range, as U32 = U / s1
        for r0, r1, c0, c1, U, V, s1, U32, V32 in self.factors:
            y[r0:r1] += U @ (V.T @ x[c0:c1])
            y[r0:r1] += (U32 @ (V32.T @ x32[c0:c1])).astype(float) * (s1 * m)
        return y

    @property
    def nbytes(self) -> int:
        return (sum(D.nbytes for *_, D in self.leaves)
                + sum(a.nbytes for *_, U, V, _, U32, V32 in self.factors
                      for a in (U, V, U32, V32)))


@lru_cache(maxsize=8)
def _operator(grid: Grid, mu: float, sigma: float) -> HODLR:
    """Matrix taking stored w values of g to stored w values of I^mu g, as
    a HODLR: a grid of at most LEAF nodes is one dense leaf, and a larger
    one is halved until each piece holds at most LEAF // 2 nodes (half of a
    dense leaf is its zero upper triangle)."""
    tab = _table(grid, mu, sigma)  # freed on return: no closure holds it
    leaf = LEAF if grid.n_nodes <= LEAF else LEAF // 2
    leaves, factors = [], []
    todo = [(0, grid.n_nodes)]     # depth first, lower half first
    while todo:
        lo, hi = todo.pop()
        if hi - lo <= leaf:
            leaves.append((lo, hi, _frozen(_sample(tab, lo, hi, lo, hi))))
            continue
        mid = (lo + hi) // 2
        factors.append((mid, hi, lo, mid, *_lowrank(tab, mid, hi, lo, mid)))
        todo += [(mid, hi), (lo, mid)]
    return HODLR(grid.n_nodes, tuple(leaves), tuple(factors))


@lru_cache(maxsize=8)
def _end_row(grid: Grid, mu: float, sigma: float) -> np.ndarray:
    """The last row of _operator, built alone, 1024 columns at a time so
    no sampled kernel spans the whole row."""
    tab, n = _table(grid, mu, sigma), grid.n_nodes
    return _frozen(np.concatenate([
        _sample(tab, n - 1, n, c, min(c + 1024, n))
        for c in range(0, n, 1024)], axis=1))[0]  # a view cannot be unfrozen


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
    beta = 1 to the Caputo form I^(1-alpha) D.  D takes three-point
    differences of u = I^((1-beta)(1-alpha)) g, unweighted, on nodes 1..N
    and extrapolates linearly to node 0, so the first few nodes are noisy;
    trust the interior.  Raises ValueError below three panels or for
    g.sigma > (1-beta)(1-alpha), where u is unbounded at t = a.
    """
    hilfer_gamma(alpha, beta)  # validates the orders
    nu1 = (1.0 - beta) * (1.0 - alpha)
    nu2 = beta * (1.0 - alpha)
    if g.grid.n_panels < 3:
        raise ValueError("need at least three samples to differentiate")
    if g.sigma - nu1 > 1e-12:
        raise ValueError(f"g.sigma = {g.sigma} exceeds (1-beta)(1-alpha) = "
                         f"{nu1}: the inner integral is unbounded at t = a")

    u = rl_integral(nu1, g) if nu1 > 0.0 else g
    tau = g.grid.offsets()
    inner = np.gradient(u.unweighted(), tau[1:], edge_order=2)
    # linear extrapolation to tau = 0 for the panel-0 contribution
    v0 = (inner[0] * tau[2] - inner[1] * tau[1]) / (tau[2] - tau[1])
    v = WeightedGridFunction(g.grid, 0.0, np.concatenate(([v0], inner)))

    return rl_integral(nu2, v) if nu2 > 0.0 else v
