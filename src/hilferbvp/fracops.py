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

The result is linear in the w vector: one sampler, _sample, gives any stack
of equal-shaped sub-blocks of the operator matrix (_block is one) from the
rules above, the kernel laid out (rows, panels, Gauss points) and contracted
once against [1 - x, x], Gauss rules from one Golub-Welsch.  Each (grid, mu,
sigma) gets one cached operator, a HODLR matrix (hierarchically off-diagonal
low-rank), one product per iteration: a grid of n <= LEAF nodes is one dense
leaf; a larger one's N = n - 1 panels are halved d times, d the least with
m = ceil(N / 2^d) <= LEAF // 4, into dense leaves of m nodes, stacked.  Each
level of strictly-lower blocks, s = m, 2m, 4m, ... < n columns wide and
truncated to ACA_TOL, is stacked with ranks padded to its largest, so a
matvec makes one batched product per level and precision (a level's last
block, cut short at n, is a stack of its own).  A factor column whose
singular value is at most _F32_CUT = ACA_TOL / (2 eps32) ~ 4.2e-6 of the
block's largest, s1, is float32, its U part divided by s1, and a matvec
divides x by max|x| first, so nothing under- or overflows.  The leaves and
the blocks of at most LEAF // 2 a side are sampled as stacks, _CHUNK kernel
values a call, with one batched SVD per chunk; a larger block is built from
ACA crosses.  A build reads one table, samples the leaves, then each level,
largest first; beyond one leaf it forms no (N+1)^2 array.  _end_row, also
cached, is the last row alone.  Output: sigma_out = max(sigma - mu, 0); node
0 is w_0 Gamma(1-sigma)/Gamma(1-sigma+mu) if sigma >= mu, else 0.

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
    "OrderError", "rl_integral", "power_rule", "hilfer_derivative",
    "hilfer_gamma",
]


N_GL = 6  # Gauss-Legendre points per interior panel
N_GJ = 8  # Gauss-Jacobi points on the singular panels
LEAF = 128       # largest diagonal block of the operator stored dense
ACA_TOL = 1e-12  # relative accuracy of each low-rank off-diagonal block
_F32_CUT = ACA_TOL / (2.0 * np.finfo(np.float32).eps)  # float32 column cut
_CHUNK = 49152   # most kernel values one stacked sample holds


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


# Shared by every sample of one build: offsets tau and widths h, padded so
# that node i is tau[i + 1] and panel p = -1 .. N starts at tau[p + 1] with
# width h[p + 1] (both pads lie past b, so every kernel is finite); weights
# ws = w h s^(-sigma) at the Gauss-Legendre points s = h x + tau, 0 on the
# pads and, if sigma > 0, on panel 0; rho; W = [1 - x, x], (N_GL, 2)
_Table = namedtuple("_Table", "mu sigma tau h ws rho W")


def _table(grid: Grid, mu: float, sigma: float) -> _Table:
    t = grid.offsets()
    h = np.diff(t)
    tau, h = np.append(t[-1] + h[-1], t), np.concatenate([[0.0], h, h[-1:]])
    x, w = _gauss_legendre01(N_GL)
    ws = np.zeros((len(h), N_GL))
    real = slice(2 if sigma > 0.0 else 1, -1)
    for k in range(N_GL):  # one Gauss point at a time: no (N, N_GL) temporary
        ws[real, k] = w[k] * h[real] * (h[real] * x[k] + tau[real]) ** -sigma
    rho = t ** max(sigma - mu, 0.0) / gamma(mu)
    return _Table(mu, sigma, tau, h, ws, rho, np.stack([1.0 - x, x], 1))


def _block(grid: Grid, mu: float, sigma: float,
           r0: int, r1: int, c0: int, c1: int) -> np.ndarray:
    """Entries [r0:r1, c0:c1] of the matrix taking stored w values of g to
    stored w values of I^mu g.  The 1/Gamma(mu) factor, the output
    weighting, the node-1 closed form and the node-0 limit are applied."""
    return _sample(_table(grid, mu, sigma), r0, c0, r1 - r0, c1 - c0)[0]


def _win(a: np.ndarray, i: int, L: int, B: int, step: int) -> np.ndarray:
    """a[i + b step : i + b step + L] for b < B, stacked."""
    return a[i:i + L][None] if B == 1 else a[
        i + step * np.arange(B)[:, None] + np.arange(L)]


def _sample(tab: _Table, r0: int, c0: int, R: int, C: int,
            B: int = 1, step: int = 0) -> np.ndarray:
    """The blocks [r0, r0 + R) x [c0, c0 + C) of _block moved b step down
    the diagonal, b < B, stacked as (B, R, C), from a prebuilt table."""
    mu, sigma, tau, h, ws, rho, W = tab
    d, t = r0 - c0, _win(tau, r0 + 1, R, B, step)  # t: (B, R) targets
    # ---- Gauss-Legendre on panels c0 - 1 .. c0 + C - 1 as (B, R, panels,
    # N_GL), contracted once: GL[..., k, :] goes to slot k's panel's nodes
    s = _win(h, c0, C + 1, B, step)[..., None] * W[:, 1] + _win(
        tau, c0, C + 1, B, step)[..., None]
    kern = t[:, :, None, None] - s[:, None]
    np.power(np.abs(kern, out=kern), mu - 1.0, out=kern)
    kern *= _win(ws, c0, C + 1, B, step)[:, None]
    GL = (kern.reshape(-1, N_GL) @ W).reshape(B, R, C + 1, 2)

    # ---- target-adjacent panel i-1 under (1-v)^(mu-1), in its slot
    j = np.arange(max(-d, 0), min(C + 1 - d, R))
    if len(j):
        v, om = _gauss_jacobi_right(N_GJ, mu)
        hj = _win(h, r0, R, B, step)[:, j, None]
        w8 = om * (_win(tau, r0, R, B, step)[:, j, None] + hj * v) ** -sigma
        GL[:, j, j + d] = hj ** mu * (w8 @ np.stack([1.0 - v, v], 1))

    if sigma > 0.0 and c0 <= 1:  # ---- first panel under u^(-sigma)
        u, nu = _gauss_jacobi_left(N_GJ, sigma)
        lo = max(2 - r0, 0)  # targets beyond it
        kern = (t[0, lo:, None] - h[1] * u) ** (mu - 1.0)
        GL[0, lo:, 1 - c0] = h[1] ** (1.0 - sigma) * (
            kern @ (nu[:, None] * np.stack([1.0 - u, u], 1)))
        if r0 <= 1 < r0 + R:  # node 1: both singularities, closed form
            b1, b2 = beta_fn(1.0 - sigma, mu), beta_fn(2.0 - sigma, mu)
            GL[0, 1 - r0, 1 - c0] = h[1] ** (mu - sigma) * np.array(
                [b1 - b2, b2])

    # node c0 + k from slots k + 1 and k, the output weighting and the
    # 1/Gamma(mu) front factor
    M = GL[..., 1:, 0] + GL[..., :-1, 1]
    if d < C:  # the block reaches the diagonal: node i has panel i - 1 alone
        M *= np.tri(R, C, d, dtype=bool)
        j = np.arange(max(-d, 0), min(C - d, R))
        M[:, j, j + d] = GL[:, j, j + d, 1]
    M *= _win(rho, r0, R, B, step)[..., None]
    if sigma >= mu and r0 == c0 == 0:
        M[0, 0, 0] = gamma(1.0 - sigma) / gamma(1.0 - sigma + mu)
    return M


def _stacks(tab: _Table, r0: int, c0: int, R: int, C: int, B: int, step: int):
    """(b, _sample of blocks b, b + 1, ...), _CHUNK kernel values at most."""
    n = max(_CHUNK // max(R * (C + 1) * N_GL, 1), 1)  # R may be 0
    for b in range(0, B, n):
        yield b, _sample(tab, r0 + b * step, c0 + b * step, R, C,
                         min(n, B - b), step)


def _truncated(w, s, zt, qu=None, qv=None):
    """(U, Vt, s1, U32, V32t) with U @ Vt + s1 U32 @ V32t = the SVD w s zt
    (or qu @ it @ qv.T) less its singular values <= ACA_TOL s1, s1 the
    largest; float32 U32, V32t hold the vectors of values <= _F32_CUT s1."""
    r = int(np.count_nonzero(s > ACA_TOL * s[0]))
    k = int(np.count_nonzero(s > _F32_CUT * s[0]))
    s1 = float(s[0])
    parts = [w[:, :k] * s[:k], zt[:k].T, w[:, k:r] * (s[k:r] / s1), zt[k:r].T]
    if qu is not None:
        parts = [q @ a for q, a in zip((qu, qv, qu, qv), parts)]
    U, V, U32, V32 = parts  # V is copied: a view would keep all of zt
    return U, V.T.copy(), s1, U32.astype(np.float32), V32.T.astype(np.float32)


def _lowrank(tab: _Table, r0: int, r1: int, c0: int, c1: int):
    """_truncated factors equal to _block(grid, mu, sigma, r0, r1, c0, c1)
    within ACA_TOL relative by partial-pivot adaptive cross approximation
    (ACA, Bebendorf 2000) from ~2r rows and columns, recompressed by QR."""
    U, V = np.empty((8, r1 - r0)), np.empty((8, c1 - c0))
    k, norm2 = 0, 0.0
    i, free = 0, np.ones(r1 - r0, dtype=bool)
    while free.any():
        free[i] = False
        a = _sample(tab, r0 + i, c0, 1, c1 - c0)[0, 0]
        a -= U[:k, i] @ V[:k]
        j = int(np.argmax(np.abs(a)))
        if a[j] == 0.0:  # row i already reproduced exactly
            break
        v = a / a[j]
        u = _sample(tab, r0, c0 + j, r1 - r0, 1)[0, :, 0]
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
    return _truncated(*np.linalg.svd(ru @ rv.T, full_matrices=False), qu, qv)


_Level = namedtuple("_Level", "c U Vt s1 U32 V32t")


@dataclass(frozen=True, eq=False)
class HODLR:
    """Square Volterra matrix: leaves D and _Levels, whose block i maps
    columns c + 2si + [0, s) to the next r rows: U Vt + s1 U32 V32t."""

    n: int
    D: np.ndarray
    levels: tuple

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        n, (L, m, _) = self.n, self.D.shape
        xp = np.concatenate([x, np.zeros(L * m - n)])
        mx = float(np.abs(x).max())  # NaN or inf if x is: y is non-finite too
        x32 = (xp / (mx or 1.0)).astype(np.float32)  # in range: U32 = U / s1
        y = (self.D @ xp.reshape(L, m, 1)).reshape(L * m)
        for c, U, Vt, s1, U32, V32t in self.levels:
            (B, r, _), s = U.shape, Vt.shape[2]
            span = slice(c, c + 2 * B * s)
            ys = y[span].reshape(B, -1)[:, s:s + r]
            ys += (U @ (Vt @ xp[span].reshape(B, -1)[:, :s, None]))[..., 0]
            low = U32 @ (V32t @ x32[span].reshape(B, -1)[:, :s, None])
            ys += low[..., 0] * (s1[:, None] * mx)
        return y[:n]

    @property
    def nbytes(self) -> int:
        return self.D.nbytes + sum(a.nbytes for lev in self.levels
                                   for a in lev[1:])

    @property
    def leaves(self) -> tuple:
        """(lo, hi, D) per leaf, D a read-only view into the stack."""
        m = len(self.D[0])
        return tuple((lo, min(lo + m, self.n), D[:self.n - lo, :self.n - lo])
                     for lo, D in zip(range(0, self.n, m), self.D))

    @property
    def factors(self) -> tuple:
        """(r0, r1, c0, c1, U, V, s1, U32, V32) per off-diagonal block: views
        less the padding (a stored row of Vt has unit norm, a padded one 0)."""
        out = []
        for c, U, Vt, s1, U32, V32t in self.levels:
            r, s = U.shape[1], Vt.shape[2]
            for i, j in enumerate(range(c, c + 2 * s * len(U), 2 * s)):
                k, q = (np.count_nonzero(a[i].any(axis=1)) for a in (Vt, V32t))
                out.append((j + s, j + s + r, j, j + s, U[i, :, :k],
                            Vt[i, :k].T, s1[i], U32[i, :, :q], V32t[i, :q].T))
        return tuple(out)


def _stack(c: int, blocks: list) -> _Level:
    """The _Level of the _truncated factors of equal-shaped blocks."""
    def stacked(parts):  # zero-padded to the largest rank
        out = np.zeros((len(parts), *np.max([p.shape for p in parts], 0)),
                       parts[0].dtype)
        for o, p in zip(out, parts):
            o[:len(p), :p.shape[1]] = p
        return _frozen(out)
    U, Vt, s1, U32, V32t = zip(*blocks)
    return _Level(c, stacked(U), stacked(Vt), _frozen(np.array(s1)),
                  stacked(U32), stacked(V32t))


@lru_cache(maxsize=8)
def _operator(grid: Grid, mu: float, sigma: float) -> HODLR:
    """Matrix taking stored w values of g to those of I^mu g, as a HODLR."""
    tab, n = _table(grid, mu, sigma), grid.n_nodes  # tab is freed on return
    N = n - 1  # halve the N panels: then N = 2^k fills every leaf
    d = 0 if n <= LEAF else (-(-N // (LEAF // 4)) - 1).bit_length()
    m = n if n <= LEAF else -(-N // 2 ** d)
    D = np.zeros((-(-n // m), m, m))  # leaves first: the peak stays lower
    for lo, k, B in ((0, m, n // m), (n - n % m, n % m, int(n % m > 0))):
        for b, M in _stacks(tab, lo, lo, k, k, B, m):
            D[lo // m + b:lo // m + b + len(M), :k, :k] = M
    levels = []
    for s in (m << j for j in reversed(range((N // m).bit_length()))):
        whole = 2 * s * (n // (2 * s))
        for c, B in ((0, n // (2 * s)), (whole, int(whole < n - s))):
            R = min(2 * s, n - c) - s  # the second: the short last block
            if B and s > LEAF // 2:
                levels.append(_stack(c, [_lowrank(tab, k + s, k + s + R, k,
                    k + s) for k in range(c, c + 2 * s * B, 2 * s)]))
            elif B:  # sampled whole, one batched SVD per chunk
                levels.append(_stack(c, [f for _, M in _stacks(
                    tab, c + s, c, R, s, B, 2 * s) for f in map(
                    _truncated, *np.linalg.svd(M, full_matrices=False))]))
    return HODLR(n, _frozen(D), tuple(levels))


@lru_cache(maxsize=8)
def _end_row(grid: Grid, mu: float, sigma: float) -> np.ndarray:
    """The last row of _operator, built alone, 1024 columns at a time so
    no sampled kernel spans the whole row."""
    tab, n = _table(grid, mu, sigma), grid.n_nodes
    return _frozen(np.concatenate([
        _sample(tab, n - 1, c, 1, min(1024, n - c))[0]
        for c in range(0, n, 1024)], axis=1))[0]  # a view cannot be unfrozen


def rl_integral(mu: float, g: WeightedGridFunction) -> WeightedGridFunction:
    """Riemann-Liouville integral I^mu g on g's grid.

    Output carries sigma_out = max(g.sigma - mu, 0); its node-0 value is the
    analytic limit (zero once the integral has soaked up the singularity).
    """
    if not 0.0 < mu <= 2.0:
        raise OrderError(f"integral order must be in (0, 2], got {mu}")
    M = _operator(g.grid, float(mu), float(g.sigma))
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
