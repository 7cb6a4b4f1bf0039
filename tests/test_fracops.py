"""Tests for the fractional integral and derivative operators."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hilferbvp
from hilferbvp import fracops
from hilferbvp.fracops import (
    _CHUNK,
    _F32_CUT,
    ACA_TOL,
    LEAF,
    N_GL,
    OrderError,
    _block,
    _end_row,
    _gauss_jacobi_left,
    _gauss_jacobi_right,
    _gauss_legendre01,
    _operator,
    hilfer_derivative,
    hilfer_gamma,
    power_rule,
    rl_integral,
)
from hilferbvp.gridfn import Grid, WeightedGridFunction
from hilferbvp.specfun import beta as beta_fn
from hilferbvp.specfun import gamma

from conftest import ORACLE

SRC = Path(hilferbvp.__file__).parent.parent


def test_hilfer_gamma_values():
    assert hilfer_gamma(0.5, 1.0 / 3.0) == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert hilfer_gamma(0.7, 0.0) == pytest.approx(0.7)
    assert hilfer_gamma(0.7, 1.0) == pytest.approx(1.0)
    assert hilfer_gamma(0.25, 0.5) == pytest.approx(0.625)


@pytest.mark.parametrize("alpha,beta", [
    (0.0, 0.5), (1.0, 0.5), (-0.1, 0.5), (1.3, 0.5),
    (0.5, -0.01), (0.5, 1.01),
])
def test_hilfer_gamma_validates_orders(alpha, beta):
    with pytest.raises(OrderError):
        hilfer_gamma(alpha, beta)


def test_power_rule_value():
    # I^0.5 applied to (t-a)^(-0.3) at t-a = 1: Gamma(0.7)/Gamma(1.2)
    assert power_rule(0.5, 0.7, 1.0) == pytest.approx(
        ORACLE["powrule_05_07"], rel=1e-14)
    # integer sanity: I^1 of 1 is t-a
    assert power_rule(1.0, 1.0, 0.5) == pytest.approx(0.5, rel=1e-14)


def test_power_rule_validation():
    with pytest.raises(OrderError):
        power_rule(0.0, 1.0, 1.0)
    with pytest.raises(OrderError):
        power_rule(-0.5, 1.0, 1.0)
    with pytest.raises(OrderError):
        power_rule(0.5, 0.0, 1.0)
    with pytest.raises(OrderError):
        power_rule(0.5, -1.0, 1.0)
    with pytest.raises(ValueError):
        power_rule(0.5, 1.0, -0.25)


def test_rl_integral_order_range():
    g = Grid(0.0, 1.0, 16, 2.0)
    fn = WeightedGridFunction(g, 0.0, np.ones(17))
    for mu in (0.0, -0.5, 2.0 + 1e-9, 3.0):
        with pytest.raises(OrderError):
            rl_integral(mu, fn)
    # boundary order 2 is allowed
    out = rl_integral(2.0, fn)
    assert out.sigma == 0.0


def test_linearity_is_exact():
    """The integral is a fixed matrix, so linearity holds to the bit."""
    g = Grid(0.0, 1.0, 64, 2.0)
    rng = np.random.default_rng(23)
    u = rng.normal(size=65)
    v = rng.normal(size=65)
    sigma = 1.0 / 3.0
    fu = WeightedGridFunction(g, sigma, u)
    fv = WeightedGridFunction(g, sigma, v)
    fs = WeightedGridFunction(g, sigma, 2.5 * u - 0.75 * v)
    lhs = rl_integral(0.5, fs).values
    rhs = 2.5 * rl_integral(0.5, fu).values - 0.75 * rl_integral(0.5, fv).values
    assert np.allclose(lhs, rhs, rtol=0.0, atol=1e-13)


def test_positivity():
    g = Grid(0.0, 1.0, 64, 2.0)
    rng = np.random.default_rng(29)
    vals = np.abs(rng.normal(size=65))
    for sigma in (0.0, 1.0 / 3.0):
        fn = WeightedGridFunction(g, sigma, vals)
        out = rl_integral(0.5, fn)
        assert np.all(out.values >= -1e-15)


@pytest.mark.parametrize("mu,p", [(0.5, 1.0), (0.5, 2.0 / 3.0), (1.5, 0.5)])
def test_power_rule_on_grid(mu, p):
    """Quadrature matches the closed-form power rule away from t = a."""
    n = 256
    g = Grid(0.0, 1.0, n, 2.0)
    sigma = 1.0 - p if p < 1.0 else 0.0
    tau = g.offsets()
    vals = np.empty(n + 1)
    vals[0] = 1.0 if sigma > 0.0 else (1.0 if p == 1.0 else 0.0)
    vals[1:] = tau[1:] ** (p - 1.0 + sigma)
    fn = WeightedGridFunction(g, sigma, vals)
    out = rl_integral(mu, fn)
    want = np.array([power_rule(mu, p, x) for x in tau[1:]])
    got = out.values[1:] * tau[1:] ** (-out.sigma) if out.sigma else out.values[1:]
    lo = n // 16
    rel = np.abs(got[lo:] - want[lo:]) / np.abs(want[lo:])
    assert rel.max() < 1e-3


def test_semigroup_property():
    """I^a I^b f == I^(a+b) f on a shared grid."""
    n = 256
    g = Grid(0.0, 1.0, n, 2.0)
    sigma = 1.0 / 3.0
    tau = g.offsets()
    vals = np.empty(n + 1)
    vals[0] = 1.0
    vals[1:] = 1.0 + 0.5 * np.sin(3.0 * tau[1:])
    fn = WeightedGridFunction(g, sigma, vals)
    two_step = rl_integral(0.4, rl_integral(0.35, fn))
    one_step = rl_integral(0.75, fn)
    assert two_step.sigma == one_step.sigma == 0.0
    scale = np.abs(one_step.values).max()
    lo = n // 16
    err = np.abs(two_step.values[lo:] - one_step.values[lo:]).max()
    assert err < 1e-3 * scale


def test_order_one_is_antiderivative():
    n = 1024
    g = Grid(0.0, 1.0, n, 2.0)
    fn = WeightedGridFunction(g, 0.0, np.cos(g.nodes))
    out = rl_integral(1.0, fn)
    assert np.abs(out.values - np.sin(g.nodes)).max() < 1e-6


def test_node0_limit_sigma_ge_mu():
    """When sigma >= mu the output keeps a finite weighted limit at a."""
    g = Grid(0.0, 1.0, 32, 2.0)
    sigma, mu = 0.5, 0.25
    fn = WeightedGridFunction(g, sigma, np.full(33, 2.0))
    out = rl_integral(mu, fn)
    assert out.sigma == pytest.approx(sigma - mu)
    want = 2.0 * gamma(1.0 - sigma) / gamma(1.0 - sigma + mu)
    assert out.values[0] == pytest.approx(want, rel=1e-14)


def test_node0_vanishes_sigma_lt_mu():
    g = Grid(0.0, 1.0, 32, 2.0)
    fn = WeightedGridFunction(g, 0.25, np.full(33, 2.0))
    out = rl_integral(0.5, fn)
    assert out.sigma == 0.0
    assert out.values[0] == 0.0


def test_hilfer_derivative_limits_on_t_squared():
    """D^(alpha,beta) t^2 = 2/Gamma(3-alpha) t^(2-alpha) for every beta: both
    parameter extremes and the paper's beta = 1/3, at second order."""
    def interior_error(n, beta):
        g = Grid(0.0, 1.0, n, 2.0)
        fn = WeightedGridFunction(g, 0.0, g.nodes**2)
        want = 2.0 / gamma(2.5) * g.nodes**1.5
        lo, hi = n // 8, 7 * n // 8
        got = hilfer_derivative(0.5, beta, fn)
        assert got.sigma == 0.0
        return np.abs(got.values[lo:hi] - want[lo:hi]).max()

    for beta in (0.0, 1.0 / 3.0, 1.0):
        coarse, fine = interior_error(512, beta), interior_error(1024, beta)
        assert fine < 5e-2
        if beta < 1.0:
            assert np.log2(coarse / fine) >= 1.8
        else:
            # three-point differences are exact on t^2 and product
            # integration is exact on the linear result: rounding only
            assert fine < 1e-10


def test_hilfer_derivative_validates_orders():
    g = Grid(0.0, 1.0, 16, 2.0)
    fn = WeightedGridFunction(g, 0.0, g.nodes)
    with pytest.raises(OrderError):
        hilfer_derivative(1.5, 0.5, fn)
    with pytest.raises(OrderError):
        hilfer_derivative(0.5, 2.0, fn)


@pytest.mark.parametrize("n, sigma, beta, message", [
    (1, 0.0, 0.0, "three samples"),
    (1, 0.0, 1.0, "three samples"),
    (1, 0.4, 0.0, "three samples"),   # I^0.5 leaves sigma = 0
    (1, 0.4, 1.0, "three samples"),
    (2, 0.4, 0.5, "three samples"),   # checked before sigma > (1-b)(1-a)
    (2, 0.4, 1.0, "three samples"),
])
def test_hilfer_derivative_too_few_nodes(n, sigma, beta, message):
    """The second-order differences run on nodes 1..N, so they need three
    panels; the panel count is checked before anything else."""
    fn = WeightedGridFunction(Grid(0.0, 1.0, n, 2.0), sigma, np.ones(n + 1))
    with pytest.raises(ValueError, match=message):
        hilfer_derivative(0.5, beta, fn)


@pytest.mark.parametrize("beta", [1.0 / 3.0, 1.0])
def test_hilfer_derivative_rejects_sigma_outside_space(beta):
    """g.sigma above (1-beta)(1-alpha) leaves I^((1-beta)(1-alpha)) g
    unbounded at t = a, outside the weighted space: no finite answer."""
    g = Grid(0.0, 1.0, 256, 2.0)
    sigma = (1.0 - beta) * 0.5 + 0.2
    fn = WeightedGridFunction(g, sigma, np.ones(257))
    with pytest.raises(ValueError, match=r"exceeds \(1-beta\)\(1-alpha\)"):
        hilfer_derivative(0.5, beta, fn)


@pytest.mark.parametrize("p", [2.0, 3.0])
@pytest.mark.parametrize("beta", [0.0, 1.0 / 3.0, 1.0])
def test_hilfer_derivative_power_family(p, beta):
    """D^(1/2,beta) t^(p-1) = Gamma(p)/Gamma(p-1/2) t^(p-3/2) for every
    beta, in the interior."""
    n = 2048
    g = Grid(0.0, 1.0, n, 2.0)
    tau = g.offsets()
    got = hilfer_derivative(0.5, beta,
                            WeightedGridFunction(g, 0.0, tau ** (p - 1.0)))
    want = gamma(p) / gamma(p - 0.5) * tau ** (p - 1.5)
    lo, hi = n // 8, 7 * n // 8
    assert np.abs(got.values[lo:hi] - want[lo:hi]).max() <= 1e-4


def test_operator_cache_reuse():
    g = Grid(0.0, 1.0, 128, 2.0)
    fn = WeightedGridFunction(g, 1.0 / 3.0, np.ones(129))
    rl_integral(0.5, fn)
    hits_before = _operator.cache_info().hits
    rl_integral(0.5, fn)
    assert _operator.cache_info().hits > hits_before


def _arrays(op):
    return [op.D] + [a for level in op.levels for a in level[1:]]


def test_cached_operator_is_read_only():
    g = Grid(0.0, 1.0, 300, 2.0)
    op = _operator(g, 0.5, 1.0 / 3.0)
    assert op.factors
    for a in _arrays(op):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0, 0] = 0.0
    fn = WeightedGridFunction(g, 1.0 / 3.0, np.linspace(1.0, 2.0, 301))
    assert np.array_equal(rl_integral(0.5, fn).values, op @ fn.values)
    g = Grid(0.0, 1.0, 64, 2.0)
    fn = WeightedGridFunction(g, 1.0 / 3.0, np.ones(65))
    row = _end_row(g, 0.5, 1.0 / 3.0)
    assert not row.flags.writeable
    with pytest.raises(ValueError):
        row[-1] = 0.0
    with pytest.raises(ValueError):
        row.setflags(write=True)
    assert _end_row(g, 0.5, 1.0 / 3.0) is row


@pytest.mark.parametrize("n", [1, 2, 3, 64])
def test_end_value_matches_last_row(n):
    """_end_row's value is the last entry of rl_integral, for sigma >= mu,
    sigma < mu, and the node-1 closed form at N = 1."""
    g = Grid(0.0, 1.0, n, 2.0)
    rng = np.random.default_rng(n)
    for sigma in (0.0, 1.0 / 3.0, 0.7):
        fn = WeightedGridFunction(g, sigma, rng.normal(size=n + 1))
        for mu in (0.1, 0.5, 1.0, 2.0):
            ref = rl_integral(mu, fn).values[-1]
            got = float(_end_row(g, mu, sigma) @ fn.values)
            assert abs(got - ref) <= 1e-14 * max(1.0, abs(ref))
    with pytest.raises(OrderError):
        rl_integral(0.0, fn)


# Reference assembly: fills chunks of target rows from (C, J, K) kernel
# tensors with a mask and an np.ix_ scatter, independently of the
# quadrature table and pruning rules inside fracops._block.

def _ref_assemble_rows(M, rows, tau, h, mu, sigma, gl, gjl, gjr):
    jmin = 1 if sigma > 0.0 else 0
    x_gl, w_gl = gl
    i_arr = np.asarray(rows)
    jmax = int(i_arr.max()) - 2
    if jmax >= jmin:
        js = np.arange(jmin, jmax + 1)
        s_off = tau[js][:, None] + h[js][:, None] * x_gl[None, :]
        base = w_gl[None, :] * h[js][:, None]
        if sigma > 0.0:
            base = base * s_off ** (-sigma)
        diff = tau[i_arr][:, None, None] - s_off[None, :, :]
        mask = js[None, :] <= (i_arr[:, None] - 2)
        kern = np.where(diff > 0.0, diff, 1.0) ** (mu - 1.0)
        kern *= mask[:, :, None]
        contrib = kern * base[None, :, :]
        M[np.ix_(i_arr, js)] += contrib @ (1.0 - x_gl)
        M[np.ix_(i_arr, js + 1)] += contrib @ x_gl
    if sigma > 0.0:
        u, nu = gjl
        kern = (tau[i_arr][:, None] - h[0] * u[None, :]) ** (mu - 1.0)
        scale = h[0] ** (1.0 - sigma)
        M[i_arr, 0] += scale * (kern @ (nu * (1.0 - u)))
        M[i_arr, 1] += scale * (kern @ (nu * u))
    v, om = gjr
    hj = h[i_arr - 1]
    s_off = tau[i_arr - 1][:, None] + hj[:, None] * v[None, :]
    w8 = om[None, :] * np.ones_like(s_off)
    if sigma > 0.0:
        w8 = w8 * s_off ** (-sigma)
    scale = hj ** mu
    M[i_arr, i_arr - 1] += scale * (w8 * (1.0 - v)[None, :]).sum(axis=1)
    M[i_arr, i_arr] += scale * (w8 * v[None, :]).sum(axis=1)


def _ref_operator(grid, mu, sigma, n_gl=6, n_gj=8, chunk=16):
    tau = grid.offsets()
    h = np.diff(tau)
    n = grid.n_nodes
    M = np.zeros((n, n))
    gl = _gauss_legendre01(n_gl)
    gjr = _gauss_jacobi_right(n_gj, mu)
    gjl = _gauss_jacobi_left(n_gj, sigma) if sigma > 0.0 else None
    targets = np.arange(2 if sigma > 0.0 else 1, n)
    for k in range(0, targets.size, chunk):
        _ref_assemble_rows(M, targets[k:k + chunk], tau, h, mu, sigma,
                           gl, gjl, gjr)
    if sigma > 0.0:
        hs = h[0] ** (mu - sigma)
        b1 = beta_fn(1.0 - sigma, mu)
        b2 = beta_fn(2.0 - sigma, mu)
        M[1, 0] = hs * (b1 - b2)
        M[1, 1] = hs * b2
    rho = np.empty(n)
    rho[1:] = tau[1:] ** max(sigma - mu, 0.0) / gamma(mu)
    rho[0] = 0.0
    M *= rho[:, None]
    if sigma >= mu:
        M[0, 0] = gamma(1.0 - sigma) / gamma(1.0 - sigma + mu)
    return M


@pytest.mark.parametrize("q", [1.0, 2.0, 3.0])
def test_operator_matches_chunked_reference(q):
    for n in (1, 2, 3, 7, 41):
        g = Grid(0.0, 1.0, n, q)
        for mu in (0.1, 0.5, 5.0 / 6.0, 1.0, 1.7, 2.0):
            for sigma in (0.0, 1.0 / 3.0, 0.7):
                want = _ref_operator(g, mu, sigma)
                got = _block(g, mu, sigma, 0, n + 1, 0, n + 1)
                scale = np.abs(want).max()
                assert np.abs(got - want).max() <= 1e-13 * scale


def _dense_matvec(grid, mu, sigma, x, chunk=64):
    """The whole matrix times x, built in row chunks.  Each chunk stops at
    its last row's column: the upper triangle of _block is zero, which
    test_operator_matches_chunked_reference checks against _ref_operator."""
    n = grid.n_nodes
    return np.concatenate([
        _block(grid, mu, sigma, r, min(r + chunk, n), 0, min(r + chunk, n))
        @ x[:min(r + chunk, n)] for r in range(0, n, chunk)])


ALPHA, SIGMA = 0.5, 1.0 / 3.0
HODLR_ORDERS = [(0.1, 0.0), (0.5, 1.0 / 3.0), (5.0 / 6.0, 0.7), (1.0, 0.0),
                (1.7, 1.0 / 3.0), (2.0, 0.0), (0.25, 0.5), (0.3, 0.3),
                (SIGMA + ALPHA, SIGMA), (SIGMA, SIGMA)]


@pytest.mark.parametrize("q", [1.0, 2.0, 3.0])
@pytest.mark.parametrize("n", [128, 129, 513, 1000, 2048, 4096])
def test_hodlr_matches_dense_oracle(n, q):
    g = Grid(0.0, 1.0, n, q)
    rng = np.random.default_rng(n)
    for mu, sigma in HODLR_ORDERS:
        op = _operator.__wrapped__(g, mu, sigma)
        assert (n + 1 > LEAF) == bool(op.factors)
        x = rng.normal(size=n + 1)
        want = _dense_matvec(g, mu, sigma, x)
        err = np.linalg.norm(op @ x - want) / np.linalg.norm(want)
        assert err < 1e-10, (mu, sigma, err)


@pytest.mark.parametrize("q", [1.0, 2.0, 3.0])
@pytest.mark.parametrize("n", [129, 1000])
def test_lowrank_factors_match_block(n, q):
    """Each ACA factor pair against its block in the Frobenius norm, 10x
    ACA_TOL: a tighter check than the 1e-10 matvec oracle.  The dense
    leaves are the standalone _block bit for bit."""
    g = Grid(0.0, 1.0, n, q)
    for mu, sigma in HODLR_ORDERS:
        op = _operator.__wrapped__(g, mu, sigma)
        for r0, r1, c0, c1, U, V, s1, U32, V32 in op.factors:
            want = _block(g, mu, sigma, r0, r1, c0, c1)
            low = s1 * U32.astype(float) @ V32.astype(float).T
            err = np.linalg.norm(U @ V.T + low - want)
            assert err <= 1e-11 * np.linalg.norm(want), (mu, sigma, r0, c0)
        for lo, hi, D in op.leaves:
            assert np.array_equal(D, _block(g, mu, sigma, lo, hi, lo, hi))


def _recorded_build(g, mu, sigma, monkeypatch):
    """The HODLR build of (g, mu, sigma) and its _sample calls, each as its
    shape arguments (r0, c0, R, C, B, step) and a copy of its result."""
    calls, sample = [], fracops._sample

    def record(tab, r0, c0, R, C, B=1, step=0):
        out = sample(tab, r0, c0, R, C, B, step)
        calls.append(((r0, c0, R, C, B, step), out.copy()))
        return out
    monkeypatch.setattr(fracops, "_sample", record)
    op = _operator.__wrapped__(g, mu, sigma)
    monkeypatch.undo()
    return op, calls


@pytest.mark.parametrize("q", [1.0, 2.0, 3.0])
@pytest.mark.parametrize("n", [129, 1000, 4097])
def test_stacked_samples_match_block(n, q, monkeypatch):
    """Each leaf and each whole-sampled block, sampled in a stack, is its
    standalone _block bit for bit, and no sampler call, ACA crosses
    included, holds more than 49,152 kernel values, B R (C + 1) N_GL as
    counted from the call's shape."""
    g = Grid(0.0, 1.0, n, q)
    assert _CHUNK == 49152
    for mu, sigma in HODLR_ORDERS:
        op, calls = _recorded_build(g, mu, sigma, monkeypatch)
        assert max(B * R * (C + 1) * N_GL
                   for (_, _, R, C, B, _), _ in calls) <= _CHUNK
        leaves = whole = 0
        for (r0, c0, R, C, B, step), M in calls:
            if r0 != c0 and not 1 < C <= LEAF // 2:  # an ACA row or column
                continue
            assert M.shape == (B, R, C)
            for b in range(B):
                r, c = r0 + b * step, c0 + b * step
                want = _block(g, mu, sigma, r, r + R, c, c + C)
                assert np.array_equal(M[b], want), (mu, sigma, r, c)
            leaves += B * (r0 == c0)
            whole += B * (r0 != c0)
        assert leaves == len(op.leaves)
        assert whole == sum(max(r1 - r0, c1 - c0) <= LEAF // 2
                            for r0, r1, c0, c1, *_ in op.factors)


@pytest.mark.parametrize("n", [129, 1000, 4096])
def test_factor_precision_split(n):
    """A factor column is float32 exactly when its singular value is at
    most _F32_CUT times the block's largest, and every array is frozen."""
    g = Grid(0.0, 1.0, n, 2.0)
    assert _F32_CUT == ACA_TOL / (2.0 * np.finfo(np.float32).eps)
    for mu, sigma in HODLR_ORDERS:
        op = _operator.__wrapped__(g, mu, sigma)
        for *_, U, V, s1, U32, V32 in op.factors:
            assert (U.dtype, V.dtype) == (np.float64, np.float64)
            assert (U32.dtype, V32.dtype) == (np.float32, np.float32)
            assert isinstance(s1, float)
            # V has orthonormal columns, so the column norms of U (and
            # s1 U32) are the block's singular values
            s64 = np.linalg.norm(U, axis=0)
            s32 = s1 * np.linalg.norm(U32.astype(float), axis=0)
            assert s64[0] == pytest.approx(s1, rel=1e-12)
            assert np.all(s64 > _F32_CUT * s1 * (1.0 - 1e-12))
            assert np.all(s32 <= _F32_CUT * s1 * (1.0 + 1e-6))
        for a in _arrays(op):
            assert not a.flags.writeable


@pytest.mark.parametrize("mu", [0.5, 1.7])
@pytest.mark.parametrize("b,scale", [(1e-60, 1e200), (1e40, 1e100),
                                     (1.0, 1e-200)])
def test_hodlr_matvec_extreme_scales(mu, b, scale):
    """The float32 half of each factor is scaled by its block's largest
    singular value and x by max|x|, so neither overflows nor underflows
    float32 on tiny or huge intervals and inputs."""
    g = Grid(0.0, b, 1000, 2.0)
    x = scale * np.random.default_rng(7).normal(size=1001)
    op = _operator.__wrapped__(g, mu, 1.0 / 3.0)
    want = _dense_matvec(g, mu, 1.0 / 3.0, x)
    got = op @ x
    assert np.all(np.isfinite(got))
    assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


def test_hodlr_storage_and_determinism():
    n = 4096
    g = Grid(0.0, 1.0, n, 2.0)
    one = _operator.__wrapped__(g, 0.5, 1.0 / 3.0)
    two = _operator.__wrapped__(g, 0.5, 1.0 / 3.0)
    assert sum(a.nbytes for a in _arrays(one)) == one.nbytes
    assert one.nbytes < 8 * (n + 1) ** 2 / 8
    assert [leaf[:2] for leaf in one.leaves] == [leaf[:2] for leaf in two.leaves]
    assert [f[:4] for f in one.factors] == [f[:4] for f in two.factors]
    for a, b in zip(_arrays(one), _arrays(two), strict=True):
        assert a.shape == b.shape and np.array_equal(a, b)


def test_hodlr_leaf_sizes():
    """A grid of at most LEAF nodes is one exact leaf; a larger one is cut
    into leaves of at most LEAF // 4 nodes, which keeps the N = 4096
    operator under 4.12 MiB (3.93 MiB; LEAF // 2-node leaves took 4.56 MiB,
    LEAF-node leaves 6.95 MiB)."""
    for n in (1, 64, 127):
        op = _operator.__wrapped__(Grid(0.0, 1.0, n, 2.0), 0.5, 1.0 / 3.0)
        assert [leaf[:2] for leaf in op.leaves] == [(0, n + 1)]
    for n in (128, 129, 1000, 4096):
        op = _operator.__wrapped__(Grid(0.0, 1.0, n, 2.0), 0.5, 1.0 / 3.0)
        assert max(hi - lo for lo, hi, _ in op.leaves) <= LEAF // 4
    assert op.nbytes <= 4.12 * 2**20


def _loop_matvec(op, x):
    """The HODLR product one leaf and one factor at a time, as a Python loop
    over op.leaves and op.factors."""
    y = np.zeros(op.n)
    for lo, hi, D in op.leaves:
        y[lo:hi] = D @ x[lo:hi]
    m = float(np.abs(x).max())
    x32 = (x / m).astype(np.float32)
    for r0, r1, c0, c1, U, V, s1, U32, V32 in op.factors:
        y[r0:r1] += U @ (V.T @ x[c0:c1])
        y[r0:r1] += (U32 @ (V32.T @ x32[c0:c1])).astype(float) * (s1 * m)
    return y


@pytest.mark.parametrize("n", [128, 129, 1000, 4097])
def test_stacked_matvec_matches_block_loop(n):
    """The batched product over the stacked levels equals the block-by-block
    loop within 1e-13 relative (the float32 sums run in another order).  The
    sizes include levels whose last block is cut short."""
    g = Grid(0.0, 1.0, n, 2.0)
    x = np.random.default_rng(n).normal(size=n + 1)
    for mu, sigma in HODLR_ORDERS:
        op = _operator.__wrapped__(g, mu, sigma)
        want = _loop_matvec(op, x)
        err = np.linalg.norm(op @ x - want) / np.linalg.norm(want)
        assert err <= 1e-13, (mu, sigma, err)


@pytest.mark.parametrize("n", [129, 1000, 4097])
def test_stacked_arrays_read_only(n):
    """Every stored array is frozen, and so are the views that leaves and
    factors hand out: none can be made writeable again."""
    op = _operator.__wrapped__(Grid(0.0, 1.0, n, 2.0), 0.5, 1.0 / 3.0)
    assert len(_arrays(op)) == 1 + 5 * len(op.levels)
    for a in _arrays(op):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[(0,) * a.ndim] = 1.0
    views = [D for *_, D in op.leaves] + [
        a for *_, U, V, _, U32, V32 in op.factors for a in (U, V, U32, V32)]
    for a in views:
        with pytest.raises(ValueError):
            a.setflags(write=True)


def test_operator_bit_identical_across_processes():
    """Two fresh interpreters build the N = 2048 operator and apply it to
    one seeded x: the stored arrays and the products are bit-identical, as
    the benchmark's byte-compared CSVs need."""
    code = ("import hashlib, numpy as np; "
            "from hilferbvp.fracops import _operator; "
            "from hilferbvp.gridfn import Grid; "
            "op = _operator(Grid(0.0, 1.0, 2048, 2.0), 0.5, 1 / 3); "
            "x = np.random.default_rng(26).normal(size=2049); "
            "arrays = [op.D] + [a for lev in op.levels for a in lev[1:]]; "
            "print(hashlib.sha256(b''.join(a.tobytes() for a in arrays)"
            "    + (op @ x).tobytes()).hexdigest())")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    runs = [subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True, check=True, env=env).stdout
            for _ in range(2)]
    assert len(runs[0]) == 65 and runs[0] == runs[1]


@pytest.mark.parametrize("mu", [0.1, 1.0 / 3.0, 0.5, 5.0 / 6.0, 1.0, 1.7, 2.0])
def test_gauss_jacobi_rules_exact_to_degree_15(mu):
    """int_0^1 (1-v)^(mu-1) v^k dv = Gamma(k+1) Gamma(mu) / Gamma(k+1+mu);
    the left rule is the same integral with u = 1 - v and sigma = 1 - mu."""
    v, om = _gauss_jacobi_right(8, mu)
    u, nu = _gauss_jacobi_left(8, 1.0 - mu) if mu <= 1.0 else (1.0 - v, om)
    for k in range(16):
        want = math.gamma(k + 1) * math.gamma(mu) / math.gamma(k + 1 + mu)
        assert abs(om @ v**k - want) <= 1e-14 * want
        assert abs(nu @ (1.0 - u)**k - want) <= 1e-14 * want
