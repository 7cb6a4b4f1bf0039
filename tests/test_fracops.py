"""Tests for the fractional integral and derivative operators."""

import numpy as np
import pytest

from hilferbvp.fracops import (
    OrderError,
    _operator,
    hilfer_derivative,
    hilfer_gamma,
    power_rule,
    rl_integral,
    worker_count,
)
from hilferbvp.gridfn import Grid, WeightedGridFunction
from hilferbvp.specfun import gamma

from conftest import ORACLE


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


def test_worker_count_env(monkeypatch):
    monkeypatch.delenv("HILFER_THREADS", raising=False)
    auto = worker_count()
    assert 1 <= auto <= 8
    monkeypatch.setenv("HILFER_THREADS", "0")
    assert worker_count() == auto
    monkeypatch.setenv("HILFER_THREADS", "3")
    assert worker_count() == 3
    monkeypatch.setenv("HILFER_THREADS", "abc")
    with pytest.raises(ValueError):
        worker_count()
    monkeypatch.setenv("HILFER_THREADS", "-1")
    with pytest.raises(ValueError):
        worker_count()


def test_assembly_independent_of_thread_count(monkeypatch):
    """The operator matrix must be bit-identical for any worker count."""
    g = Grid(0.0, 1.0, 200, 2.0)
    build = _operator.__wrapped__
    monkeypatch.setenv("HILFER_THREADS", "1")
    m1 = build(g, 0.5, 1.0 / 3.0, 6, 8)
    monkeypatch.setenv("HILFER_THREADS", "4")
    m4 = build(g, 0.5, 1.0 / 3.0, 6, 8)
    assert np.array_equal(m1, m4)


def test_operator_cache_reuse():
    g = Grid(0.0, 1.0, 128, 2.0)
    fn = WeightedGridFunction(g, 1.0 / 3.0, np.ones(129))
    rl_integral(0.5, fn)
    hits_before = _operator.cache_info().hits
    rl_integral(0.5, fn)
    assert _operator.cache_info().hits > hits_before


def test_cached_operator_is_read_only():
    g = Grid(0.0, 1.0, 64, 2.0)
    M = _operator(g, 0.5, 1.0 / 3.0, 6, 8)
    assert not M.flags.writeable
    with pytest.raises(ValueError):
        M[1, 1] = 0.0
    fn = WeightedGridFunction(g, 1.0 / 3.0, np.ones(65))
    assert np.array_equal(rl_integral(0.5, fn).values, M @ fn.values)
