"""Tests for the boundary value problem solver."""

import dataclasses
import math

import numpy as np
import pytest

from hilferbvp.bvpsolve import (
    Bounds,
    DegenerateBoundary,
    ProblemSpec,
    apply_T,
    boundary_functional,
    boundary_term,
    solve_picard,
)
from hilferbvp.exprlang import EvalError, evaluate, parse
from hilferbvp.fracops import OrderError, hilfer_derivative
from hilferbvp.gridfn import Grid, WeightedGridFunction
from hilferbvp.specfun import gamma

from conftest import ORACLE, example_problem


def test_problem_properties(p_ex):
    assert p_ex.gamma == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert p_ex.sigma == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert p_ex.resolvent == pytest.approx(0.75, rel=1e-15)
    assert p_ex.boundary_const == pytest.approx(ORACLE["bconst"], rel=1e-14)


def test_problem_validation():
    f = parse("0")
    with pytest.raises(OrderError):
        ProblemSpec(1.5, 0.5, 0.0, 1.0, 0.0, 1.0, 0.0, f)
    with pytest.raises(OrderError):
        ProblemSpec(0.5, -0.5, 0.0, 1.0, 0.0, 1.0, 0.0, f)
    with pytest.raises(ValueError):
        ProblemSpec(0.5, 0.5, 1.0, 1.0, 0.0, 1.0, 0.0, f)
    with pytest.raises(ValueError):
        ProblemSpec(0.5, 0.5, 2.0, 1.0, 0.0, 1.0, 0.0, f)
    with pytest.raises(DegenerateBoundary):
        ProblemSpec(0.5, 0.5, 0.0, 1.0, 1.0, 0.0, 0.0, f)
    with pytest.raises(DegenerateBoundary):
        ProblemSpec(0.5, 0.5, 0.0, 1.0, -1.0, 1.0, 0.0, f)
    assert issubclass(DegenerateBoundary, ValueError)


@pytest.mark.parametrize("value", [math.inf, math.nan])
@pytest.mark.parametrize("name", ["a", "b", "c", "d", "e"])
def test_problem_rejects_non_finite_coefficient(p_ex, name, value):
    with pytest.raises(ValueError, match=f"^{name}: must be finite"):
        dataclasses.replace(p_ex, **{name: value})


def test_boundary_term_is_constant(p_ex, grid512):
    bt = boundary_term(p_ex, grid512)
    assert bt.sigma == pytest.approx(p_ex.sigma)
    assert np.all(bt.values == p_ex.boundary_const)


def test_grid_interval_must_match(p_ex):
    wrong = Grid(0.0, 2.0, 32, 2.0)
    with pytest.raises(ValueError):
        boundary_term(p_ex, wrong)
    fn = WeightedGridFunction(wrong, p_ex.sigma, np.ones(33))
    with pytest.raises(ValueError):
        apply_T(p_ex, fn)


def test_apply_t_rejects_sigma_mismatch(p_ex, grid512):
    fn = WeightedGridFunction(grid512, 0.5, np.ones(513))
    with pytest.raises(ValueError):
        apply_T(p_ex, fn)


@pytest.mark.parametrize("sigma", [0.0, 0.5, 0.9])
def test_boundary_functional_rejects_sigma_mismatch(p_ex, sigma):
    # the example needs sigma = 1/3; any other weighting mixes two of them
    fn = WeightedGridFunction(Grid(0.0, 1.0, 64, 2.0), sigma, np.ones(65))
    with pytest.raises(ValueError, match="z carries sigma = .*, problem needs"):
        boundary_functional(p_ex, fn)
    with pytest.raises(ValueError, match="z carries sigma = .*, problem needs"):
        apply_T(p_ex, fn)


def _constant_rhs_problem():
    # z-independent right side with a closed-form fixed point
    return ProblemSpec(alpha=0.6, beta=0.25, a=0.0, b=1.0,
                       c=0.0, d=1.0, e=0.0, f=parse("3.7"))


def _constant_rhs_exact(grid):
    k = 3.7
    a_w = -k / (gamma(0.7) * gamma(1.9))
    tau = grid.offsets()
    return WeightedGridFunction(grid, 0.3, a_w + k * tau**0.9 / gamma(1.6))


def test_constant_rhs_fixed_point():
    """apply_T must leave the closed-form solution nearly unchanged."""
    p = _constant_rhs_problem()
    grid = Grid(0.0, 1.0, 512, 2.0)
    exact = _constant_rhs_exact(grid)
    image = apply_T(p, exact)
    assert np.abs(image.values - exact.values).max() < 1e-4


def test_constant_rhs_boundary_functional():
    p = _constant_rhs_problem()
    grid = Grid(0.0, 1.0, 512, 2.0)
    exact = _constant_rhs_exact(grid)
    assert boundary_functional(p, exact) == pytest.approx(0.0, abs=1e-5)


def test_constant_rhs_picard_recovers_exact():
    p = _constant_rhs_problem()
    grid = Grid(0.0, 1.0, 512, 2.0)
    res = solve_picard(p, grid)
    assert res.converged
    assert res.iterations <= 3
    exact = _constant_rhs_exact(grid)
    assert np.abs(res.solution.values - exact.values).max() < 1e-4


def test_example_problem_solve(p_ex, grid512):
    res = solve_picard(p_ex, grid512)
    assert res.converged and not res.diverged
    assert res.iterations <= 60
    assert res.volterra_residual <= 1e-8
    assert res.boundary_residual <= 5e-3
    assert len(res.step_norms) == res.iterations
    # contraction: step norms decay monotonically after the first step
    tail = res.step_norms[2:]
    assert all(b < a for a, b in zip(tail, tail[1:]))


def test_boundary_functional_example(p_ex, grid512):
    res = solve_picard(p_ex, grid512)
    assert boundary_functional(p_ex, res.solution) == pytest.approx(
        p_ex.e, abs=5e-3)


def test_solution_satisfies_equation_interior(p_ex, grid512):
    """The solved z must satisfy the differential equation away from the
    endpoint singularity."""
    from hilferbvp import exprlang

    res = solve_picard(p_ex, grid512)
    dz = hilfer_derivative(p_ex.alpha, p_ex.beta, res.solution)
    z_unw = res.solution.unweighted()
    n = grid512.n_panels
    lo, hi = n // 8, 7 * n // 8
    worst = 0.0
    for i in range(lo, hi):
        want = exprlang.evaluate(p_ex.f, float(grid512.nodes[i]),
                                 float(z_unw[i - 1]))
        worst = max(worst, abs(float(dz.values[i]) - want))
    assert worst < 5e-2


def test_solution_satisfies_equation_relative(p_ex, grid512):
    """D^(alpha,beta) z = f(t, z) on nodes N/8..7N/8 to 5e-4 relative."""
    res = solve_picard(p_ex, grid512)
    dz = hilfer_derivative(p_ex.alpha, p_ex.beta, res.solution)
    n = grid512.n_panels
    lo, hi = n // 8, 7 * n // 8
    want = evaluate(p_ex.f, grid512.nodes[lo:hi],
                    res.solution.unweighted()[lo - 1:hi - 1])
    assert np.abs(dz.values[lo:hi] / want - 1.0).max() <= 5e-4


def test_caputo_identity_branch():
    """beta = 1 gives gamma = 1: no weight, plain endpoint values."""
    p = ProblemSpec(alpha=0.5, beta=1.0, a=0.0, b=1.0,
                    c=1.0, d=1.0, e=2.0, f=parse("0"))
    assert p.sigma == 0.0
    assert p.boundary_const == pytest.approx(1.0)
    grid = Grid(0.0, 1.0, 64, 2.0)
    res = solve_picard(p, grid)
    assert res.converged
    assert res.iterations == 1
    assert np.all(res.solution.values == 1.0)
    assert boundary_functional(p, res.solution) == pytest.approx(2.0)
    assert res.boundary_residual == pytest.approx(0.0, abs=1e-15)


def test_divergence_detection():
    p = ProblemSpec(alpha=0.5, beta=1.0 / 3.0, a=0.0, b=1.0,
                    c=0.25, d=0.75, e=0.4, f=parse("100*z"))
    grid = Grid(0.0, 1.0, 64, 2.0)
    res = solve_picard(p, grid, max_iter=50)
    assert res.diverged
    assert not res.converged
    assert math.isnan(res.volterra_residual)
    assert math.isnan(res.boundary_residual)
    assert res.iterations < 50


def test_max_iter_exhaustion_neither_flag():
    p = example_problem(with_bounds=False)
    grid = Grid(0.0, 1.0, 64, 2.0)
    res = solve_picard(p, grid, tol=1e-30, max_iter=3)
    assert not res.converged
    assert not res.diverged
    assert res.iterations == 3


def test_eval_error_propagates(grid512):
    p = ProblemSpec(alpha=0.5, beta=1.0 / 3.0, a=0.0, b=1.0,
                    c=0.25, d=0.75, e=0.4, f=parse("sqrt(-t)"))
    with pytest.raises(EvalError):
        solve_picard(p, grid512)


def test_solve_picard_validation(p_ex, grid512):
    with pytest.raises(ValueError):
        solve_picard(p_ex, grid512, tol=0.0)
    with pytest.raises(ValueError):
        solve_picard(p_ex, grid512, max_iter=0)
    # nan slips past a `tol <= 0` test; inf would converge after one step
    for tol in (math.nan, math.inf):
        with pytest.raises(ValueError, match="tol"):
            solve_picard(p_ex, grid512, tol=tol)
    with pytest.raises(ValueError, match="max_iter"):
        solve_picard(p_ex, grid512, max_iter=True)


def test_solve_picard_needs_two_panels(p_ex):
    """Node 0 of the right-hand side is extrapolated from nodes 1 and 2."""
    with pytest.raises(ValueError, match="at least 2 panels"):
        solve_picard(p_ex, Grid(0.0, 1.0, 1, 2.0))
    assert solve_picard(p_ex, Grid(0.0, 1.0, 2, 2.0)).iterations >= 1


def test_solve_result_to_dict(p_ex, grid512):
    res = solve_picard(p_ex, grid512)
    d = res.to_dict()
    assert set(d) == {"converged", "diverged", "iterations", "step_norms",
                      "volterra_residual", "boundary_residual"}
    assert d["converged"] is True
    assert isinstance(d["step_norms"], list)


def test_bounds_defaults():
    b = Bounds()
    assert b.N_bound is None and b.zeta is None and b.L is None
    assert b.eta is None


def test_bounds_validation():
    with pytest.raises(ValueError, match="bounds.L"):
        Bounds(L=-1.0)
    with pytest.raises(ValueError, match="bounds.N"):
        Bounds(N_bound=math.inf)
    with pytest.raises(ValueError, match="bounds.zeta"):
        Bounds(zeta=math.nan)
    assert Bounds(N_bound=0.0, zeta=0.0, L=0.0).L == 0.0


@pytest.mark.parametrize("n", [64, 513])
def test_one_picard_step_is_apply_t(p_ex, n):
    """The array loop takes the same step as the public operator, bit for
    bit, from the boundary term."""
    g = Grid(0.0, 1.0, n, 2.0)
    step = solve_picard(p_ex, g, max_iter=1).solution.values
    assert np.array_equal(step, apply_T(p_ex, boundary_term(p_ex, g)).values)


def test_linear_part_built_once_per_solve(p_ex, monkeypatch):
    from hilferbvp import bvpsolve

    calls = []
    real = bvpsolve._linear
    monkeypatch.setattr(bvpsolve, "_linear",
                        lambda p, g: calls.append(g) or real(p, g))
    g = Grid(0.0, 1.0, 64, 2.0)
    counts = []
    for max_iter in (1, 20):
        calls.clear()
        res = solve_picard(p_ex, g, max_iter=max_iter)
        counts.append(len(calls))
    assert res.iterations > 1
    assert counts == [1, 1]
