"""Tests for the hypothesis constants and the applicability report."""

import json
from dataclasses import asdict

import numpy as np
import pytest

from hilferbvp.bvpsolve import Bounds, ProblemSpec, solve_picard
from hilferbvp.exprlang import parse
from hilferbvp.hypcheck import (
    HypothesisReport,
    applicability_report,
    compute_B,
    compute_G,
    compute_Lambda,
    compute_Omega,
    compute_W,
    compute_contraction,
    compute_ell,
    estimate_growth,
    estimate_lipschitz,
    weighted_sup,
)
from hilferbvp.gridfn import Grid
from hilferbvp.specfun import beta, gamma

from conftest import ORACLE, EXAMPLE_ETA, example_problem

L4 = 0.0625
N4 = 1.0
ZETA4 = 0.0625
ETA_NORM4 = 17.0 / 16.0
F0_NORM4 = 1.0


def test_constants_match_reference(p_ex):
    assert compute_G(p_ex, N4, ZETA4) == pytest.approx(ORACLE["G"], rel=1e-12)
    assert compute_Omega(p_ex, N4) == pytest.approx(ORACLE["Omega"], rel=1e-12)
    assert compute_W(p_ex, L4) == pytest.approx(ORACLE["W"], rel=1e-12)
    assert compute_contraction(p_ex, L4) == pytest.approx(
        ORACLE["K_con"], rel=1e-12)
    assert compute_Lambda(p_ex, F0_NORM4) == pytest.approx(
        ORACLE["Lambda"], rel=1e-12)
    assert compute_ell(p_ex, ETA_NORM4) == pytest.approx(
        ORACLE["ell"], rel=1e-12)


def test_derived_radius_and_epsilon(p_ex):
    g = compute_G(p_ex, N4, ZETA4)
    r = compute_Omega(p_ex, N4) / (1.0 - g)
    assert r == pytest.approx(ORACLE["r"], rel=1e-12)
    w = compute_W(p_ex, L4)
    eps = compute_Lambda(p_ex, F0_NORM4) / (1.0 - w)
    assert eps == pytest.approx(ORACLE["epsilon"], rel=1e-12)


@pytest.mark.parametrize("alpha,beta_", [(0.5, 1.0 / 3.0), (0.1, 0.0),
                                         (0.3, 0.7), (0.9, 0.5), (0.6, 0.95)])
def test_B_matches_paper_bracket(alpha, beta_):
    """B equals the paper's bracket, written with Beta functions, wherever
    that form is defined (gamma < 1)."""
    p = ProblemSpec(alpha=alpha, beta=beta_, a=0.5, b=2.0, c=-0.2, d=0.9,
                    e=0.4, f=parse("0"))
    g = p.gamma
    bracket = (abs(p.resolvent) / gamma(g)
               + beta(g - 1.0, alpha + 1.0) / gamma(g - 1.0))
    want = (bracket * gamma(g - 1.0) * 1.5 ** alpha
            / (beta(g - 1.0, 1.0) * gamma(alpha + 1.0)))
    assert compute_B(p) == pytest.approx(want, rel=1e-13)
    # K_con is B's first term times L
    first = abs(p.resolvent) * 1.5 ** alpha / gamma(alpha + 1.0)
    assert compute_contraction(p, 0.3) == pytest.approx(0.3 * first, rel=1e-15)
    assert compute_W(p, 0.3) == pytest.approx(0.3 * compute_B(p), rel=1e-15)


def test_G_self_consistency(p_ex):
    """G is linear in N * zeta, so scaling zeta to 1/G(1,1) gives exactly 1."""
    base = compute_G(p_ex, 1.0, 1.0)
    assert compute_G(p_ex, 1.0, 1.0 / base) == 1.0
    assert compute_G(p_ex, 2.0, 3.0) == pytest.approx(6.0 * base, rel=1e-15)


def test_contraction_matches_literal_form(p_ex):
    want = (abs(p_ex.resolvent) * (p_ex.b - p_ex.a) ** p_ex.alpha * L4
            / gamma(p_ex.alpha + 1.0))
    assert compute_contraction(p_ex, L4) == pytest.approx(want, rel=1e-14)


def test_W_linear_in_L(p_ex):
    assert compute_W(p_ex, 2.0 * L4) == pytest.approx(
        2.0 * compute_W(p_ex, L4), rel=1e-15)
    assert compute_W(p_ex, 0.0) == 0.0


def test_weighted_sup_example(p_ex):
    # (t-a)^(1/3) |f(t, 0)| = t^(1/6), maximal at t = b = 1
    assert weighted_sup(p_ex.f, p_ex) == pytest.approx(1.0, rel=1e-12)
    assert weighted_sup(parse(EXAMPLE_ETA), p_ex) == pytest.approx(
        ETA_NORM4, rel=1e-12)


def test_lipschitz_estimate_window(p_ex):
    got = estimate_lipschitz(p_ex.f, p_ex)
    assert 0.0624 <= got <= 0.0625 + 1e-9


def test_growth_estimate_window(p_ex):
    n, zeta = estimate_growth(p_ex.f, p_ex)
    assert n == pytest.approx(1.0, rel=1e-6)
    assert 0.05 <= zeta <= 0.0625 + 1e-9


def test_growth_estimate_zero_at_origin():
    p = ProblemSpec(alpha=0.5, beta=1.0 / 3.0, a=0.0, b=1.0,
                    c=0.25, d=0.75, e=0.4, f=parse("z/8"))
    n, zeta = estimate_growth(p.f, p)
    assert n > 0.0
    assert zeta == 1.0


def test_report_certified_inputs(p_ex):
    rep = applicability_report(p_ex)
    assert rep.G == pytest.approx(ORACLE["G"], rel=1e-12)
    assert rep.Omega == pytest.approx(ORACLE["Omega"], rel=1e-12)
    assert rep.r == pytest.approx(ORACLE["r"], rel=1e-12)
    assert rep.W == pytest.approx(ORACLE["W"], rel=1e-12)
    assert rep.K_con == pytest.approx(ORACLE["K_con"], rel=1e-12)
    assert rep.Lambda == pytest.approx(ORACLE["Lambda"], rel=1e-12)
    assert rep.epsilon == pytest.approx(ORACLE["epsilon"], rel=1e-12)
    assert rep.ell == pytest.approx(ORACLE["ell"], rel=1e-12)
    assert rep.schauder_applies
    assert rep.schaefer_applies
    assert rep.krasnoselskii_applies
    assert rep.unique
    assert rep.inputs_used["N_bound"] == "user"
    assert rep.inputs_used["L"] == "user"
    assert rep.inputs_used["eta"] == "user"


def test_report_untrusted_estimates():
    p = example_problem(with_bounds=False)
    rep = applicability_report(p)
    # inequalities hold numerically but nothing is certified
    assert rep.G is not None and rep.G < 1.0
    assert rep.W is not None and rep.W < 1.0
    assert not rep.schauder_applies
    assert not rep.krasnoselskii_applies
    assert not rep.schaefer_applies
    assert not rep.unique
    assert rep.inputs_used["N_bound"] == "estimated"
    assert rep.inputs_used["L"] == "estimated"
    assert "trust_estimates" in rep.reasons["growth"]
    assert "trust_estimates" in rep.reasons["lipschitz"]
    assert rep.reasons["schaefer"] == "no dominator eta supplied"


def test_report_trusted_estimates():
    p = example_problem(with_bounds=False)
    rep = applicability_report(p, trust_estimates=True)
    assert rep.schauder_applies
    assert rep.krasnoselskii_applies
    assert rep.unique
    # f depends on z, so there is still no pointwise dominator
    assert not rep.schaefer_applies


def test_report_fallback_eta_for_z_independent_f():
    p = ProblemSpec(alpha=0.5, beta=1.0 / 3.0, a=0.0, b=1.0,
                    c=0.25, d=0.75, e=0.4, f=parse("t^(-1/6)"))
    rep = applicability_report(p, trust_estimates=True)
    assert rep.inputs_used["eta"] == "fallback-f0"
    assert rep.schaefer_applies
    assert rep.ell is not None
    assert "eta taken as |f(., 0)|" in rep.reasons["ell"]


def test_report_gamma_one_pole():
    # beta = 1 gives gamma = 1, where the paper's Beta-function form of W
    # has a removable pole; B is finite there and certifies the route
    p = ProblemSpec(alpha=0.5, beta=1.0, a=0.0, b=1.0,
                    c=1.0, d=1.0, e=2.0, f=parse("0.25*sin(z)"),
                    bounds=Bounds(N_bound=0.0, zeta=0.0, L=0.25))
    rep = applicability_report(p)
    want_b = 0.5 / gamma(1.5) + 1.0 / gamma(1.5)
    assert rep.B == pytest.approx(want_b, rel=1e-15)
    assert rep.W == pytest.approx(0.25 * want_b, rel=1e-15)
    assert rep.K_con == pytest.approx(0.125 / gamma(1.5), rel=1e-15)
    assert rep.epsilon == pytest.approx(rep.Lambda / (1.0 - rep.W), rel=1e-15)
    assert rep.krasnoselskii_applies
    assert rep.unique
    assert "krasnoselskii" not in rep.reasons
    assert rep.G == 0.0
    assert rep.schauder_applies


def test_report_radius_clamped_for_negative_term(p_ex):
    # a negative e-term makes the paper's Omega, r, Lambda, epsilon and ell
    # negative; they are reported as they are, and the radii, built from
    # |boundary_const|, still contain the solution (|w| = 74.5 on a fine mesh)
    p = ProblemSpec(alpha=p_ex.alpha, beta=p_ex.beta, a=p_ex.a, b=p_ex.b,
                    c=p_ex.c, d=p_ex.d, e=-100.0, f=p_ex.f, bounds=p_ex.bounds)
    rep = applicability_report(p)
    assert rep.Omega < 0.0
    assert rep.r == pytest.approx(rep.Omega / (1.0 - rep.G), rel=1e-15)
    assert rep.r < 0.0 and rep.epsilon < 0.0 and rep.ell < 0.0
    assert "r" not in rep.reasons
    res = solve_picard(p, Grid(0.0, 1.0, 256, 2.0), tol=1e-10)
    assert res.converged
    w_norm = float(np.abs(res.solution.values).max())
    assert w_norm == pytest.approx(74.5, abs=0.1)
    assert set(rep.radii) == {"schauder", "krasnoselskii", "schaefer"}
    for radius in rep.radii.values():
        assert w_norm <= radius


def test_report_json_round_trip(p_ex):
    rep = applicability_report(p_ex)
    data = json.loads(json.dumps(asdict(rep)))
    assert set(data) >= {"G", "Omega", "r", "ell", "W", "Lambda", "epsilon",
                         "K_con", "schauder_applies", "schaefer_applies",
                         "krasnoselskii_applies", "unique", "inputs_used",
                         "resolved", "reasons"}
    assert data["unique"] is True
    assert data["resolved"]["f0_norm"] == pytest.approx(1.0, rel=1e-12)


def test_report_is_plain_data(p_ex):
    rep = applicability_report(p_ex)
    assert isinstance(rep, HypothesisReport)
    for name in ("G", "Omega", "r", "ell", "W", "Lambda", "epsilon", "K_con"):
        value = getattr(rep, name)
        assert value is None or isinstance(value, float)
