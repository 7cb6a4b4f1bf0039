"""Existence and uniqueness hypothesis checking.

T's linear part (the boundary integral plus I^alpha, weighted) maps a
weighted sup norm ||F|| to at most B ||F||, where

    B = (b-a)^alpha [|rho| / Gamma(alpha+1) + Gamma(gamma) / Gamma(gamma+alpha)],

rho = 1/(1 + c/d), by the power rule for I^mu (s-a)^(gamma-1).  Hence
||T z|| <= |bc| + B ||f(., z)|| with bc the boundary constant, and B alone
decides the three fixed-point routes, each with the radius of a ball that
contains a solution (the report's `radii`):

  * Schauder:        |f| <= N (1 + zeta ||z||) and B N zeta < 1; radius
                     (|bc| + B N) / (1 - B N zeta);
  * Krasnoselskii:   Lipschitz f with W = B L < 1; radius
                     (|bc| + B ||f(., 0)||) / (1 - W).  T is then a
                     contraction, so the solution is also unique;
  * Schaefer:        a pointwise dominator |f(t, z)| <= eta(t); radius
                     |bc| + B ||eta||.

The paper's own constants G, Omega, r, ell, Lambda and epsilon are reported
as literal values for reproduction and decide nothing: G lacks the factor
|rho|, and the others keep the signed e-term.  K_con is the Lipschitz
constant of the contraction part, B's first term times L.

Growth and Lipschitz constants may be certified by the user or estimated by
sampling; estimated constants never certify a theorem unless the caller
opts in (trust_estimates).  All norms are weighted sup norms: the growth
condition is applied to (t-a)^(1-gamma) f, which is the reading under which
an f singular at a (like the built-in example) has finite constants.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import exprlang
from .bvpsolve import Bounds, ProblemSpec
from .exprlang import Expr
from .gridfn import Grid
from .specfun import gamma

__all__ = [
    "HypothesisReport", "compute_B", "compute_G", "compute_Omega", "compute_W",
    "compute_contraction", "compute_Lambda", "compute_ell",
    "estimate_lipschitz", "estimate_growth", "weighted_sup",
    "applicability_report",
]


def compute_B(p: ProblemSpec) -> float:
    """Bound on the weighted sup norm of T's linear part:
    (b-a)^alpha [|rho| / Gamma(alpha+1) + Gamma(gamma) / Gamma(gamma+alpha)]."""
    g = p.gamma
    return (p.b - p.a) ** p.alpha * (abs(p.resolvent) / gamma(p.alpha + 1.0)
                                     + gamma(g) / gamma(g + p.alpha))


def compute_G(p: ProblemSpec, n_bound: float, zeta: float) -> float:
    """The paper's growth-route constant (literal; decides nothing):
    Gamma(gamma)/Gamma(alpha+1) [(b-a)^alpha + (b-a)^(alpha+1-gamma)] N zeta."""
    ba = p.b - p.a
    g = p.gamma
    return (gamma(g) / gamma(p.alpha + 1.0)
            * (ba ** p.alpha + ba ** (p.alpha + 1.0 - g)) * n_bound * zeta)


def compute_Omega(p: ProblemSpec, n_bound: float) -> float:
    """The paper's ball offset, r = Omega/(1 - G) (literal; signed e-term)."""
    ba = p.b - p.a
    g = p.gamma
    return (p.boundary_const
            + abs(p.resolvent) / gamma(g)
            * (ba ** (p.alpha + 1.0 - g) / gamma(2.0 - g + p.alpha)
               + ba ** (2.0 * p.alpha + 1.0 - g) / gamma(p.alpha + 1.0))
            * n_bound)


def compute_W(p: ProblemSpec, lips: float) -> float:
    """Lipschitz constant of T in the weighted sup norm; needs W < 1."""
    return compute_B(p) * lips


def compute_contraction(p: ProblemSpec, lips: float) -> float:
    """Lipschitz constant of the contraction part T1 (B's first term times L):
    |1/(1+c/d)| (b-a)^alpha L / Gamma(alpha+1)."""
    return abs(p.resolvent) * (p.b - p.a) ** p.alpha * lips / gamma(p.alpha + 1.0)


def compute_Lambda(p: ProblemSpec, f0_norm: float) -> float:
    """The paper's offset epsilon = Lambda/(1 - W) (literal; signed e-term)."""
    return compute_B(p) * f0_norm + p.boundary_const


def compute_ell(p: ProblemSpec, eta_norm: float) -> float:
    """The paper's a-priori bound for the eta route (literal; signed e-term)."""
    ba = p.b - p.a
    g = p.gamma
    return (p.boundary_const
            + (abs(p.resolvent) / (ba * gamma(g)) * gamma(p.alpha + 1.0)
               + 1.0 / (g * gamma(p.alpha) * ba ** g))
            * ba ** (1.0 + p.alpha) * eta_norm)


# --------------------------------------------------------------- estimation

T_SAMPLES = 129  # most t-nodes any estimator samples
Z_RANGE = 10.0   # the Lipschitz estimate samples z in [-Z_RANGE, Z_RANGE]
Z_SAMPLES = 129


def _t_samples(p: ProblemSpec, grid: Grid | None) -> np.ndarray:
    """Sample points in (a, b]: grid nodes without a, thinned to T_SAMPLES."""
    if grid is None:
        grid = Grid(p.a, p.b, 128, 2.0)
    ts = grid.nodes[1:]
    if ts.size > T_SAMPLES:
        idx = np.unique(np.linspace(0, ts.size - 1, T_SAMPLES).astype(int))
        ts = ts[idx]
    return ts


def weighted_sup(expr: Expr, p: ProblemSpec, grid: Grid | None = None) -> float:
    """max over sample nodes of (t-a)^(1-gamma) |expr(t, 0)|; inf when the
    weighted product overflows."""
    ts = _t_samples(p, grid)
    v = np.abs(exprlang.evaluate(expr, ts, 0.0))
    with np.errstate(over="ignore"):
        return float(((ts - p.a) ** p.sigma * v).max())


def estimate_lipschitz(f: Expr, p: ProblemSpec, grid: Grid | None = None) -> float:
    """Sampled Lipschitz constant of f in z over [-Z_RANGE, Z_RANGE].

    Slopes are taken between consecutive z samples and between tight
    centered pairs, so the estimate approaches the true constant from below.
    """
    ts = _t_samples(p, grid)
    zs = np.linspace(-Z_RANGE, Z_RANGE, Z_SAMPLES)
    tight = Z_RANGE * 1e-3
    # pairs: consecutive samples, then every fourth plus `tight`; f is
    # evaluated once at each distinct z
    z0 = zs[:-1:4]
    zt = z0 + tight
    v = exprlang.evaluate(f, ts[:, None], np.concatenate([zs, zt]))
    slope = np.diff(v[:, :zs.size], axis=1)
    np.abs(slope, out=slope)
    slope /= np.diff(zs)
    tight_slope = np.abs(v[:, zs.size:] - v[:, :zs.size - 1:4]) / (zt - z0)
    return float(max(slope.max(), tight_slope.max()))


def estimate_growth(f: Expr, p: ProblemSpec,
                    grid: Grid | None = None) -> tuple[float, float]:
    """Sampled (N, zeta) with (t-a)^(1-gamma) |f(t, z)| <= N (1 + zeta R)
    for test profiles z = +-R (t-a)^(gamma-1), R in a small ladder.

    Returns N = M(0) and zeta = max_R (M(R) - M(0)) / (N R); when f
    vanishes at z = 0 the slope itself is returned as N with zeta = 1.
    """
    ts = _t_samples(p, grid)
    tau = ts - p.a
    ladder = np.array([0.0, 0.0625, 0.25, 1.0, 4.0])
    zval = ladder[:, None] * tau ** (-p.sigma)
    v = np.abs(exprlang.evaluate(f, ts, np.stack([zval, -zval])))
    # an overflowing M(R) is left to applicability_report's sup of f;
    # fmax skips the nan slope that inf - inf gives
    with np.errstate(over="ignore", invalid="ignore"):
        m = (tau ** p.sigma * v).max(axis=(0, 2))
        slope = float(np.fmax.reduce((m[1:] - m[0]) / ladder[1:], initial=0.0))
    m0 = float(m[0])
    if m0 == 0.0:
        return (slope, 1.0) if slope > 0.0 else (0.0, 0.0)
    return m0, slope / m0


# ------------------------------------------------------------------- report

@dataclass(frozen=True)
class HypothesisReport:
    B: float
    G: float
    Omega: float
    r: float | None
    ell: float | None
    W: float
    Lambda: float
    epsilon: float | None
    K_con: float
    schauder_applies: bool
    schaefer_applies: bool
    krasnoselskii_applies: bool
    unique: bool
    radii: dict = field(default_factory=dict)
    inputs_used: dict = field(default_factory=dict)
    resolved: dict = field(default_factory=dict)
    reasons: dict = field(default_factory=dict)


def applicability_report(p: ProblemSpec, grid: Grid | None = None, *,
                         trust_estimates: bool = False) -> HypothesisReport:
    """Compute every hypothesis constant and decide which theorems certify.

    A flag is set only when its route's radius exists (its inequality in B
    holds) AND the constants feeding it are certified: supplied by the
    user, or estimated with trust_estimates = True.  Sampled sup norms of
    user-supplied expressions (f at z = 0, eta) count as certified.  A
    constant or radius whose formula overflows raises an OverflowError
    that names it and [a, b].
    """
    bounds = p.bounds or Bounds()
    inputs: dict[str, str] = {}
    resolved: dict[str, float | None] = {}
    reasons: dict[str, str] = {}

    def pick(name, user_value, estimator):
        if user_value is not None:
            inputs[name] = "user"
            resolved[name] = float(user_value)
            return float(user_value), True
        value = estimator()
        inputs[name] = "estimated"
        resolved[name] = value
        return value, trust_estimates

    growth = functools.cache(lambda: estimate_growth(p.f, p, grid))
    n_bound, n_ok = pick("N_bound", bounds.N_bound, lambda: growth()[0])
    zeta, z_ok = pick("zeta", bounds.zeta, lambda: growth()[1])
    lips, l_ok = pick("L", bounds.L, lambda: estimate_lipschitz(p.f, p, grid))
    if "estimated" in (inputs["N_bound"], inputs["zeta"]) and not trust_estimates:
        reasons["growth"] = ("N/zeta are sampled estimates; pass "
                             "trust_estimates to certify them")
    if inputs["L"] == "estimated" and not trust_estimates:
        reasons["lipschitz"] = ("L is a sampled estimate; pass "
                                "trust_estimates to certify it")

    def finite(what, value):
        if value is not None and not np.isfinite(value):
            raise OverflowError(
                f"{what} overflows on [a, b] = [{p.a}, {p.b}]")
        return value

    f0_norm = finite("weighted sup of f", weighted_sup(p.f, p, grid))
    resolved["f0_norm"] = f0_norm

    def const(name, formula, *args):
        # ** raises OverflowError; a product overflows to inf, or nan
        try:
            value = formula(p, *args)
        except OverflowError:
            value = np.inf
        return finite(f"constant {name}", value)

    B = const("B", compute_B)
    G = const("G", compute_G, n_bound, zeta)
    Omega = const("Omega", compute_Omega, n_bound)
    W = const("W", compute_W, lips)
    K_con = const("K_con", compute_contraction, lips)
    Lambda = const("Lambda", compute_Lambda, f0_norm)

    # Schaefer's dominator: eta, or |f(., 0)| for an f certified free of z
    eta_norm = None
    if bounds.eta is not None:
        inputs["eta"] = "user"
        eta_norm = finite("weighted sup of bounds.eta",
                          weighted_sup(bounds.eta, p, grid))
        reasons["ell"] = "literal-form bound"
    elif lips == 0.0 and l_ok:
        inputs["eta"] = "fallback-f0"
        eta_norm = f0_norm
        reasons["ell"] = "literal-form bound; eta taken as |f(., 0)|"
    else:
        inputs["eta"] = "absent"
        reasons["schaefer"] = "no dominator eta supplied"
    resolved["eta_norm"] = eta_norm
    ell = None if eta_norm is None else const("ell", compute_ell, eta_norm)

    # ||T z|| <= |bc| + B ||f(., z)||, so each route's ball maps into itself
    bc = abs(p.boundary_const)
    growth_ratio = B * n_bound * zeta
    radii = {
        "schauder": ((bc + B * n_bound) / (1.0 - growth_ratio)
                     if growth_ratio < 1.0 else None),
        "krasnoselskii": (bc + B * f0_norm) / (1.0 - W) if W < 1.0 else None,
        "schaefer": None if eta_norm is None else bc + B * eta_norm,
    }
    for name, radius in radii.items():
        finite(f"radius {name}", radius)
    if radii["schauder"] is None:
        reasons["schauder"] = f"B N zeta = {growth_ratio:.6g} >= 1"
    if radii["krasnoselskii"] is None:
        reasons["krasnoselskii"] = f"W = {W:.6g} >= 1"
    # W < 1 makes T itself a contraction (K_con <= W), so the solution is
    # also unique
    kras = radii["krasnoselskii"] is not None and l_ok

    return HypothesisReport(
        B=B, G=G, Omega=Omega, r=Omega / (1.0 - G) if G < 1.0 else None,
        ell=ell, W=W, Lambda=Lambda,
        epsilon=Lambda / (1.0 - W) if W < 1.0 else None, K_con=K_con,
        schauder_applies=radii["schauder"] is not None and n_ok and z_ok,
        schaefer_applies=radii["schaefer"] is not None,
        krasnoselskii_applies=kras, unique=kras, radii=radii,
        inputs_used=inputs, resolved=resolved, reasons=reasons)
