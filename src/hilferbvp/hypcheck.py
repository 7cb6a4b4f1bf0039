"""Existence and uniqueness hypothesis checking.

Three fixed-point routes certify solutions of the weighted boundary value
problem, each gated by computable constants:

  * Schauder:        growth bound |f| <= N (1 + zeta ||z||) and G < 1
                     give a solution in the ball of radius r = Omega/(1-G);
  * Schaefer:        a pointwise dominator eta gives a solution with
                     a-priori bound ell (computed from the literal form of
                     the bound, which carries a Gamma(alpha)/B(alpha,1)
                     factor; flagged in the report);
  * Krasnoselskii:   Lipschitz f with W < 1 splits T into a contraction
                     plus a compact part; with the contraction constant
                     K_con < 1 the solution is also unique.

Growth and Lipschitz constants may be certified by the user or estimated by
sampling; estimated constants never certify a theorem unless the caller
opts in (trust_estimates).  All norms are weighted sup norms: the growth
condition is applied to (t-a)^(1-gamma) f, which is the reading under which
an f singular at a (like the built-in example) has finite constants.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from . import exprlang
from .bvpsolve import Bounds, ProblemSpec
from .exprlang import Expr
from .gridfn import Grid
from .specfun import PoleError, beta as beta_fn, gamma

__all__ = [
    "HypothesisReport", "compute_G", "compute_Omega", "compute_W",
    "compute_contraction", "compute_Lambda", "compute_ell",
    "estimate_lipschitz", "estimate_growth", "weighted_sup",
    "applicability_report",
]


def compute_G(p: ProblemSpec, n_bound: float, zeta: float) -> float:
    """Growth-route contraction constant:
    Gamma(gamma)/Gamma(alpha+1) [(b-a)^alpha + (b-a)^(alpha+1-gamma)] N zeta."""
    ba = p.b - p.a
    g = p.gamma
    return (gamma(g) / gamma(p.alpha + 1.0)
            * (ba ** p.alpha + ba ** (p.alpha + 1.0 - g)) * n_bound * zeta)


def compute_Omega(p: ProblemSpec, n_bound: float) -> float:
    """Offset of the ball map; r = Omega / (1 - G) when G < 1.

    The e-term enters with its sign (no absolute value), matching the
    published bound; a negative Omega is reported as r = 0 with a warning.
    """
    ba = p.b - p.a
    g = p.gamma
    return (p.boundary_const
            + abs(p.resolvent) / gamma(g)
            * (ba ** (p.alpha + 1.0 - g) / gamma(2.0 - g + p.alpha)
               + ba ** (2.0 * p.alpha + 1.0 - g) / gamma(p.alpha + 1.0))
            * n_bound)


def _w_bracket(p: ProblemSpec) -> float:
    """[ |1/(1+c/d)| / Gamma(gamma) + B(gamma-1, alpha+1)/Gamma(gamma-1) ]
    * Gamma(gamma-1) (b-a)^alpha / (B(gamma-1, 1) Gamma(alpha+1)).

    Raises PoleError at gamma = 1 where Gamma(gamma-1) blows up.
    """
    g = p.gamma
    br = (abs(p.resolvent) / gamma(g)
          + beta_fn(g - 1.0, p.alpha + 1.0) / gamma(g - 1.0))
    return (br * gamma(g - 1.0) * (p.b - p.a) ** p.alpha
            / (beta_fn(g - 1.0, 1.0) * gamma(p.alpha + 1.0)))


def compute_W(p: ProblemSpec, lips: float) -> float:
    """Krasnoselskii compact-part constant; needs W < 1."""
    return _w_bracket(p) * lips


def compute_contraction(p: ProblemSpec, lips: float) -> float:
    """Lipschitz constant of the contraction part T1:
    |1/(1+c/d)| (b-a)^alpha L / Gamma(alpha+1)."""
    return abs(p.resolvent) * (p.b - p.a) ** p.alpha * lips / gamma(p.alpha + 1.0)


def compute_Lambda(p: ProblemSpec, f0_norm: float) -> float:
    """Radius offset for the Krasnoselskii ball, epsilon = Lambda/(1 - W).

    The bound has no L term: the fixed part of f carries the mass.
    """
    return _w_bracket(p) * f0_norm + p.boundary_const


def compute_ell(p: ProblemSpec, eta_norm: float) -> float:
    """A-priori bound radius for the dominator route, in its literal form
    (keeping the Gamma(alpha)/B(alpha,1) = Gamma(alpha+1) factor and the
    (b-a)^(-1) normalization; the report marks it 'literal-form')."""
    ba = p.b - p.a
    g = p.gamma
    return (ba ** 0 / gamma(g) * p.e / (p.d * (1.0 + p.c / p.d))
            + (abs(p.resolvent) * ba ** (-1.0) / gamma(g)
               * gamma(p.alpha) / beta_fn(p.alpha, 1.0)
               + beta_fn(g, 1.0) / (gamma(p.alpha) * ba ** g))
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
    """max over sample nodes of (t-a)^(1-gamma) |expr(t, 0)|."""
    ts = _t_samples(p, grid)
    v = np.abs(exprlang.evaluate(expr, ts, 0.0))
    return float(((ts - p.a) ** p.sigma * v).max())


def estimate_lipschitz(f: Expr, p: ProblemSpec, grid: Grid | None = None) -> float:
    """Sampled Lipschitz constant of f in z over [-Z_RANGE, Z_RANGE].

    Slopes are taken between consecutive z samples and between tight
    centered pairs, so the estimate approaches the true constant from below.
    """
    ts = _t_samples(p, grid)
    zs = np.linspace(-Z_RANGE, Z_RANGE, Z_SAMPLES)
    tight = Z_RANGE * 1e-3
    # pair endpoints: consecutive samples, then every fourth plus `tight`
    z1 = np.concatenate([zs[:-1], zs[:-1:4]])
    z2 = np.concatenate([zs[1:], zs[:-1:4] + tight])
    v1 = exprlang.evaluate(f, ts[:, None], z1)
    v2 = exprlang.evaluate(f, ts[:, None], z2)
    return float((np.abs(v2 - v1) / (z2 - z1)).max())


def estimate_growth(f: Expr, p: ProblemSpec,
                    grid: Grid | None = None) -> tuple[float, float]:
    """Sampled (N, zeta) with (t-a)^(1-gamma) |f(t, z)| <= N (1 + zeta R)
    for test profiles z = +-R (t-a)^(gamma-1), R in a small ladder.

    Returns N = M(0) and zeta = max_R (M(R) - M(0)) / (N R); when f
    vanishes at z = 0 the slope itself is returned as N with zeta = 1.
    """
    ts = _t_samples(p, grid)
    tau = ts - p.a

    def m_of(rad: float) -> float:
        zval = rad * tau ** (-p.sigma)
        zz = np.stack([zval, -zval]) if rad else zval
        v = np.abs(exprlang.evaluate(f, ts, zz))
        return float((tau ** p.sigma * v).max())

    m0 = m_of(0.0)
    slope = 0.0
    for rad in (0.0625, 0.25, 1.0, 4.0):
        slope = max(slope, (m_of(rad) - m0) / rad)
    slope = max(slope, 0.0)
    if m0 == 0.0:
        return (slope, 1.0) if slope > 0.0 else (0.0, 0.0)
    return m0, slope / m0


# ------------------------------------------------------------------- report

@dataclass(frozen=True)
class HypothesisReport:
    G: float | None
    Omega: float | None
    r: float | None
    ell: float | None
    W: float | None
    Lambda: float | None
    epsilon: float | None
    K_con: float | None
    schauder_applies: bool
    schaefer_applies: bool
    krasnoselskii_applies: bool
    unique: bool
    inputs_used: dict = field(default_factory=dict)
    resolved: dict = field(default_factory=dict)
    reasons: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)


def applicability_report(p: ProblemSpec, grid: Grid | None = None, *,
                         trust_estimates: bool = False) -> HypothesisReport:
    """Compute every hypothesis constant and decide which theorems certify.

    A flag is set only when its inequality holds AND the constants feeding
    it are certified: supplied by the user, or estimated with
    trust_estimates = True.  Sampled sup norms of user-supplied expressions
    (f at z = 0, eta) count as certified.  A constant whose formula
    overflows raises an OverflowError that names it and [a, b].
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

    nz = None

    def growth():
        nonlocal nz
        if nz is None:
            nz = estimate_growth(p.f, p, grid)
        return nz

    n_bound, n_ok = pick("N_bound", bounds.N_bound, lambda: growth()[0])
    zeta, z_ok = pick("zeta", bounds.zeta, lambda: growth()[1])
    lips, l_ok = pick("L", bounds.L, lambda: estimate_lipschitz(p.f, p, grid))
    if inputs["N_bound"] == "estimated" or inputs["zeta"] == "estimated":
        if not trust_estimates:
            reasons["growth"] = ("N/zeta are sampled estimates; pass "
                                 "trust_estimates to certify them")
    if inputs["L"] == "estimated" and not trust_estimates:
        reasons["lipschitz"] = ("L is a sampled estimate; pass "
                                "trust_estimates to certify it")

    f0_norm = weighted_sup(p.f, p, grid)
    resolved["f0_norm"] = f0_norm

    def const(name, formula, *args):
        try:
            return formula(p, *args)
        except OverflowError as exc:
            raise OverflowError(
                f"constant {name} overflows on [a, b] = [{p.a}, {p.b}]") from exc

    # Schauder route
    G = const("G", compute_G, n_bound, zeta)
    Omega = const("Omega", compute_Omega, n_bound)
    r = None
    if G < 1.0:
        r = Omega / (1.0 - G)
        if r < 0.0:
            reasons["r"] = ("Omega is negative (signed e-term); radius "
                            "clamped to 0")
            r = 0.0
    else:
        reasons["schauder"] = f"G = {G:.6g} >= 1"
    schauder = G < 1.0 and n_ok and z_ok

    # Krasnoselskii route (and uniqueness)
    W = K_con = Lambda = epsilon = None
    kras = False
    try:
        W = const("W", compute_W, lips)
        K_con = const("K_con", compute_contraction, lips)
        Lambda = const("Lambda", compute_Lambda, f0_norm)
        if W < 1.0:
            epsilon = Lambda / (1.0 - W)
        ineq = W < 1.0 and K_con < 1.0
        if not ineq:
            reasons["krasnoselskii"] = (
                f"W = {W:.6g}, K_con = {K_con:.6g}; both must be < 1")
        kras = ineq and l_ok
    except PoleError:
        reasons["krasnoselskii"] = (
            "constant formula inapplicable at gamma = 1 (Gamma(0) pole)")

    # Schaefer route: needs a pointwise dominator
    ell = None
    eta_norm = None
    schaefer = False
    if bounds.eta is not None:
        inputs["eta"] = "user"
        eta_norm = weighted_sup(bounds.eta, p, grid)
        ell = const("ell", compute_ell, eta_norm)
        schaefer = True
        reasons.setdefault("ell", "literal-form bound")
    elif f0_norm >= 0.0 and lips == 0.0 and l_ok:
        # z-independent f dominates itself
        inputs["eta"] = "fallback-f0"
        eta_norm = f0_norm
        ell = const("ell", compute_ell, eta_norm)
        schaefer = True
        reasons.setdefault("ell", "literal-form bound; eta taken as |f(., 0)|")
    else:
        inputs["eta"] = "absent"
        reasons["schaefer"] = "no dominator eta supplied"
    resolved["eta_norm"] = eta_norm

    return HypothesisReport(
        G=G, Omega=Omega, r=r, ell=ell, W=W, Lambda=Lambda, epsilon=epsilon,
        K_con=K_con, schauder_applies=schauder, schaefer_applies=schaefer,
        krasnoselskii_applies=kras, unique=kras,
        inputs_used=inputs, resolved=resolved, reasons=reasons)
