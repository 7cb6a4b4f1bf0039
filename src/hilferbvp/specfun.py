"""Gamma and Beta functions on the real line.

gamma is the standard library's math.gamma behind a pole guard: arguments
within POLE_TOL of 0, -1, -2, ... raise PoleError instead of returning a
huge, meaningless value.
"""
from __future__ import annotations

import math

__all__ = ["PoleError", "gamma", "beta", "POLE_TOL"]

# arguments this close to a non-positive integer count as sitting on a pole
POLE_TOL = 1e-12


class PoleError(ValueError):
    """Gamma evaluated at (or within POLE_TOL of) a non-positive integer."""


def _near_pole(x: float) -> bool:
    if x > 0.5:
        return False
    k = round(x)
    return k <= 0 and abs(x - k) < POLE_TOL


def gamma(x: float) -> float:
    """Gamma(x) for real x away from the poles at 0, -1, -2, ...

    Raises PoleError within POLE_TOL of a pole.
    """
    x = float(x)
    if math.isnan(x):
        raise ValueError("gamma of nan")
    if _near_pole(x):
        raise PoleError(f"gamma pole at x = {x!r}")
    return math.gamma(x)


def beta(x: float, y: float) -> float:
    """Beta(x, y) = Gamma(x) Gamma(y) / Gamma(x + y).

    Defined for arguments (and their sum) away from non-positive integers;
    PoleError propagates from gamma otherwise.
    """
    return gamma(x) * gamma(y) / gamma(x + y)
