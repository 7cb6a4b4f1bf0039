import math

import numpy as np
import pytest

from hilferbvp.specfun import PoleError, beta, gamma

from conftest import ORACLE


def test_small_integers_and_half():
    assert gamma(1.0) == pytest.approx(1.0, rel=1e-14)
    assert gamma(2.0) == pytest.approx(1.0, rel=1e-14)
    assert gamma(5.0) == pytest.approx(24.0, rel=1e-13)
    assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-13)


def test_frozen_reference_values():
    assert gamma(2.0 / 3.0) == pytest.approx(ORACLE["gamma_2_3"], abs=1e-6)
    assert gamma(-1.0 / 3.0) == pytest.approx(ORACLE["gamma_m1_3"], abs=1e-6)


def test_matches_stdlib_for_positive_arguments():
    # independent implementation check across the range the package uses
    rng = np.random.default_rng(101)
    for x in rng.uniform(1e-3, 30.0, size=2000):
        assert abs(gamma(x) - math.gamma(x)) <= 1e-13 * abs(math.gamma(x))


def test_recurrence_property():
    rng = np.random.default_rng(102)
    checked = 0
    while checked < 500:
        x = float(rng.uniform(-5.0, 5.0))
        if round(x) <= 0 and abs(x - round(x)) < 1e-3:
            continue
        assert gamma(x + 1.0) == pytest.approx(x * gamma(x), rel=1e-12)
        checked += 1


def test_reflection_property():
    rng = np.random.default_rng(103)
    checked = 0
    while checked < 500:
        x = float(rng.uniform(-4.0, 4.0))
        if abs(x - round(x)) < 1e-3:
            continue
        lhs = gamma(x) * gamma(1.0 - x)
        rhs = math.pi / math.sin(math.pi * x)
        assert lhs == pytest.approx(rhs, rel=1e-10)
        checked += 1


def test_positive_on_positive_axis():
    rng = np.random.default_rng(104)
    for x in rng.uniform(1e-2, 20.0, size=500):
        assert gamma(float(x)) > 0.0


@pytest.mark.parametrize("x", [0.0, -1.0, -2.0, -7.0, -3.0 + 1e-13])
def test_pole_errors(x):
    with pytest.raises(PoleError):
        gamma(x)


def test_gamma_of_nan_raises():
    with pytest.raises(ValueError, match="gamma of nan"):
        gamma(math.nan)


def test_beta_symmetry_and_values():
    rng = np.random.default_rng(105)
    for _ in range(200):
        x, y = rng.uniform(0.05, 6.0, size=2)
        assert beta(float(x), float(y)) == pytest.approx(
            beta(float(y), float(x)), rel=1e-13)
    # B(x, 1) = 1/x
    assert beta(2.5, 1.0) == pytest.approx(0.4, rel=1e-13)
    # B(x, y) via the integral identity at a known point
    assert beta(0.5, 0.5) == pytest.approx(math.pi, rel=1e-12)


def test_beta_pole_propagates():
    with pytest.raises(PoleError):
        beta(-1.0, 0.5)
    with pytest.raises(PoleError):
        beta(0.5, -0.5)  # x + y = 0 pole
