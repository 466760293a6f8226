import math

import numpy as np
import pytest
from scipy.integrate import quad

from battleopt import gamma_fn, levy_sample, levy_sigma
from battleopt.core import make_rng

from conftest import FixedRng

# High-precision direct evaluation of the sigma formula at beta = 1.5
# (40-digit arithmetic, frozen).
SIGMA_BETA_15 = 0.6965745025576968


def gamma_by_quadrature(z: float) -> float:
    value, _ = quad(lambda t: t ** (z - 1.0) * math.exp(-t), 0.0, math.inf)
    return value


def test_gamma_integer_values():
    assert gamma_fn(1.0) == 1.0
    assert gamma_fn(5.0) == 24.0


def test_gamma_half_matches_quadrature_oracle():
    oracle = gamma_by_quadrature(0.5)
    assert gamma_fn(0.5) == pytest.approx(oracle, rel=1e-10)
    assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-12)


def test_gamma_domain_error():
    for z in (0.0, -1.0, -0.5):
        with pytest.raises(ValueError):
            gamma_fn(z)


def test_sigma_is_one_at_beta_one():
    assert levy_sigma(1.0) == 1.0


def test_sigma_matches_high_precision_value():
    assert abs(levy_sigma(1.5) - SIGMA_BETA_15) < 1e-9


def test_sigma_domain_errors():
    for beta in (0.0, -0.5, 2.0, 2.5):
        with pytest.raises(ValueError):
            levy_sigma(beta)


def test_sigma_overflow_is_a_value_error_naming_beta():
    for beta in (1e-323, 1e-300, 3.1e-4):
        with pytest.raises(ValueError, match=f"beta={beta!r}"):
            levy_sigma(beta)
    assert math.isfinite(levy_sigma(3.3e-4))


def test_sample_zero_numerator_gives_zero_step():
    rng = FixedRng(normals=[0.0, 0.0, 0.0, 0.7, -1.1, 0.4])
    steps = levy_sample(1.5, 3, rng)
    np.testing.assert_array_equal(steps, np.zeros(3))


def test_sample_deterministic_for_fixed_seed():
    a = levy_sample(1.5, 32, make_rng(9))
    b = levy_sample(1.5, 32, make_rng(9))
    np.testing.assert_array_equal(a, b)


def test_sample_rejects_bad_dim_and_beta():
    with pytest.raises(ValueError):
        levy_sample(1.5, 0, make_rng(0))
    with pytest.raises(ValueError):
        levy_sample(2.0, 4, make_rng(0))
    # a bad beta is named before a bad dim and before any draw (an empty
    # scripted stream raises IndexError on a draw)
    for beta, message in ((2.0, "open interval"), (math.nan, "open interval"),
                          (1e-300, "beta=1e-300")):
        with pytest.raises(ValueError, match=message):
            levy_sample(beta, 0, FixedRng())


def test_tail_and_symmetry_smoke():
    # Lighter version of the acceptance-scale properties (1e5 samples).
    steps = levy_sample(1.5, 100_000, make_rng(3))
    assert np.mean(np.abs(steps) > 5.0) >= 0.004
    assert 0.48 <= np.mean(steps > 0) <= 0.52
