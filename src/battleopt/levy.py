"""Levy flight step sampling via the Mantegna construction.

A step component is u / |v|^(1/beta) with u ~ N(0, sigma^2) and
v ~ N(0, 1), where sigma depends on the stability index beta. Steps are
sampled independently per dimension. beta is restricted to the open
interval (0, 2): sigma degenerates to 0 at beta = 2.
"""

import functools
import math

import numpy as np
from scipy.special import gamma as _gamma

__all__ = ["DEFAULT_BETA", "gamma_fn", "levy_sigma", "levy_sample"]

DEFAULT_BETA = 1.5


def gamma_fn(z: float) -> float:
    """Gamma function on the positive reals, accurate to >= 10 digits."""
    if z <= 0:
        raise ValueError(f"gamma_fn requires z > 0, got {z}")
    return float(_gamma(z))


def levy_sigma(beta: float) -> float:
    """Scale of the numerator normal in the Mantegna step.

    sigma = {Gamma(1+b) sin(pi b / 2) / [b Gamma((1+b)/2) 2^((b-1)/2)]}^(1/b),
    which equals 1 exactly at beta = 1. Every Levy step needs it, so the
    value is computed once per ``float(beta)`` and cached. Below beta of
    about 3.18e-4 the power overflows and a ``ValueError`` names the beta.
    """
    _check_beta(beta)
    return _levy_sigma(float(beta))


@functools.lru_cache(maxsize=32)  # one beta per run; bounded for beta sweeps
def _levy_sigma(beta: float) -> float:
    num = gamma_fn(1.0 + beta) * math.sin(math.pi * beta / 2.0)
    den = beta * gamma_fn((1.0 + beta) / 2.0) * 2.0 ** ((beta - 1.0) / 2.0)
    exponent = 1.0 / beta
    try:
        sigma = (num / den) ** exponent
    except OverflowError:
        sigma = math.inf
    # a subnormal beta makes the exponent inf, and its ratio may round to 1
    if math.isinf(exponent) or math.isinf(sigma):
        raise ValueError(f"the Levy scale sigma overflows at beta={beta!r}; beta is too small")
    return sigma


def levy_sample(beta: float, dim: int, rng: np.random.Generator) -> np.ndarray:
    """Vector of ``dim`` independent heavy-tailed steps.

    Draw order is fixed (u vector first, then v) so seeded streams
    reproduce exactly.
    """
    _check_beta(beta)
    if dim < 1:
        raise ValueError(f"dim must be at least 1, got {dim}")
    sigma = levy_sigma(beta)
    u = rng.normal(0.0, sigma, dim)
    v = rng.normal(0.0, 1.0, dim)
    return u / np.abs(v) ** (1.0 / beta)


def _check_beta(beta: float) -> None:
    if not 0.0 < beta < 2.0:
        raise ValueError(f"beta must lie in the open interval (0, 2), got {beta}")
