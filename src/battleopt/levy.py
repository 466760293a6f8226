"""Levy flight step sampling via the Mantegna construction.

A step component is u / |v|^(1/beta) with u ~ N(0, sigma^2) and
v ~ N(0, 1), where sigma depends on the stability index beta. Steps are
sampled independently per dimension. beta is restricted to the open
interval (0, 2): sigma degenerates to 0 at beta = 2.
"""

import functools
import math

import numpy as np

__all__ = ["DEFAULT_BETA", "gamma_fn", "levy_sigma", "levy_sample"]

DEFAULT_BETA = 1.5


# Rational form of Gamma(2 + x) on 0 <= x < 1 (cephes gamma.c), highest
# power first as ``polevl`` takes it.
_GAMMA_P = (1.60119522476751861407e-4, 1.19135147006586384913e-3,
            1.04213797561761569935e-2, 4.76367800457137231464e-2,
            2.07448227648435975150e-1, 4.94214826801497100753e-1,
            9.99999999999999996796e-1)
_GAMMA_Q = (-2.31581873324120129819e-5, 5.39605580493303397842e-4,
            -4.45641913851797240494e-3, 1.18139785222060435552e-2,
            3.58236398605498653373e-2, -2.34591795718243348568e-1,
            7.14304917030273074085e-2, 1.00000000000000000320e0)
_EULER_GAMMA = 0.5772156649015329


def gamma_fn(z: float) -> float:
    """Gamma function on 0 < z < 33, bit-identical to cephes/scipy Gamma there.

    A port of the cephes ``Gamma`` branch below 33 in plain float
    arithmetic: the recurrence shifts z into [2, 3), where a P(6)/Q(7)
    rational form is evaluated by Horner in ``polevl`` order. Any other z,
    NaN and the infinities included, raises ``ValueError``.
    """
    if not 0.0 < z < 33.0:
        raise ValueError(f"gamma_fn requires 0 < z < 33, got {z!r}")
    x = float(z)
    scale = 1.0  # Gamma(z) = scale * Gamma(x) after each shift
    while x >= 3.0:
        x -= 1.0
        scale *= x
    while x < 2.0:
        if x < 1e-9:
            return scale / ((1.0 + _EULER_GAMMA * x) * x)
        scale /= x
        x += 1.0
    if x == 2.0:
        return scale
    x -= 2.0
    p = q = 0.0
    for c in _GAMMA_P:
        p = p * x + c
    for c in _GAMMA_Q:
        q = q * x + c
    return scale * p / q


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
    sigma = levy_sigma(beta)
    if dim < 1:
        raise ValueError(f"dim must be at least 1, got {dim}")
    u = rng.normal(0.0, sigma, dim)
    v = rng.normal(0.0, 1.0, dim)
    return u / np.abs(v) ** (1.0 / beta)


def _check_beta(beta: float) -> None:
    if not 0.0 < beta < 2.0:
        raise ValueError(f"beta must lie in the open interval (0, 2), got {beta}")
