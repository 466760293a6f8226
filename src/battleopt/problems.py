"""Benchmark objectives, seeded shift/rotate transforms, and constrained problems.

Every registered benchmark has global minimum 0 at a canonical optimum
point. Transformed variants compose the raw function with a seeded
orthogonal rotation and a shift drawn from the middle of the box, chosen
so the transformed optimum stays inside the search region. Constrained
problems are handled through a static penalty on the violation amounts.
"""

import math
import zlib
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import Bounds, ConfigurationError, make_rng

__all__ = [
    "Problem",
    "Transform",
    "SingularPointError",
    "DEFAULT_PENALTY_WEIGHT",
    "BENCHMARK_NAMES",
    "evaluate_benchmark",
    "benchmark_optimum",
    "random_orthogonal",
    "random_transform",
    "apply_transform",
    "make_problem",
    "resolve_problem",
    "penalized_fitness",
    "three_bar_truss",
    "three_bar_truss_problem",
]

DEFAULT_PENALTY_WEIGHT = 1e7


class SingularPointError(ArithmeticError):
    """An objective or constraint is undefined at the requested point."""


@dataclass
class Problem:
    """Objective contract used by every optimizer.

    ``evaluate`` must be deterministic and total on the box (penalized
    wrappers map singular points to +inf). ``constraints`` hold the raw
    g_i(x) <= 0 functions when the objective came from a constrained
    formulation; the penalty is already folded into ``evaluate``.
    """

    name: str
    dim: int
    bounds: Bounds
    evaluate: Callable[[np.ndarray], float]
    constraints: Optional[list] = None
    known_optimum: Optional[float] = None


# ---------------------------------------------------------------------------
# Raw benchmark functions (minimum 0 at the canonical optimum).
# ---------------------------------------------------------------------------


def sphere(x: np.ndarray) -> float:
    return float(np.sum(x * x))


def bent_cigar(x: np.ndarray) -> float:
    return float(x[0] * x[0] + 1e6 * np.sum(x[1:] * x[1:]))


def zakharov(x: np.ndarray) -> float:
    s1 = float(np.sum(x * x))
    s2 = 0.5 * float(np.sum(np.arange(1, x.size + 1) * x))
    return s1 + s2**2 + s2**4


def rosenbrock(x: np.ndarray) -> float:
    return float(
        np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (x[:-1] - 1.0) ** 2)
    )


def rastrigin(x: np.ndarray) -> float:
    return float(10.0 * x.size + np.sum(x * x - 10.0 * np.cos(2.0 * np.pi * x)))


def ackley(x: np.ndarray) -> float:
    d = x.size
    return float(
        -20.0 * math.exp(-0.2 * math.sqrt(np.sum(x * x) / d))
        - math.exp(np.sum(np.cos(2.0 * np.pi * x)) / d)
        + 20.0
        + math.e
    )


def griewank(x: np.ndarray) -> float:
    prod = float(np.prod(np.cos(x / np.sqrt(np.arange(1, x.size + 1)))))
    return float(1.0 + np.sum(x * x) / 4000.0 - prod)


def levy_fn(x: np.ndarray) -> float:
    w = 1.0 + (x - 1.0) / 4.0
    head = math.sin(math.pi * w[0]) ** 2
    body = float(
        np.sum((w[:-1] - 1.0) ** 2 * (1.0 + 10.0 * np.sin(np.pi * w[:-1] + 1.0) ** 2))
    )
    tail = float((w[-1] - 1.0) ** 2 * (1.0 + math.sin(2.0 * math.pi * w[-1]) ** 2))
    return head + body + tail


# Schwefel's inner optimum (~420.97) sits outside the common [-100, 100]
# box, so the input is scaled by 10 before evaluation and the additive
# constant is computed from the scaled optimum coordinate itself, keeping
# f(optimum) at float round-off.
_SCHWEFEL_OPT_COORD = 42.096874635998205
_SCHWEFEL_INNER = 10.0 * _SCHWEFEL_OPT_COORD
_SCHWEFEL_C = _SCHWEFEL_INNER * math.sin(math.sqrt(_SCHWEFEL_INNER))


def schwefel(x: np.ndarray) -> float:
    z = 10.0 * x
    return float(_SCHWEFEL_C * x.size - np.sum(z * np.sin(np.sqrt(np.abs(z)))))


def expanded_schaffer_f6(x: np.ndarray) -> float:
    a = x
    b = np.roll(x, -1)
    s = a * a + b * b
    return float(np.sum(0.5 + (np.sin(np.sqrt(s)) ** 2 - 0.5) / (1.0 + 0.001 * s) ** 2))


def _zeros(dim: int) -> np.ndarray:
    return np.zeros(dim)


def _ones(dim: int) -> np.ndarray:
    return np.ones(dim)


def _schwefel_opt(dim: int) -> np.ndarray:
    return np.full(dim, _SCHWEFEL_OPT_COORD)


# name -> (raw function, canonical optimum point, default box)
_REGISTRY: dict = {
    "sphere": (sphere, _zeros, (-100.0, 100.0)),
    "bent-cigar": (bent_cigar, _zeros, (-100.0, 100.0)),
    "zakharov": (zakharov, _zeros, (-100.0, 100.0)),
    "rosenbrock": (rosenbrock, _ones, (-100.0, 100.0)),
    "rastrigin": (rastrigin, _zeros, (-100.0, 100.0)),
    "ackley": (ackley, _zeros, (-100.0, 100.0)),
    "griewank": (griewank, _zeros, (-100.0, 100.0)),
    "levy": (levy_fn, _ones, (-100.0, 100.0)),
    "schwefel": (schwefel, _schwefel_opt, (-100.0, 100.0)),
    "expanded-schaffer-f6": (expanded_schaffer_f6, _zeros, (-100.0, 100.0)),
}

BENCHMARK_NAMES = tuple(sorted(_REGISTRY))


def evaluate_benchmark(name: str, x: np.ndarray) -> float:
    """Raw (untransformed) objective value for a registered benchmark."""
    if name not in _REGISTRY:
        raise KeyError(f"unknown benchmark {name!r}; known: {', '.join(BENCHMARK_NAMES)}")
    fn, _, _ = _REGISTRY[name]
    return fn(np.asarray(x, dtype=float))


def benchmark_optimum(name: str, dim: int) -> np.ndarray:
    """Canonical optimum point of the raw benchmark."""
    if name not in _REGISTRY:
        raise KeyError(f"unknown benchmark {name!r}")
    _, opt, _ = _REGISTRY[name]
    return opt(dim)


# ---------------------------------------------------------------------------
# Seeded shift/rotate transforms.
# ---------------------------------------------------------------------------

_ORTHO_TOL = 1e-9


@dataclass(frozen=True)
class Transform:
    """Shift o and orthogonal rotation M; applied as M @ (x - o)."""

    shift: np.ndarray
    rotation: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.rotation, dtype=float)
        o = np.asarray(self.shift, dtype=float)
        object.__setattr__(self, "rotation", m)
        object.__setattr__(self, "shift", o)
        if m.shape != (o.size, o.size):
            raise ValueError("rotation must be a square matrix matching the shift")
        if not np.allclose(m.T @ m, np.eye(o.size), atol=_ORTHO_TOL):
            raise ValueError("rotation matrix is not orthogonal")


def apply_transform(t: Transform, x: np.ndarray) -> np.ndarray:
    """Map x to rotated, shifted coordinates: M @ (x - o)."""
    x = np.asarray(x, dtype=float)
    if x.shape != t.shift.shape:
        raise ValueError("position and transform dimensions differ")
    return t.rotation @ (x - t.shift)


def random_orthogonal(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed orthogonal matrix (QR of a Gaussian matrix)."""
    a = rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * np.sign(np.diag(r))


def random_transform(
    dim: int, bounds: Bounds, rng: np.random.Generator
) -> Transform:
    """Seeded transform with the shift drawn from the middle half of the box."""
    u = rng.uniform(0.25, 0.75, dim)
    shift = bounds.lower + bounds.span * u
    return Transform(shift=shift, rotation=random_orthogonal(dim, rng))


def make_problem(
    name: str, dim: int, transform_seed: Optional[int] = None
) -> Problem:
    """Benchmark problem, optionally composed with a seeded shift/rotation.

    The transformed optimum o + M.T @ z* must land inside the box; the
    constructor redraws the transform a few times if it does not and
    refuses functions whose optimum is too far from the origin to fit.
    """
    if name not in _REGISTRY:
        raise KeyError(f"unknown benchmark {name!r}; known: {', '.join(BENCHMARK_NAMES)}")
    if dim < 1:
        raise ConfigurationError(f"dimension must be positive, got {dim}")
    fn, opt, (lo, hi) = _REGISTRY[name]
    bounds = Bounds.cube(lo, hi, dim)
    if transform_seed is None:
        return Problem(
            name=name, dim=dim, bounds=bounds, evaluate=fn, known_optimum=0.0
        )

    canonical = opt(dim)
    rng = make_rng(transform_seed)
    for _ in range(100):
        t = random_transform(dim, bounds, rng)
        optimum_point = t.shift + t.rotation.T @ canonical
        if bounds.contains(optimum_point):
            break
    else:
        raise ConfigurationError(
            f"cannot place the transformed optimum of {name!r} inside the box"
        )

    def evaluate(x: np.ndarray, _fn=fn, _t=t) -> float:
        return _fn(apply_transform(_t, x))

    return Problem(
        name=f"{name}:sr{transform_seed}",
        dim=dim,
        bounds=bounds,
        evaluate=evaluate,
        known_optimum=0.0,
    )


def resolve_problem(spec: str, dim: int) -> Problem:
    """Parse a problem name of the form ``name``, ``name:sr`` or ``name:srK``.

    A bare ``:sr`` suffix uses a seed derived from the name and dimension,
    so the same string always denotes the same transformed problem.
    """
    if spec == "three-bar-truss":
        return three_bar_truss_problem()
    name, _, suffix = spec.partition(":")
    if name not in _REGISTRY:
        raise ConfigurationError(
            f"unknown problem {spec!r}; known: three-bar-truss, {', '.join(BENCHMARK_NAMES)}"
        )
    if ":" not in spec:
        return make_problem(spec, dim)
    if not suffix.startswith("sr"):
        raise ConfigurationError(f"unknown problem suffix {suffix!r} in {spec!r}")
    digits = suffix[2:]
    if digits:
        if not (digits.isascii() and digits.isdigit()):
            raise ConfigurationError(
                f"transform seed {digits!r} in {spec!r} must be a non-negative integer"
            )
        seed = int(digits)
    else:
        seed = zlib.crc32(f"{name}/{dim}".encode()) & 0xFFFF
    return make_problem(name, dim, transform_seed=seed)


# ---------------------------------------------------------------------------
# Static penalty and the three-bar truss design problem.
# ---------------------------------------------------------------------------


def penalized_fitness(
    f: float, g_values, w: float = DEFAULT_PENALTY_WEIGHT
) -> float:
    """Static penalty: F = f + w * sum(max(0, g_i))."""
    if w <= 0:
        raise ValueError(f"penalty weight must be positive, got {w}")
    violation = sum(max(0.0, float(g)) for g in g_values)
    return float(f) + w * violation


_TRUSS_LOAD = 2.0
_TRUSS_STRESS = 2.0
_SQRT2 = math.sqrt(2.0)


def three_bar_truss(x: np.ndarray) -> tuple[float, list[float]]:
    """Volume objective and the three stress constraints (g_i <= 0 feasible).

    Cross sections x1, x2 live in [0, 1]^2; x1 = 0 makes the first two
    stress denominators vanish and (0, 0) kills all three.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (2,):
        raise ValueError("three_bar_truss expects a 2-vector")
    x1, x2 = float(x[0]), float(x[1])
    f = (2.0 * _SQRT2 * x1 + x2) * 100.0
    d12 = _SQRT2 * x1 * x1 + 2.0 * x1 * x2
    d3 = x1 + _SQRT2 * x2
    if d12 == 0.0 or d3 == 0.0:
        raise SingularPointError(f"stress denominators vanish at {x.tolist()}")
    g1 = (_SQRT2 * x1 + x2) * _TRUSS_LOAD / d12 - _TRUSS_STRESS
    g2 = x2 * _TRUSS_LOAD / d12 - _TRUSS_STRESS
    g3 = _TRUSS_LOAD / d3 - _TRUSS_STRESS
    return f, [g1, g2, g3]


def three_bar_truss_problem(
    penalty_weight: float = DEFAULT_PENALTY_WEIGHT,
) -> Problem:
    """Three-bar truss as a penalized box problem on [0, 1]^2.

    Singular points (reachable through clamping to x1 = 0) evaluate to
    +inf so the objective stays total on the box.
    """

    def evaluate(x: np.ndarray) -> float:
        try:
            f, g = three_bar_truss(x)
        except SingularPointError:
            return math.inf
        return penalized_fitness(f, g, penalty_weight)

    def _g(i: int):
        return lambda x: three_bar_truss(x)[1][i]

    return Problem(
        name="three-bar-truss",
        dim=2,
        bounds=Bounds.cube(0.0, 1.0, 2),
        evaluate=evaluate,
        constraints=[_g(0), _g(1), _g(2)],
        known_optimum=263.8958433764684,
    )
