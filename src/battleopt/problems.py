"""Benchmark objectives, seeded shift/rotate transforms, and constrained problems.

Every registered benchmark has global minimum 0 at a canonical optimum
point. Transformed variants compose the raw function with a seeded
orthogonal rotation and a shift drawn from the middle of the box, chosen
so the transformed optimum stays inside the search region. Constrained
problems are handled through a static penalty on the violation amounts.

Every registered benchmark, its transformed variants and the three-bar
truss also have a row-wise form, the ``evaluate`` callable's
``evaluate.batch``, reached through :meth:`Problem.evaluate_batch`; it
gives the per-row values bit for bit without a Python loop over the
rows. A benchmark, raw or transformed, is written once and is its own
row-wise form: it takes a vector or an ``(m, D)`` array of rows.
"""

import math
import types
import weakref
import zlib
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import Bounds, ConfigurationError, fitness_value, make_rng

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
    "pure_rows",
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

    ``evaluate`` returns one real number: a float, a numpy scalar, an int
    or a 0-d array. Every optimizer stores ``float(value)``, with NaN as
    +inf, so no optimizer keeps NaN as its best and a run serializes the
    same whichever of these types the objective returns
    (:func:`~battleopt.core.fitness_value`). A value that ``float()``
    refuses, or an array with more than zero dimensions, is a
    ``TypeError`` naming the problem. An exception raised by ``evaluate``
    itself propagates unchanged.

    A user's ``evaluate`` is called exactly once per function evaluation
    (FE), at the points and in the order of a loop that builds and
    evaluates one candidate at a time. Only the objectives the package
    builds and knows to be pure (see :func:`pure_rows`: the benchmarks,
    raw or ``:srK``, the three-bar truss and a table problem, which has a
    score for every code), whose ``evaluate_batch`` has no per-row Python
    loop, may be handed candidates whose values are thrown away: MBGO's and
    EMBGO's windows and DE's evaluate a block of candidates in one
    ``evaluate_batch`` call, then rebuild and evaluate again the rows
    that earlier replacements made stale. PSO does so for a window once
    the global best has held for twice the window's particles, and throws
    away the rows after the first one that improves it.
    """

    name: str
    dim: int
    bounds: Bounds
    evaluate: Callable[[np.ndarray], float]
    constraints: Optional[list] = None
    known_optimum: Optional[float] = None

    def evaluate_batch(self, X) -> np.ndarray:
        """Objective values of the rows of ``X`` as an ``(m,)`` float64 array.

        Bit-identical to ``[evaluate(x) for x in X]`` under the value rule
        of the class docstring: each value as a float, NaN as +inf, so that
        no optimizer keeps NaN as its best. The fast path is
        ``evaluate.batch``: a benchmark's ``evaluate``, raw or
        transformed, is its own (``:srK`` rotates the rows in one stacked
        ``np.matmul``, one BLAS matrix-vector product per row, as for one
        vector), and the three-bar truss and the lookup-table problem set
        one on their ``evaluate``. An ``evaluate`` without one, such as a
        wrapper put in its place, is called once per row in row order, so
        it still sees every point.
        """
        X = np.ascontiguousarray(X, dtype=float)
        if X.ndim != 2:
            raise ValueError(f"evaluate_batch expects an (m, dim) array, got shape {X.shape}")
        rows = getattr(self.evaluate, "batch", None)
        if rows is None:
            name = self.name
            values = (f if type(f) is float else fitness_value(f, name)
                      for f in map(self.evaluate, X))
            out = np.fromiter(values, dtype=float, count=len(X))
        else:
            out = rows(X)
        out[np.isnan(out)] = np.inf
        return out


# The objectives the package builds and knows to be pure, so that the
# value of a point does not depend on which points were evaluated before
# it, and a call has no effect: the raw benchmarks, make_problem's
# transformed ones, the three-bar truss and a table problem. The mark
# belongs to the ``evaluate`` function object, so a function put in its
# place (a recording or tracing wrapper, a functools.wraps copy) does not
# carry it, even when it copies ``.batch``. A weak set: a marked closure
# goes with its problem.
_PURE = weakref.WeakSet()


def _mark_pure(evaluate):
    """Mark ``evaluate``, a function with a ``.batch``, as pure; returns it."""
    _PURE.add(evaluate)
    return evaluate


def pure_rows(problem: Problem):
    """``problem.evaluate_batch`` when the package built ``problem.evaluate`` pure, else None.

    MBGO's and EMBGO's windows and DE's evaluate their block of candidates
    through it in one call when it is not None, and throw away the values
    of the rows they rebuild; PSO does the same for a window once the
    global best has held for twice its particles, and throws away the
    rows after the first that improves it (see :class:`Problem`). The
    marked objectives are the benchmarks, raw or ``:srK``, the three-bar
    truss and a table problem, whose table holds every code; none of
    their batches loops over the rows in Python but for a ``math`` tail.
    Otherwise each candidate gets its own ``evaluate`` call.
    """
    evaluate = problem.evaluate
    if isinstance(evaluate, types.FunctionType) and evaluate in _PURE:
        return problem.evaluate_batch
    return None


# ---------------------------------------------------------------------------
# Raw benchmark functions (minimum 0 at the canonical optimum).
# ---------------------------------------------------------------------------


# Each raw function takes a vector, giving a Python float, or an (m, D)
# array of rows, giving an (m,) float64 array; it is its own row-wise
# form (``evaluate.batch``, set below the registry). Indexing with ``...``
# and reducing along the last axis gives a row the same bits as the
# vector: numpy's elementwise calls and its reductions along a row do not
# depend on the other rows. np.add.reduce and np.multiply.reduce run the
# reduction of np.sum and np.prod without their Python wrapper, which
# costs more than a short sum. Where a function ends in ``math`` calls or
# Python ``**``, :func:`_per_row` runs that tail once per row, because
# numpy's exp, sin and power differ from them in the last bits.


def _per_row(tail: Callable, x: np.ndarray, *columns):
    """Run ``tail`` on Python floats, once for a vector ``x`` or once per row of rows.

    ``columns`` hold one numpy value per row. For rows the tail's values
    come back as an ``(m,)`` float64 array.
    """
    if x.ndim == 1:
        return tail(*[float(c) for c in columns])
    return np.fromiter(map(tail, *[c.tolist() for c in columns]), dtype=float, count=len(x))


def sphere(x: np.ndarray):
    v = np.add.reduce(x * x, -1)
    return float(v) if x.ndim == 1 else v


def bent_cigar(x: np.ndarray):
    head, rest = x[..., 0], x[..., 1:]
    v = head * head + 1e6 * np.add.reduce(rest * rest, -1)
    return float(v) if x.ndim == 1 else v


def zakharov(x: np.ndarray):
    s1 = np.add.reduce(x * x, -1)
    s2 = 0.5 * np.add.reduce(np.arange(1, x.shape[-1] + 1) * x, -1)
    return _per_row(lambda a, b: a + b**2 + b**4, x, s1, s2)


def rosenbrock(x: np.ndarray):
    head, tail = x[..., :-1], x[..., 1:]
    v = np.add.reduce(100.0 * (tail - head**2) ** 2 + (head - 1.0) ** 2, -1)
    return float(v) if x.ndim == 1 else v


def rastrigin(x: np.ndarray):
    v = 10.0 * x.shape[-1] + np.add.reduce(x * x - 10.0 * np.cos(2.0 * np.pi * x), -1)
    return float(v) if x.ndim == 1 else v


def ackley(x: np.ndarray):
    d = x.shape[-1]
    return _per_row(
        lambda a, b: -20.0 * math.exp(-0.2 * math.sqrt(a)) - math.exp(b) + 20.0 + math.e,
        x,
        np.add.reduce(x * x, -1) / d,
        np.add.reduce(np.cos(2.0 * np.pi * x), -1) / d,
    )


def griewank(x: np.ndarray):
    prod = np.multiply.reduce(np.cos(x / np.sqrt(np.arange(1, x.shape[-1] + 1))), -1)
    v = 1.0 + np.add.reduce(x * x, -1) / 4000.0 - prod
    return float(v) if x.ndim == 1 else v


def levy_fn(x: np.ndarray):
    w = 1.0 + (x - 1.0) / 4.0
    inner = w[..., :-1]
    body = np.add.reduce((inner - 1.0) ** 2 * (1.0 + 10.0 * np.sin(np.pi * inner + 1.0) ** 2), -1)
    # The tail squares ``last - 1`` as a numpy scalar: Python's ** raises
    # OverflowError where numpy's gives inf.
    return _per_row(
        lambda first, b, last: math.sin(math.pi * first) ** 2
        + b
        + float((np.float64(last) - 1.0) ** 2 * (1.0 + math.sin(2.0 * math.pi * last) ** 2)),
        x, w[..., 0], body, w[..., -1],
    )


# Schwefel's inner optimum (~420.97) sits outside the common [-100, 100]
# box, so the input is scaled by 10 before evaluation and the additive
# constant is computed from the scaled optimum coordinate itself, keeping
# f(optimum) at float round-off.
_SCHWEFEL_OPT_COORD = 42.096874635998205
_SCHWEFEL_INNER = 10.0 * _SCHWEFEL_OPT_COORD
_SCHWEFEL_C = _SCHWEFEL_INNER * math.sin(math.sqrt(_SCHWEFEL_INNER))


def schwefel(x: np.ndarray):
    z = 10.0 * x
    v = _SCHWEFEL_C * x.shape[-1] - np.add.reduce(z * np.sin(np.sqrt(np.abs(z))), -1)
    return float(v) if x.ndim == 1 else v


def expanded_schaffer_f6(x: np.ndarray):
    b = np.concatenate((x[..., 1:], x[..., :1]), -1)  # np.roll(x, -1, -1) without its wrapper
    s = x * x + b * b
    v = np.add.reduce(0.5 + (np.sin(np.sqrt(s)) ** 2 - 0.5) / (1.0 + 0.001 * s) ** 2, -1)
    return float(v) if x.ndim == 1 else v


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

for fn, _, _ in _REGISTRY.values():
    fn.batch = fn
    _mark_pure(fn)
del fn


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
# BLAS gemv reads the whole rotation on every evaluation. At D=300, on an
# AVX-512 Xeon with OpenBLAS's SkylakeX kernels, it runs about 40 % slower
# when the matrix starts 16 bytes off a 32-byte boundary, as malloc may
# place it, than when it starts on one; the bits are the same.
_ROTATION_ALIGN = 64


def _aligned_copy(a: np.ndarray) -> np.ndarray:
    """C-contiguous copy of ``a`` whose data starts on a 64-byte boundary."""
    raw = np.empty(a.nbytes + _ROTATION_ALIGN, dtype=np.uint8)
    start = -raw.ctypes.data % _ROTATION_ALIGN
    out = raw[start:start + a.nbytes].view(a.dtype).reshape(a.shape)
    out[...] = a
    return out


@dataclass(frozen=True)
class Transform:
    """Shift o and orthogonal rotation M; applied as M @ (x - o).

    The rotation is held as a 64-byte aligned copy, so the cost of an
    evaluation does not depend on where the allocator put the matrix.
    """

    shift: np.ndarray
    rotation: np.ndarray

    def __post_init__(self):
        m = _aligned_copy(np.asarray(self.rotation, dtype=float))
        o = np.asarray(self.shift, dtype=float)
        object.__setattr__(self, "rotation", m)
        object.__setattr__(self, "shift", o)
        if m.shape != (o.size, o.size):
            raise ValueError("rotation must be a square matrix matching the shift")
        if not np.allclose(m.T @ m, np.eye(o.size), atol=_ORTHO_TOL):
            raise ValueError("rotation matrix is not orthogonal")


def apply_transform(t: Transform, x: np.ndarray) -> np.ndarray:
    """Map x to rotated, shifted coordinates: M @ (x - o).

    ``x`` is a vector or an ``(m, D)`` array of rows. Rows go through one stacked ``np.matmul(M, (X - o)[:, :, None])``,
    which runs the same BLAS matrix-vector product per row as ``M @ (x -
    o)`` does for one vector, so each row gets the vector's bits. One
    ``(X - o) @ M.T`` product would not: a matrix-matrix kernel rounds
    differently.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != t.shift.shape or x.ndim > 2:
        raise ValueError("position and transform dimensions differ")
    if x.ndim == 1:
        return t.rotation @ (x - t.shift)
    return np.matmul(t.rotation, (x - t.shift)[:, :, None])[:, :, 0]


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

    # Like the raw function, it takes a vector or an (m, D) array of rows
    # and is its own row-wise form.
    def evaluate(x: np.ndarray, _fn=fn, _t=t) -> float:
        return _fn(apply_transform(_t, x))

    evaluate.batch = evaluate
    _mark_pure(evaluate)

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
    so the same string always denotes the same transformed problem. A
    ``dim`` below 1 is a :class:`ConfigurationError` for every spec, the
    fixed 2-D three-bar truss included.
    """
    if dim < 1:
        raise ConfigurationError(f"dimension must be positive, got {dim}")
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


def _truss(x1, x2):
    """Volume, the three stresses g_i and the two stress denominators of the truss.

    The one copy of the formula: ``x1`` and ``x2`` are Python floats, or
    float64 arrays of one value per row, which give each row a vector's
    bits. A vanishing denominator raises ZeroDivisionError on floats and
    gives inf or NaN in arrays.
    """
    f = (2.0 * _SQRT2 * x1 + x2) * 100.0
    d12 = _SQRT2 * x1 * x1 + 2.0 * x1 * x2
    d3 = x1 + _SQRT2 * x2
    g1 = (_SQRT2 * x1 + x2) * _TRUSS_LOAD / d12 - _TRUSS_STRESS
    g2 = x2 * _TRUSS_LOAD / d12 - _TRUSS_STRESS
    g3 = _TRUSS_LOAD / d3 - _TRUSS_STRESS
    return f, [g1, g2, g3], (d12, d3)


def three_bar_truss(x: np.ndarray) -> tuple[float, list[float]]:
    """Volume objective and the three stress constraints (g_i <= 0 feasible).

    Cross sections x1, x2 live in [0, 1]^2; x1 = 0 makes the first two
    stress denominators vanish and (0, 0) kills all three.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (2,):
        raise ValueError("three_bar_truss expects a 2-vector")
    try:
        f, g, _ = _truss(float(x[0]), float(x[1]))
    except ZeroDivisionError:
        raise SingularPointError(f"stress denominators vanish at {x.tolist()}") from None
    return f, g


def three_bar_truss_problem(
    penalty_weight: float = DEFAULT_PENALTY_WEIGHT,
) -> Problem:
    """Three-bar truss as a penalized box problem on [0, 1]^2.

    Singular points (reachable through clamping to x1 = 0) evaluate to
    +inf so the objective stays total on the box. ``evaluate.batch`` gives
    the rows' values bit for bit (see :meth:`Problem.evaluate_batch`).
    """

    def evaluate(x: np.ndarray) -> float:
        try:
            f, g = three_bar_truss(x)
        except SingularPointError:
            return math.inf
        return penalized_fitness(f, g, penalty_weight)

    def rows(X: np.ndarray) -> np.ndarray:
        if X.shape[1] != 2 or penalty_weight <= 0:
            # The rows' own outcome: three_bar_truss's or penalized_fitness's
            # ValueError, or +inf for rows that are all singular.
            return np.fromiter(map(evaluate, X), dtype=float, count=len(X))
        with np.errstate(all="ignore"):
            f, g, (d12, d3) = _truss(X[:, 0], X[:, 1])
            # max(0.0, g) and sum()'s order, so each row gets penalized_fitness's bits
            v1, v2, v3 = (np.where(gi > 0.0, gi, 0.0) for gi in g)
            out = f + penalty_weight * ((v1 + v2) + v3)
        out[(d12 == 0.0) | (d3 == 0.0)] = math.inf
        return out

    evaluate.batch = rows
    _mark_pure(evaluate)

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
