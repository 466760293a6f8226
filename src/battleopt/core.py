"""Population primitives shared by every optimizer in the package.

Positions are plain numpy vectors. Fitness follows the minimization
convention everywhere; wrap maximization objectives with a negation.
All randomness flows through a numpy ``Generator`` backed by PCG64, so a
fixed seed reproduces a run bit-for-bit on one host with one numpy
build. Across hosts that does not hold yet: the QR behind the ``:sr``
rotations and the ``dot`` behind the safe-zone norm run in BLAS, whose
kernel OpenBLAS picks by CPU, and seeded bits differ between an AVX-512
host and an AVX2-only one (ROADMAP item 3).

Inside a run, :class:`Draws` takes the per-candidate scalar draws straight
from the Generator's bit generator. It gives the values and the final
generator state of the Generator calls it stands for, so the stream is
the Generator's; it only skips their per-call overhead.
"""

import math
import operator
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ConfigurationError",
    "Bounds",
    "Individual",
    "OptimizerConfig",
    "MIN_POP_SIZE",
    "check_pop_size",
    "check_budget",
    "RunResult",
    "EvaluationBudget",
    "make_rng",
    "trial_rng",
    "Draws",
    "init_population",
    "clamp",
    "greedy_replace",
    "best_worst",
    "Extremes",
]


class ConfigurationError(ValueError):
    """A run, problem, or experiment configuration that cannot be executed."""


def make_rng(seed: int) -> np.random.Generator:
    """Deterministic random stream: numpy PCG64 seeded with ``seed``."""
    return np.random.Generator(np.random.PCG64(seed))


def trial_rng(base_seed: int, trial: int) -> np.random.Generator:
    """Stream for one trial of a multi-trial experiment (seed = base + index)."""
    return make_rng(base_seed + trial)


# One past the largest 32-bit draw: the top of Draws' domain, above which
# numpy bounds integers with 64-bit draws instead.
_SPAN32 = 1 << 32


class Draws:
    """Scalar draws of a run, taken from ``rng``'s bit generator through ctypes.

    Each method gives the values of the Generator call it stands for and
    leaves the bit generator in the same state:

    - ``random()`` is ``rng.random()``, one ``next_double``;
    - ``integers(high)`` is ``int(rng.integers(high))`` for
      1 <= high <= 2**32: Lemire's bounded draw over ``next_uint32``
      (arXiv:1805.10941), as numpy computes it, no draw when high is 1;
    - ``distinct(n)`` is ``rng.choice(n, 3, replace=False).tolist()`` for
      3 <= n <= 2**32: Floyd's sampling, then a Fisher-Yates shuffle of
      the three, each step one such bounded draw;
    - ``random(size)`` and ``normal`` are passed on to ``rng``.

    It skips the Generator's lock, so one object serves one run on one
    thread. ``rng`` needs only a ``bit_generator`` attribute, so a wrapper
    that passes it through works; anything else is a ``TypeError``.
    """

    __slots__ = ("_rng", "_state", "_next_double", "_next_uint32", "normal")

    def __init__(self, rng):
        bit_generator = getattr(rng, "bit_generator", None)
        if bit_generator is None:
            raise TypeError(
                f"rng must be a numpy Generator or pass its bit_generator through, "
                f"got {type(rng).__name__}"
            )
        interface = bit_generator.ctypes
        self._rng = rng  # keeps the bit generator, and so its state, alive
        self._state = interface.state
        self._next_double = interface.next_double
        self._next_uint32 = interface.next_uint32
        self.normal = rng.normal

    def random(self, size=None):
        if size is None:
            return self._next_double(self._state)
        return self._rng.random(size)

    def integers(self, high) -> int:
        """Uniform int in [0, high), the value of ``rng.integers(high)``."""
        high = operator.index(high)
        if not 1 <= high <= _SPAN32:
            raise ValueError(f"high must lie in [1, 2**32], got {high}")
        return self._below(high)

    def distinct(self, n) -> list:
        """Three distinct ints in [0, n), ``rng.choice(n, 3, replace=False)``."""
        n = operator.index(n)
        if not 3 <= n <= _SPAN32:
            raise ValueError(f"n must lie in [3, 2**32], got {n}")
        below = self._below
        # Floyd: for j = n-3 .. n-1 draw from [0, j]; a repeat takes j itself
        a = below(n - 2)
        b = below(n - 1)
        if b == a:
            b = n - 2
        c = below(n)
        if c == a or c == b:
            c = n - 1
        # Fisher-Yates from the back: swap slot 2 with one of [0, 2], then 1
        picked = [a, b, c]
        j = below(3)
        picked[2], picked[j] = picked[j], picked[2]
        j = below(2)
        picked[1], picked[j] = picked[j], picked[1]
        return picked

    def _below(self, high: int) -> int:
        """Lemire's draw from [0, high), 1 <= high <= 2**32, unchecked."""
        if high == 1:
            return 0
        m = self._next_uint32(self._state) * high
        leftover = m & 0xFFFFFFFF
        if leftover < high:
            threshold = (_SPAN32 - high) % high
            while leftover < threshold:
                m = self._next_uint32(self._state) * high
                leftover = m & 0xFFFFFFFF
        return m >> 32


@dataclass(frozen=True)
class Bounds:
    """Per-dimension box constraints with strictly positive width."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if lower.ndim != 1 or lower.shape != upper.shape:
            raise ValueError("bounds must be 1-D vectors of equal length")
        if not np.all(lower < upper):
            raise ValueError("each lower bound must lie strictly below its upper bound")

    @classmethod
    def cube(cls, low: float, high: float, dim: int) -> "Bounds":
        """Same [low, high] interval in every dimension."""
        return cls(np.full(dim, float(low)), np.full(dim, float(high)))

    @property
    def dim(self) -> int:
        return self.lower.size

    @property
    def span(self) -> np.ndarray:
        return self.upper - self.lower

    def contains(self, position: np.ndarray) -> bool:
        return bool(
            np.all(position >= self.lower) and np.all(position <= self.upper)
        )


def clamp(position: np.ndarray, bounds: Bounds) -> np.ndarray:
    """Project a position component-wise onto the box.

    ``minimum(maximum(x, lower), upper)`` is what ``np.clip`` computes for
    floats (NaN and signed zeros included), without its Python wrapper.
    """
    position = np.asarray(position, dtype=float)
    if position.shape != bounds.lower.shape:
        raise ValueError(
            f"position has {position.size} components, bounds expect {bounds.dim}"
        )
    return np.minimum(np.maximum(position, bounds.lower), bounds.upper)


@dataclass
class Individual:
    """A search-space position plus its cached objective value.

    ``fitness`` is NaN until the position has been evaluated; the cache
    must always equal the objective at ``position``.
    """

    position: np.ndarray
    fitness: float = math.nan

    def evaluated(self) -> bool:
        return not math.isnan(self.fitness)

    def copy(self) -> "Individual":
        return Individual(self.position.copy(), self.fitness)


def init_population(
    n: int, bounds: Bounds, rng: np.random.Generator
) -> list[Individual]:
    """Draw ``n`` individuals uniformly inside the box, fitness unset."""
    if n < 2:
        raise ConfigurationError(f"population size must be at least 2, got {n}")
    positions = rng.uniform(bounds.lower, bounds.upper, size=(n, bounds.dim))
    return [Individual(positions[i]) for i in range(n)]


def greedy_replace(parent: Individual, offspring: Individual) -> Individual:
    """Offspring survives only on strict improvement; ties keep the parent."""
    return offspring if offspring.fitness < parent.fitness else parent


def best_worst(pop: list[Individual]) -> tuple[Individual, Individual]:
    """Minimum- and maximum-fitness members, ties broken by lowest index."""
    fitnesses = [ind.fitness for ind in pop]
    if any(math.isnan(f) for f in fitnesses):
        raise ValueError("population contains unevaluated individuals")
    best_idx = min(range(len(pop)), key=fitnesses.__getitem__)
    worst_idx = max(range(len(pop)), key=fitnesses.__getitem__)
    return pop[best_idx], pop[worst_idx]


class Extremes:
    """Best and worst indices of a population under greedy replacement.

    Holds a float64 copy of the fitnesses and picks the same members as
    :func:`best_worst` (lowest index on ties). Greedy replacement only
    ever lowers a slot, so :meth:`replaced` moves ``best`` in O(1) and
    rescans for ``worst`` only when the worst slot itself improved.
    """

    __slots__ = ("fit", "best", "worst")

    def __init__(self, pop: list[Individual]):
        self.fit = np.array([ind.fitness for ind in pop], dtype=np.float64)
        if np.isnan(self.fit).any():
            raise ValueError("population contains unevaluated individuals")
        self.best = int(np.argmin(self.fit))
        self.worst = int(np.argmax(self.fit))

    def replaced(self, i: int, f: float) -> None:
        """Record that slot ``i`` now holds fitness ``f``, no higher than before."""
        fit = self.fit
        fit[i] = f
        best = self.best
        if f < fit[best] or (f == fit[best] and i < best):
            self.best = i
        if i == self.worst:
            self.worst = int(np.argmax(fit))


@dataclass(frozen=True)
class OptimizerConfig:
    """Shared run parameters: population size, evaluation budget, seed."""

    pop_size: int
    budget: int
    seed: int = 0

    def __post_init__(self):
        if self.pop_size < 1:
            raise ConfigurationError("pop_size must be positive")
        if self.budget < 1:
            raise ConfigurationError("budget must be positive")


# The smallest population each optimizer runs with: a battle needs an
# enemy, PSO a second particle, DE three distinct peers besides the member;
# random search keeps none (OptimizerConfig's pop_size >= 1 covers it).
# battle_game (for mbgo, embgo and de), run_pso and the CLI all check
# against this table.
MIN_POP_SIZE = {"mbgo": 2, "embgo": 2, "de": 4, "pso": 2, "random": 1}


def check_pop_size(name: str, pop_size: int) -> None:
    """Reject a population smaller than ``MIN_POP_SIZE[name]``."""
    minimum = MIN_POP_SIZE[name]
    if pop_size < minimum:
        raise ConfigurationError(
            f"{name} needs a population of at least {minimum}, got {pop_size}"
        )


def check_budget(name: str, pop_size: int, budget: int) -> None:
    """Reject a budget below 1, or below ``pop_size`` unless ``name`` is random search.

    Every optimizer but random search evaluates its whole population
    before its first move; battle_game, run_pso and the CLI check here.
    """
    if budget < 1:
        raise ConfigurationError(f"budget must be positive, got {budget}")
    if name != "random" and budget < pop_size:
        raise ConfigurationError(
            f"{name} needs a budget that covers its initial population of {pop_size}, "
            f"got {budget}"
        )


class EvaluationBudget:
    """Hard cap on objective evaluations; the only termination clock."""

    def __init__(self, limit: int):
        self.limit = int(limit)
        self.used = 0

    @property
    def exhausted(self) -> bool:
        return self.used >= self.limit

    def take(self, count: int = 1) -> None:
        if self.used + count > self.limit:
            raise RuntimeError("evaluation budget exhausted")
        self.used += count


@dataclass
class RunResult:
    """Outcome of a single seeded optimizer run.

    ``trace`` holds (evaluations consumed, best fitness so far) pairs and is
    non-increasing in fitness; ``diversity_trace`` holds per-iteration
    population diversity, empty for optimizers without a persistent
    population.
    """

    best: Individual
    trace: list = field(default_factory=list)
    diversity_trace: list = field(default_factory=list)
    seed: int = 0
    fes_used: int = 0

    @property
    def final_fitness(self) -> float:
        return self.best.fitness

    def serialize(self) -> str:
        """Canonical text form; byte-identical for identical runs."""
        lines = [
            f"seed {self.seed}",
            f"fes {self.fes_used}",
            "position " + " ".join(repr(v) for v in self.best.position.tolist()),
            f"fitness {self.best.fitness!r}",
        ]
        lines += [f"trace {fes} {fit!r}" for fes, fit in self.trace]
        lines += [f"diversity {it} {pd!r}" for it, pd in self.diversity_trace]
        return "\n".join(lines) + "\n"
