"""Population primitives shared by every optimizer in the package.

Positions are plain numpy vectors. Fitness follows the minimization
convention everywhere; wrap maximization objectives with a negation.
All randomness flows through a numpy ``Generator`` backed by PCG64, so a
fixed seed reproduces a run bit-for-bit on any platform.
"""

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ConfigurationError",
    "Bounds",
    "Individual",
    "OptimizerConfig",
    "MIN_POP_SIZE",
    "check_pop_size",
    "RunResult",
    "EvaluationBudget",
    "make_rng",
    "trial_rng",
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
