"""Population primitives shared by every optimizer in the package.

Positions are plain numpy vectors. Fitness follows the minimization
convention everywhere; wrap maximization objectives with a negation.
All randomness flows through a numpy ``Generator`` backed by PCG64, so a
fixed seed reproduces a run bit-for-bit on one host with one numpy
build. Across hosts that does not hold yet: the QR behind the ``:sr``
rotations and the ``dot`` behind the safe-zone norm run in BLAS, whose
kernel OpenBLAS picks by CPU, and seeded bits differ between an AVX-512
host and an AVX2-only one (ROADMAP item 3). On one host they also depend
on the BLAS thread count: seeded ``rastrigin:sr`` bits at D=300 change
between ``OPENBLAS_NUM_THREADS=1`` and the default of 2 on a 2-vCPU host.
perfbench runs one thread, while the tier-1 golden digests were recorded
with the default.

Inside a run, :class:`Draws` takes the per-candidate scalar draws straight
from the Generator's bit generator, and :meth:`Draws.sweep` the draws of
many DE rounds, several whole sweeps, from one ``random_raw`` call. Both
give the values and the final generator state of the Generator calls
they stand for, so the stream is the Generator's; they only skip the
per-call overhead.
:func:`fitness_value` is the one rule for an objective's value: a float,
NaN as +inf.
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
    "resolve_params",
    "RunResult",
    "EvaluationBudget",
    "make_rng",
    "trial_rng",
    "Draws",
    "init_population",
    "clamp",
    "fitness_value",
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
    - ``random(size)`` and ``normal`` are passed on to ``rng``;
    - ``save()`` and ``restore(state)`` read and set the bit generator's
      state, so that a run can take draws again from an earlier point.

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

    def sweep(self, m: int, n: int, high: int, size: int) -> tuple:
        """``m`` rounds of ``distinct(n)``, ``integers(high)``, ``random(size)``.

        Returns ``(picks, ints, doubles)`` with shapes ``(m, 3)``, ``(m,)``
        and ``(m, size)``: the values of those calls made in that order,
        round after round, and the generator is left in their final state.
        For PCG64, PCG64DXSM, SFC64 and Philox the draws come from one
        ``bit_generator.random_raw`` call: a 32-bit draw is the low, then
        the high half of a 64-bit output, the unused half carried in the
        state's ``has_uint32``/``uinteger``; a double is
        ``(raw >> 11) * 2**-53``; Lemire's bound is applied as a vector.
        A bounded draw that numpy would retry anywhere in the ``m`` rounds,
        or any other bit generator (MT19937 has other rules), restores the
        state saved at the start and makes all ``m`` rounds' calls one
        round at a time.
        """
        n, high = operator.index(n), operator.index(high)
        if not 3 <= n <= _SPAN32:
            raise ValueError(f"n must lie in [3, 2**32], got {n}")
        if not 1 <= high <= _SPAN32:
            raise ValueError(f"high must lie in [1, 2**32], got {high}")
        bit_generator = self._rng.bit_generator
        if type(bit_generator) in _DECODED:
            start = bit_generator.state
            drawn = _decode_sweep(bit_generator, start, m, n, high, size)
            if drawn is not None:
                return drawn
            bit_generator.state = start
        picks = np.empty((m, 3), dtype=np.int64)
        ints = np.empty(m, dtype=np.int64)
        doubles = np.empty((m, size))
        for k in range(m):
            picks[k] = self.distinct(n)
            ints[k] = self._below(high)
            doubles[k] = self.random(size)
        return picks, ints, doubles

    def save(self) -> dict:
        """The bit generator's state, for :meth:`restore`."""
        return self._rng.bit_generator.state

    def restore(self, state: dict) -> None:
        """Put the bit generator back in a state :meth:`save` gave."""
        self._rng.bit_generator.state = state

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


# The bit generators whose next_uint32 halves a 64-bit output through
# has_uint32/uinteger and whose next_double is (raw >> 11) * 2**-53, so
# that Draws.sweep can decode their raw outputs.
_DECODED = frozenset({np.random.PCG64, np.random.PCG64DXSM, np.random.SFC64, np.random.Philox})
_LOW32 = 0xFFFFFFFF


def _decode_sweep(bit_generator, start: dict, m: int, n: int, high: int, size: int):
    """:meth:`Draws.sweep` from one ``random_raw`` call; None if numpy would retry a draw."""
    # One round's bounded 32-bit draws: Floyd's three, the shuffle's two,
    # then integers(high); a bound of 1 takes no draw and gives 0.
    bounds = [n - 2, n - 1, n, 3, 2, high]
    drawn = [h > 1 for h in bounds]
    his = np.array([h for h in bounds if h > 1], dtype=np.uint64)
    k = his.size
    buffered = start["has_uint32"]
    rounds = np.arange(m)
    # After round r's 32-bit draws, ceil(((r + 1) k - buffered) / 2) raw
    # outputs have been split into halves; round r's doubles follow them.
    # Doubles are decoded first, so that the raw outputs can go.
    fed = ((rounds + 1) * k - buffered + 1) // 2
    words = int(fed[-1])
    raw = bit_generator.random_raw(words + m * size)
    # output q of the 32-bit draws sits after the doubles of the rounds before its own
    at = np.arange(words) + np.repeat(rounds, np.diff(fed, prepend=0)) * size
    split = raw[at]
    is_double = np.ones(raw.size, dtype=bool)
    is_double[at] = False
    doubles = raw[is_double]
    del raw, at, is_double
    doubles >>= 11
    doubles = doubles.astype(np.float64).reshape(m, size)
    doubles *= 2.0**-53
    halves = np.empty(buffered + 2 * words, dtype=np.uint64)
    halves[:buffered] = start["uinteger"]
    halves[buffered::2] = split & _LOW32
    halves[buffered + 1::2] = split >> 32
    # what the per-round calls leave buffered: the last output's high half
    has_uint32, uinteger = halves.size - m * k, int(halves[-1])
    scaled = halves[: m * k].reshape(m, k) * his
    del split, halves
    if ((scaled & _LOW32) < (2**32 - his) % his).any():
        return None
    values = np.zeros((m, len(bounds)), dtype=np.int64)
    values[:, drawn] = scaled >> 32
    a, b, c, j3, j2, ints = values.T
    # Floyd: a repeat takes the top of its range
    b = np.where(b == a, n - 2, b)
    c = np.where((c == a) | (c == b), n - 1, c)
    picks = np.stack([a, b, c], axis=1)
    # Fisher-Yates from the back: slot 2 swaps with slot j3, then 1 with j2
    for slot, j in ((2, j3), (1, j2)):
        held = picks[:, slot].copy()
        picks[:, slot] = picks[rounds, j]
        picks[rounds, j] = held
    state = bit_generator.state
    state["has_uint32"], state["uinteger"] = has_uint32, uinteger
    bit_generator.state = state
    return picks, ints.copy(), doubles


@dataclass(frozen=True)
class Bounds:
    """Box constraints: one or more dimensions, each of finite, positive width."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if lower.ndim != 1 or lower.shape != upper.shape or lower.size == 0:
            raise ValueError("bounds must be non-empty 1-D vectors of equal length")
        if not np.all(lower < upper):
            raise ValueError("each lower bound must lie strictly below its upper bound")
        with np.errstate(over="ignore"):
            if not np.isfinite(upper - lower).all():
                raise ValueError("bounds and their widths upper - lower must be finite")

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
    """Project a position, or each row of an ``(m, D)`` block, component-wise onto the box.

    ``minimum(maximum(x, lower), upper)`` is what ``np.clip`` computes for
    one position of floats (NaN and signed zeros included), without its
    Python wrapper; a block gets, row by row, what its rows would.
    """
    position = np.asarray(position, dtype=float)
    if position.shape[-1:] != bounds.lower.shape:
        raise ValueError(
            f"position has {position.shape[-1] if position.ndim else 1} components, "
            f"bounds expect {bounds.dim}"
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


def fitness_value(value, name: str) -> float:
    """An objective's value as the optimizers store it: ``float(value)``, NaN as +inf.

    A value that ``float()`` refuses, or an array with more than zero
    dimensions, is a ``TypeError`` naming the problem ``name``. The
    per-evaluation paths call this only for a value that is not already
    a non-NaN ``float``, which it returns unchanged.
    """
    if getattr(value, "ndim", 0) == 0:
        try:
            f = float(value)
        except (TypeError, ValueError):
            pass
        else:
            return math.inf if math.isnan(f) else f
    raise TypeError(
        f"problem {name!r}: the objective returned {type(value).__name__} "
        f"{value!r:.60}, not one real number"
    )


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
    """Best and worst indices of a list of fitnesses under greedy replacement.

    Holds a float64 copy of ``fitnesses`` and picks the members
    :func:`best_worst` would (lowest index on ties). Greedy replacement
    only ever lowers a slot, so :meth:`replaced` moves ``best`` in O(1) and
    rescans for ``worst`` only when the worst slot itself improved.
    """

    __slots__ = ("fit", "best", "worst")

    def __init__(self, fitnesses: list):
        fit = self.fit = np.array(fitnesses, dtype=np.float64)
        self.best = int(fit.argmin())  # argmin picks a NaN, if there is one
        if math.isnan(fit[self.best]):
            raise ValueError("population contains unevaluated individuals")
        self.worst = int(fit.argmax())

    def replaced(self, i: int, f: float) -> None:
        """Record that slot ``i`` now holds fitness ``f``, no higher than before."""
        fit = self.fit
        fit[i] = f
        best = self.best
        if f < fit[best] or (f == fit[best] and i < best):
            self.best = i
        if i == self.worst:
            self.worst = int(fit.argmax())


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


def resolve_params(params, cls):
    """``params``, or ``cls()`` when it is None.

    Anything that is not a ``cls`` (a subclass passes) is a ``TypeError``
    naming ``cls``, raised before the run draws or evaluates anything.
    """
    if params is None:
        return cls()
    if not isinstance(params, cls):
        raise TypeError(f"params must be a {cls.__name__}, got {type(params).__name__}")
    return params


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
