import itertools
import math

import numpy as np
import pytest

from battleopt import LookupTable, OptimizerConfig, Problem, make_problem, run_random_search
from battleopt.discrete import N_EDGES, N_SYMBOLS
from battleopt.problems import _mark_pure


class FixedRng:
    """Scripted stand-in for a numpy Generator.

    ``uniforms`` feeds random() and uniform() as unit draws (uniform
    scales them into [low, high]), ``normals`` feeds normal() as standard
    draws scaled by loc/scale, ``integers`` feeds integers() and choice().
    """

    def __init__(self, uniforms=(), normals=(), integers=()):
        self.uniforms = list(uniforms)
        self.normals = list(normals)
        self.ints = list(integers)

    def random(self, size=None):
        if size is None:
            return self.uniforms.pop(0)
        return np.array([self.uniforms.pop(0) for _ in range(size)])

    def uniform(self, low=0.0, high=1.0, size=None):
        if size is None:
            return low + (high - low) * self.uniforms.pop(0)
        return np.array(
            [low + (high - low) * self.uniforms.pop(0) for _ in range(size)]
        )

    def normal(self, loc=0.0, scale=1.0, size=None):
        if size is None:
            return loc + scale * self.normals.pop(0)
        return np.array([loc + scale * self.normals.pop(0) for _ in range(size)])

    def integers(self, low, high=None, size=None):
        if size is None:
            return self.ints.pop(0)
        return np.array([self.ints.pop(0) for _ in range(size)], dtype=int)

    def choice(self, n, size=None, replace=True):
        return np.array([self.ints.pop(0) for _ in range(size)], dtype=int)


class RecordingRng:
    """Pass-through wrapper that records every unit uniform drawn."""

    def __init__(self, rng):
        self._rng = rng
        self.uniform_draws = []

    def random(self, size=None):
        value = self._rng.random(size)
        if size is None:
            self.uniform_draws.append(value)
        else:
            self.uniform_draws.extend(value.tolist())
        return value

    def __getattr__(self, name):
        return getattr(self._rng, name)


def complete_table(overrides=None, *, fill=50.0, dataset="", attack=""):
    """``LookupTable`` of every code at ``fill``, but for the ``{code: accuracy}`` ``overrides``.

    The constructor checks every entry, so an override that is not a valid
    code or accuracy raises its ``TableError``.
    """
    entries = dict.fromkeys(itertools.product(range(N_SYMBOLS), repeat=N_EDGES), fill)
    entries.update(overrides or {})
    return LookupTable(entries, dataset, attack)


# --- objectives and a recording problem for the sweep oracles ----------------


def recording(problem, make_objective, batch=True):
    """``problem`` with a fresh ``make_objective()``, or its own objective, recording each point.

    With ``batch``, the wrapper has a ``.batch`` that records each row and
    then evaluates it through the single-point objective, so the initial
    population is recorded as well; without, ``evaluate_batch`` calls the
    wrapper once per row.
    """
    objective = make_objective() if make_objective else problem.evaluate
    seen = []

    def evaluate(x):
        seen.append(np.array(x))
        return objective(x)

    if batch:
        evaluate.batch = lambda X: np.array([evaluate(x) for x in X], dtype=float)
    return Problem(problem.name, problem.dim, problem.bounds, evaluate), seen


def marked(problem, make_objective):
    """``problem`` with a fresh ``make_objective()``, which must be pure, marked pure.

    Returns it with the list of the rows of each batch call, the initial
    population's first. Single calls are not recorded.
    """
    objective = make_objective()
    batches = []

    def evaluate(x):
        return objective(x)

    def rows(X):
        batches.append(X.copy())
        return np.array([objective(x) for x in X], dtype=float)

    evaluate.batch = rows
    return Problem(problem.name, problem.dim, problem.bounds, _mark_pure(evaluate)), batches


def sphere():
    return lambda x: float(np.dot(x, x))


def decreasing():
    # Every call returns less than the one before: each PSO particle
    # improves its personal and the global best, each DE trial is kept.
    calls = iter(range(10**9))
    return lambda x: -float(next(calls))


def plateaus():
    # A step function: many evaluations tie with a best, and a tie must
    # not move it.
    return lambda x: float(np.floor(np.abs(x).sum()))


def nonfinite():
    # NaN, +inf and one -inf between sphere values, by call count.
    calls = iter(range(10**9))

    def f(x):
        k = next(calls)
        if k == 70:
            return -math.inf
        if k % 5 == 2:
            return math.nan
        if k % 7 == 3:
            return math.inf
        return float(np.dot(x, x))

    return f


def spiky():
    """A pure objective with NaN, +inf and -inf regions between sphere values."""

    def f(x):
        k = int(abs(x[0]) * 1000.0) % 11
        s = float(np.dot(x, x))
        if k == 0:
            return math.nan
        if k == 1:
            return math.inf
        if k == 2 and s < 3000.0:
            return -math.inf
        return s

    f.batch = lambda X: np.array([f(x) for x in X], dtype=float)
    return f


@pytest.fixture
def fixed_rng():
    return FixedRng


@pytest.fixture(scope="session")
def random_sphere_finals():
    """Random-search oracle: 10 final fitnesses on the 10-D sphere, 20k FEs."""
    problem = make_problem("sphere", 10)
    finals = []
    for seed in range(10):
        config = OptimizerConfig(pop_size=50, budget=20000, seed=seed)
        finals.append(run_random_search(problem, config).final_fitness)
    return finals


def row(position):
    """A position as the operators take it: a 1-D float array."""
    return np.asarray(position, dtype=float)


def make_individual(position, fitness=math.nan):
    from battleopt import Individual

    return Individual(row(position), fitness)
