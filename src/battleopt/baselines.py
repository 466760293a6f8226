"""Reference optimizers for the comparison protocol.

Differential evolution with the cur-to-rand/1 scheme, global-best PSO
with a hard velocity clamp, and uniform random search as the sanity
floor. All three honor the shared run contract: seeded stream, hard
evaluation budget, non-increasing best-so-far trace. DE is one pass of
:func:`~battleopt.mbgo.battle_game`; PSO keeps its own loop, since its
global best moves only on strict improvement, its diversity is over
positions, not personal bests, and it returns the global best. Initial
populations and random search's samples go through ``Problem.evaluate_batch``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ConfigurationError,
    EvaluationBudget,
    Individual,
    OptimizerConfig,
    RunResult,
    check_budget,
    check_pop_size,
    clamp,
    make_rng,
)
from .mbgo import battle_game
from .stats import population_diversity

# Not called here (DE runs on battleopt.mbgo's loop), but kept as module
# attributes: perfbench/spans.py rebinds them by name.
from .core import best_worst, greedy_replace, init_population  # noqa: F401

__all__ = ["RANDOM_SEARCH_CHUNK", "DeParams", "PsoParams", "run_de", "run_pso", "run_random_search"]

# Samples random search draws and evaluates per chunk. The stream does
# not depend on it: one (m, D) uniform draw equals m single draws.
RANDOM_SEARCH_CHUNK = 256


@dataclass(frozen=True)
class DeParams:
    """DE/cur-to-rand/1 with binomial crossover."""

    F: float = 0.8
    Cr: float = 0.9

    def __post_init__(self):
        if self.F < 0:
            raise ConfigurationError("scaling factor F must be non-negative")
        if not 0.0 <= self.Cr <= 1.0:
            raise ConfigurationError("crossover rate Cr must lie in [0, 1]")


@dataclass(frozen=True)
class PsoParams:
    """Global-best PSO; velocities are clamped to [-v_max, v_max]."""

    w: float = 1.0
    c1: float = 2.05
    c2: float = 2.05
    v_max: float = 2.0

    def __post_init__(self):
        if self.v_max <= 0:
            raise ConfigurationError("v_max must be positive")


def run_de(
    problem,
    config: OptimizerConfig,
    params: DeParams = None,
    rng: np.random.Generator = None,
) -> RunResult:
    """DE/cur-to-rand/1: V = x_i + F (x_r1 - x_i) + F (x_r2 - x_r3).

    r1, r2, r3 are distinct and differ from i. Binomial crossover keeps
    each mutant gene with probability Cr plus one forced dimension, so the
    trial equals the parent in every non-crossed dimension. One pass of
    :func:`~battleopt.mbgo.battle_game` per iteration, so clamping, greedy
    replacement, budget, trace and diversity are the battle-game
    optimizers'. The peers and the forced dimension come from the loop's
    :class:`~battleopt.core.Draws`: the values of
    ``rng.choice(n - 1, 3, replace=False)`` and ``rng.integers(dim)``.
    """
    if params is None:
        params = DeParams()
    dim = problem.bounds.dim

    def sweeps(pop, rng):
        n = len(pop)

        def trial(i, best, worst):
            x = pop[i].position
            a, b, c = rng.distinct(n - 1)
            x1, x2, x3 = (pop[j + (j >= i)].position for j in (a, b, c))
            mutant = x + params.F * (x1 - x) + params.F * (x2 - x3)
            forced = rng.integers(dim)
            cross = rng.random(dim) < params.Cr
            cross[forced] = True
            return np.where(cross, mutant, x)

        return [trial]

    return battle_game(problem, config, rng, "de", sweeps)


def run_pso(
    problem,
    config: OptimizerConfig,
    params: PsoParams = None,
    rng: np.random.Generator = None,
) -> RunResult:
    """Global-best PSO with zero initial velocities.

    Members accept every move; monotonicity lives in the personal and
    global bests, and the trace reports the global best.
    """
    if params is None:
        params = PsoParams()
    check_pop_size("pso", config.pop_size)
    check_budget("pso", config.pop_size, config.budget)
    if rng is None:
        rng = make_rng(config.seed)
    bounds = problem.bounds
    evaluate = problem.evaluate
    n, dim = config.pop_size, bounds.dim

    positions = rng.uniform(bounds.lower, bounds.upper, size=(n, dim))
    velocities = np.zeros((n, dim))
    budget = EvaluationBudget(config.budget)
    budget.take(n)
    pbest = positions.copy()
    pbest_fit = problem.evaluate_batch(positions)
    g = int(np.argmin(pbest_fit))
    gbest = pbest[g].copy()
    gbest_fit = float(pbest_fit[g])

    trace = [(budget.used, gbest_fit)]
    diversity = [(0, population_diversity(positions, bounds))]
    iteration = 0

    while not budget.exhausted:
        iteration += 1
        for i in range(n):
            if budget.exhausted:
                break
            r1 = rng.random(dim)
            r2 = rng.random(dim)
            velocities[i] = (
                params.w * velocities[i]
                + params.c1 * r1 * (pbest[i] - positions[i])
                + params.c2 * r2 * (gbest - positions[i])
            )
            # np.clip(v, -v_max, v_max, out=v) without its Python wrapper
            v = velocities[i]
            np.minimum(np.maximum(v, -params.v_max, out=v), params.v_max, out=v)
            positions[i] = clamp(positions[i] + velocities[i], bounds)
            budget.take()
            f = evaluate(positions[i])
            if f < pbest_fit[i]:
                pbest_fit[i] = f
                pbest[i] = positions[i]
                if f < gbest_fit:
                    gbest_fit = float(f)
                    gbest = positions[i].copy()
        trace.append((budget.used, gbest_fit))
        diversity.append((iteration, population_diversity(positions, bounds)))

    return RunResult(
        best=Individual(gbest.copy(), gbest_fit),
        trace=trace,
        diversity_trace=diversity,
        seed=config.seed,
        fes_used=budget.used,
    )


def run_random_search(
    problem,
    config: OptimizerConfig,
    rng: np.random.Generator = None,
) -> RunResult:
    """Budget i.i.d. uniform samples; the best is kept.

    Samples are drawn and evaluated in chunks of
    :data:`RANDOM_SEARCH_CHUNK`. The trace records every improvement plus
    the final budget point; no persistent population exists, so the
    diversity trace is empty.
    """
    if rng is None:
        rng = make_rng(config.seed)
    bounds = problem.bounds

    best_pos = None
    best_fit = math.inf
    trace = []
    for start in range(0, config.budget, RANDOM_SEARCH_CHUNK):
        m = min(RANDOM_SEARCH_CHUNK, config.budget - start)
        X = rng.uniform(bounds.lower, bounds.upper, size=(m, bounds.dim))
        for row, f in enumerate(problem.evaluate_batch(X).tolist()):
            if best_pos is None or f < best_fit:
                best_fit = f
                best_pos = X[row]
                trace.append((start + row + 1, best_fit))
    if trace[-1][0] != config.budget:
        trace.append((config.budget, best_fit))

    return RunResult(
        best=Individual(best_pos.copy(), best_fit),
        trace=trace,
        diversity_trace=[],
        seed=config.seed,
        fes_used=config.budget,
    )
