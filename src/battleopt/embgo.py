"""Efficient variant with a merged per-individual phase dispatch.

Instead of two fixed passes, every individual flips a fair coin each
iteration: heads enters the movement branch (differential mutation
inside the safe zone, a Levy flight outside), tails enters the battle
branch (unchanged from the original). One evaluation per individual per
iteration, half the original's per-iteration cost.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import (
    Bounds,
    ConfigurationError,
    EvaluationBudget,
    Extremes,
    Individual,
    OptimizerConfig,
    RunResult,
    best_worst,
    clamp,
    greedy_replace,
    init_population,
    make_rng,
)
from .levy import DEFAULT_BETA, levy_sample
from .mbgo import (
    battle_dir,
    battle_vs_stronger,
    battle_vs_weaker,
    in_safe_zone,
    pick_enemy,
    safe_zone_radius,
)
from .stats import population_diversity

__all__ = ["EmbgoParams", "diff_mutation", "levy_move", "run_embgo"]


@dataclass(frozen=True)
class EmbgoParams:
    """Tunables: radius amplification range, Levy index, mutation coupling.

    ``independent_r`` selects whether the two sine coefficients in the
    differential mutation use independent draws (default) or share one.
    """

    delta_low: float = 0.8
    delta_high: float = 1.2
    beta: float = DEFAULT_BETA
    independent_r: bool = True

    def __post_init__(self):
        if not 0.0 < self.delta_low < self.delta_high:
            raise ConfigurationError("need 0 < delta_low < delta_high")
        if not 0.0 < self.beta < 2.0:
            raise ConfigurationError("beta must lie in (0, 2)")


def diff_mutation(
    x_i: Individual,
    x_best: Individual,
    x_mean: np.ndarray,
    rng: np.random.Generator,
    bounds: Bounds = None,
    independent_r: bool = True,
) -> np.ndarray:
    """Current-to-best&mean step.

    x_i + (x_best - x_i) sin(2 pi r1) + (x_mean - x_i) sin(2 pi r2),
    with r1 drawn first and r2 = r1 when ``independent_r`` is false.
    """
    r1 = rng.random()
    r2 = rng.random() if independent_r else r1
    candidate = (
        x_i.position
        + (x_best.position - x_i.position) * math.sin(2.0 * math.pi * r1)
        + (x_mean - x_i.position) * math.sin(2.0 * math.pi * r2)
    )
    return clamp(candidate, bounds) if bounds is not None else candidate


def levy_move(
    x_i: Individual,
    beta: float,
    rng: np.random.Generator,
    bounds: Bounds = None,
) -> np.ndarray:
    """Exploration step: x_i plus one heavy-tailed step per dimension."""
    candidate = x_i.position + levy_sample(beta, x_i.position.size, rng)
    return clamp(candidate, bounds) if bounds is not None else candidate


def run_embgo(
    problem,
    config: OptimizerConfig,
    rng: np.random.Generator = None,
    params: EmbgoParams = None,
    *,
    branch_hook: Optional[Callable[[str], None]] = None,
) -> RunResult:
    """Merged-phase run until the evaluation budget is exhausted.

    The population centroid is recomputed once per iteration; the safe
    zone is recomputed from the current best/worst on each movement-branch
    entry. Best and worst are tracked incrementally
    (:class:`~battleopt.core.Extremes`), so selection costs O(1) amortized
    per candidate; the population is rescanned only when its worst member
    improves. ``branch_hook`` (instrumentation only) receives "movement" or
    "battle" per dispatched candidate.
    """
    if config.pop_size < 2:
        raise ConfigurationError("embgo needs a population of at least 2")
    if config.budget < config.pop_size:
        raise ConfigurationError("budget must cover the initial evaluations")
    if rng is None:
        rng = make_rng(config.seed)
    if params is None:
        params = EmbgoParams()
    bounds = problem.bounds
    evaluate = problem.evaluate

    pop = init_population(config.pop_size, bounds, rng)
    budget = EvaluationBudget(config.budget)
    for ind in pop:
        budget.take()
        ind.fitness = evaluate(ind.position)

    ext = Extremes(pop)
    trace = [(budget.used, pop[ext.best].fitness)]
    diversity = [(0, population_diversity(pop, bounds))]
    iteration = 0

    while not budget.exhausted:
        iteration += 1
        x_mean = np.mean([ind.position for ind in pop], axis=0)
        for i in range(len(pop)):
            if budget.exhausted:
                break
            ind = pop[i]
            if rng.random() < 0.5:
                if branch_hook is not None:
                    branch_hook("movement")
                best, worst = pop[ext.best], pop[ext.worst]
                zone = safe_zone_radius(
                    best, worst, rng, params.delta_low, params.delta_high
                )
                if in_safe_zone(ind, zone):
                    candidate = diff_mutation(
                        ind, best, x_mean, rng, bounds, params.independent_r
                    )
                else:
                    candidate = levy_move(ind, params.beta, rng, bounds)
            else:
                if branch_hook is not None:
                    branch_hook("battle")
                enemy = pop[pick_enemy(i, len(pop), rng)]
                direction = battle_dir(ind, enemy)
                if enemy.fitness < ind.fitness:
                    candidate = battle_vs_stronger(ind, enemy, direction, rng, bounds)
                else:
                    candidate = battle_vs_weaker(ind, direction, rng, bounds)
            budget.take()
            kept = pop[i] = greedy_replace(ind, Individual(candidate, evaluate(candidate)))
            if kept is not ind:
                ext.replaced(i, kept.fitness)
        trace.append((budget.used, pop[ext.best].fitness))
        diversity.append((iteration, population_diversity(pop, bounds)))

    best, _ = best_worst(pop)
    return RunResult(
        best=best.copy(),
        trace=trace,
        diversity_trace=diversity,
        seed=config.seed,
        fes_used=budget.used,
    )
