"""Efficient variant with a merged per-individual phase dispatch.

Instead of two fixed passes, every individual flips a fair coin each
iteration: heads enters the movement branch (differential mutation
inside the safe zone, a Levy flight outside), tails enters the battle
branch (unchanged from the original). One evaluation per individual per
iteration, half the original's per-iteration cost.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import Bounds, ConfigurationError, Individual, OptimizerConfig, RunResult, clamp
from .levy import DEFAULT_BETA, levy_sample, levy_sigma
from .mbgo import MbgoParams, battle, battle_game, in_safe_zone, safe_zone_radius

# Not called here (the run loop and the battle step live in battleopt.mbgo),
# but kept as module attributes: perfbench/spans.py TRACE_POINTS rebinds them.
from .core import best_worst, greedy_replace, init_population  # noqa: F401
from .mbgo import battle_vs_stronger, battle_vs_weaker, pick_enemy  # noqa: F401
from .stats import population_diversity  # noqa: F401

__all__ = ["EmbgoParams", "diff_mutation", "levy_move", "run_embgo"]


@dataclass(frozen=True)
class EmbgoParams(MbgoParams):
    """Tunables: MBGO's radius amplification range, Levy index, mutation coupling.

    ``independent_r`` selects whether the two sine coefficients in the
    differential mutation use independent draws (default) or share one.
    """

    beta: float = DEFAULT_BETA
    independent_r: bool = True

    def __post_init__(self):
        super().__post_init__()
        try:  # beta in (0, 2) and a finite Levy scale
            levy_sigma(self.beta)
        except ValueError as exc:
            raise ConfigurationError(str(exc)) from None


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
) -> RunResult:
    """Merged-phase :func:`~battleopt.mbgo.battle_game`: one coin-flip pass.

    The population centroid is recomputed once per iteration; the safe
    zone is recomputed from the current best/worst on each movement-branch
    entry, and the battle branch is MBGO's :func:`~battleopt.mbgo.battle`.
    """
    if params is None:
        params = EmbgoParams()
    bounds = problem.bounds

    def sweeps(pop, rng):
        x_mean = np.mean([ind.position for ind in pop], axis=0)

        def merged(i, best, worst):
            if rng.random() >= 0.5:
                return battle(pop, i, rng, bounds)
            ind = pop[i]
            zone = safe_zone_radius(best, worst, rng, params.delta_low, params.delta_high)
            if in_safe_zone(ind, zone):
                return diff_mutation(ind, best, x_mean, rng, bounds, params.independent_r)
            return levy_move(ind, params.beta, rng, bounds)

        return [merged]

    return battle_game(problem, config, rng, "embgo", sweeps)
