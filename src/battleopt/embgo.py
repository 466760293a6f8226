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

from .core import ConfigurationError, Individual, OptimizerConfig, RunResult, resolve_params
from .levy import DEFAULT_BETA, levy_sample, levy_sigma
from .mbgo import MbgoParams, battle, battle_game, in_safe_zone, member_sweep, safe_zone_radius

# Not called here (the run loop, the pass loop with its clamp and the
# battle step live in battleopt.mbgo), but kept as module attributes:
# perfbench/spans.py rebinds them by name.
from .core import best_worst, clamp, greedy_replace, init_population  # noqa: F401
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
    *,
    independent_r: bool = True,
) -> np.ndarray:
    """Current-to-best&mean step, unclamped.

    x_i + (x_best - x_i) sin(2 pi r1) + (x_mean - x_i) sin(2 pi r2),
    with r1 drawn first and r2 = r1 when ``independent_r`` is false.
    """
    r1 = rng.random()
    r2 = rng.random() if independent_r else r1
    return (
        x_i.position
        + (x_best.position - x_i.position) * math.sin(2.0 * math.pi * r1)
        + (x_mean - x_i.position) * math.sin(2.0 * math.pi * r2)
    )


def levy_move(
    x_i: Individual,
    beta: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Exploration step: x_i plus one heavy-tailed step per dimension, unclamped."""
    return x_i.position + levy_sample(beta, x_i.position.size, rng)


def run_embgo(
    problem,
    config: OptimizerConfig,
    rng: np.random.Generator = None,
    *,
    params: EmbgoParams = None,
) -> RunResult:
    """Merged-phase :func:`~battleopt.mbgo.battle_game`: one coin-flip pass.

    The centroid of the loop's positions is taken once per iteration,
    the safe zone from the current best/worst on each movement-branch
    entry; the battle branch is MBGO's :func:`~battleopt.mbgo.battle`.
    ``rng`` defaults to ``make_rng(config.seed)`` and ``params`` to
    ``EmbgoParams()``.
    """
    params = resolve_params(params, EmbgoParams)

    def passes(pop, X, rng):
        x_mean = X.mean(axis=0)

        def merged(i, best, worst):
            if rng.random() >= 0.5:
                return battle(pop, i, rng)
            ind = pop[i]
            zone = safe_zone_radius(best, worst, rng, params.delta_low, params.delta_high)
            if in_safe_zone(ind, zone):
                return diff_mutation(ind, best, x_mean, rng, independent_r=params.independent_r)
            return levy_move(ind, params.beta, rng)

        return [merged]

    return battle_game(problem, config, rng, "embgo", member_sweep(problem.bounds, passes))
