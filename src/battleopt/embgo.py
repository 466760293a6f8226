"""Efficient variant with a merged per-individual phase dispatch.

Instead of two fixed passes, every individual flips a fair coin each
iteration: heads enters the movement branch (differential mutation
inside the safe zone, a Levy flight outside), tails enters the battle
branch (unchanged from the original). One evaluation per individual per
iteration, half the original's per-iteration cost. The pass runs in
MBGO's :func:`~battleopt.mbgo.member_sweep`, which takes the movement
branch as a :class:`~battleopt.mbgo.Movement` of this module's step
functions; :func:`diff_mutation` and :func:`levy_move` draw and call the
same functions for one member.
"""

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .core import ConfigurationError, OptimizerConfig, RunResult, resolve_params
from .levy import DEFAULT_BETA, levy_sample, levy_sampler, levy_sigma
from .mbgo import MbgoParams, Movement, battle_game, member_sweep

# Not called here (the run loop, the pass loop with its zone test, clamp
# and battles live in battleopt.mbgo), but kept as module attributes:
# perfbench/spans.py rebinds them by name.
from .core import best_worst, clamp, greedy_replace, init_population  # noqa: F401
from .mbgo import battle_vs_stronger, battle_vs_weaker, in_safe_zone, pick_enemy  # noqa: F401
from .mbgo import safe_zone_radius  # noqa: F401
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


def _draw_sines(independent_r: bool, draws) -> tuple:
    s1 = math.sin(2.0 * math.pi * draws.random())
    return s1, (math.sin(2.0 * math.pi * draws.random()) if independent_r else s1)


def _mutate(x_mean, x, xb, s1, s2):
    """Differential mutation step, for one row or, with columns s1 and s2, a block (see mbgo)."""
    return x + (xb - x) * s1 + (x_mean - x) * s2


def _flight(x, xb, step):
    """Levy flight step: x + step (xb unused, as a Movement's outside step), a row or a block."""
    return x + step


def diff_mutation(
    x: np.ndarray, xb: np.ndarray, x_mean: np.ndarray, rng: np.random.Generator, *,
    independent_r: bool = True,
) -> np.ndarray:
    """Current-to-best&mean step of row ``x``, unclamped.

    x + (xb - x) sin(2 pi r1) + (x_mean - x) sin(2 pi r2), with r1 drawn
    first and r2 = r1 when ``independent_r`` is false.
    """
    return _mutate(x_mean, x, xb, *_draw_sines(independent_r, rng))


def levy_move(x: np.ndarray, beta: float, rng: np.random.Generator) -> np.ndarray:
    """Exploration step: row ``x`` plus one heavy-tailed step per dimension, unclamped."""
    return _flight(x, None, levy_sample(beta, x.size, rng))


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
    The movement branch is :func:`diff_mutation`'s and :func:`levy_move`'s
    draws and step functions as a :class:`~battleopt.mbgo.Movement`.
    ``rng`` defaults to ``make_rng(config.seed)`` and ``params`` to
    ``EmbgoParams()``.
    """
    params = resolve_params(params, EmbgoParams)
    draw_sines = partial(_draw_sines, params.independent_r)
    draw_flight = levy_sampler(params.beta, problem.bounds.dim)

    def passes(X):
        # X.mean(axis=0) without its wrapper, as stats.population_diversity takes it
        mutate = partial(_mutate, np.add.reduce(X, 0, np.float64) / len(X))
        move = Movement(params.delta_low, params.delta_high, draw_sines, mutate, draw_flight, _flight)
        return [(move, True)]

    return battle_game(problem, config, rng, "embgo", member_sweep(problem, passes))
