"""Multiplayer battle game optimizer: safe-zone movement plus enemy battles.

Each iteration makes two full passes over the population. The movement
pass steers every member relative to a hypersphere (the safe zone)
centered on the current best; the battle pass confronts every member
with one random enemy. The operators return raw proposals;
:func:`member_sweep` clamps every candidate to the box, and the run loop
evaluates it and keeps it only on strict improvement, so two evaluations
per member are consumed per full iteration.

The run loop, :func:`battle_game`, is shared with differential evolution
in :mod:`battleopt.baselines`; :func:`member_sweep` and the battle step,
:func:`battle`, with the merged-phase variant in :mod:`battleopt.embgo`.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ConfigurationError,
    Draws,
    EvaluationBudget,
    Extremes,
    Individual,
    OptimizerConfig,
    RunResult,
    best_worst,
    check_budget,
    check_pop_size,
    clamp,
    fitness_value,
    greedy_replace,
    init_population,
    make_rng,
    resolve_params,
)
from .stats import population_diversity

__all__ = [
    "RADIUS_EPSILON",
    "MbgoParams",
    "SafeZone",
    "safe_zone_radius",
    "in_safe_zone",
    "move_inside",
    "move_outside",
    "battle_dir",
    "battle_vs_stronger",
    "battle_vs_weaker",
    "pick_enemy",
    "battle",
    "member_sweep",
    "battle_game",
    "run_mbgo",
]

# Keeps the safe-zone radius positive when best and worst coincide.
RADIUS_EPSILON = 1e-12


@dataclass(frozen=True)
class MbgoParams:
    """Safe-zone tunables: the radius amplification delta ~ U(delta_low, delta_high)."""

    delta_low: float = 0.8
    delta_high: float = 1.2

    def __post_init__(self):
        if not 0.0 < self.delta_low < self.delta_high < math.inf:
            raise ConfigurationError("need 0 < delta_low < delta_high, both finite")


class SafeZone:
    """Hypersphere around the current best individual."""

    __slots__ = ("center", "radius")

    def __init__(self, center: np.ndarray, radius: float):
        self.center = center
        self.radius = radius


def safe_zone_radius(
    best: Individual,
    worst: Individual,
    rng: np.random.Generator,
    delta_low: float = MbgoParams.delta_low,
    delta_high: float = MbgoParams.delta_high,
) -> SafeZone:
    """Zone centered on the best member, radius (||best - worst|| + eps) * delta.

    delta ~ U(delta_low, delta_high) amplifies the best-to-worst distance;
    the epsilon keeps the radius positive for a collapsed population.
    delta is ``rng.uniform(delta_low, delta_high)`` written out: numpy
    checks the range as below and returns ``low + range * random()`` from
    one draw. The norm is numpy's 1-D ``norm``, ``sqrt(d . d)``.
    """
    low = float(delta_low)
    span = float(delta_high) - low
    if not math.isfinite(span):
        raise OverflowError("high - low range exceeds valid bounds")
    if math.copysign(1.0, span) < 0.0:
        raise ValueError("high - low < 0")
    delta = low + span * rng.random()
    d = best.position - worst.position
    gap = math.sqrt(d.dot(d))
    return SafeZone(center=best.position, radius=(gap + RADIUS_EPSILON) * delta)


def in_safe_zone(x: Individual, zone: SafeZone) -> bool:
    """Euclidean membership test, boundary inclusive."""
    d = x.position - zone.center
    return math.sqrt(d.dot(d)) <= zone.radius


def move_inside(
    x_i: Individual,
    x_best: Individual,
    rng: np.random.Generator,
) -> np.ndarray:
    """In-zone move: x_i + x_best * sin(2 pi r), one scalar r per call, unclamped."""
    r = rng.random()
    return x_i.position + x_best.position * math.sin(2.0 * math.pi * r)


def move_outside(
    x_i: Individual,
    x_best: Individual,
    rng: np.random.Generator,
) -> np.ndarray:
    """Out-of-zone move, each dimension independently, unclamped.

    With its own r ~ U(0, 1) per dimension: a standard-normal jitter when
    r < 0.5, otherwise a convex step toward the best scaled by the same r.
    Draw order is r vector first, then the normal jitter vector.
    """
    d = x_i.position.size
    r = rng.random(d)
    theta = rng.normal(0.0, 1.0, d)
    toward_best = x_i.position + (x_best.position - x_i.position) * r
    return np.where(r < 0.5, x_i.position + theta, toward_best)


def battle_dir(x_i: Individual, x_enemy: Individual) -> np.ndarray:
    """Differential vector pointing away from the fitter combatant.

    x_i - x_enemy when x_i is strictly fitter, x_enemy - x_i otherwise
    (ties take the second branch).
    """
    if x_i.fitness < x_enemy.fitness:
        return x_i.position - x_enemy.position
    return x_enemy.position - x_i.position


def battle_vs_stronger(
    x_i: Individual,
    x_enemy: Individual,
    direction: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Confronting a stronger enemy: per dimension, step from self or enemy.

    Each dimension draws its own r, used both to pick the base point
    (self when r < 0.5, enemy otherwise) and to scale the step. Unclamped.
    """
    d = x_i.position.size
    r = rng.random(d)
    return np.where(
        r < 0.5, x_i.position + direction * r, x_enemy.position + direction * r
    )


def battle_vs_weaker(
    x_i: Individual,
    direction: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Confronting a weaker enemy: x_i + dir * cos(2 pi r), scalar r, unclamped."""
    r = rng.random()
    return x_i.position + direction * math.cos(2.0 * math.pi * r)


def pick_enemy(i: int, n: int, rng) -> int:
    """Uniform index over the other n - 1 members (never i itself).

    ``rng`` is a Generator or, inside :func:`battle_game`, the loop's
    :class:`~battleopt.core.Draws`; both give the same index.
    """
    j = int(rng.integers(n - 1))
    return j + 1 if j >= i else j


def battle(pop: list, i: int, rng) -> np.ndarray:
    """Unclamped battle step of member ``i`` against one random enemy.

    The enemy is drawn first; a stronger enemy gets the per-dimension
    step, a weaker or equal one the cosine step. EMBGO reuses it unchanged.
    ``rng`` is a Generator or the loop's :class:`~battleopt.core.Draws`.
    """
    ind = pop[i]
    enemy = pop[pick_enemy(i, len(pop), rng)]
    direction = battle_dir(ind, enemy)
    if enemy.fitness < ind.fitness:
        return battle_vs_stronger(ind, enemy, direction, rng)
    return battle_vs_weaker(ind, direction, rng)


def member_sweep(bounds, passes):
    """:func:`battle_game` sweep of per-member passes, as MBGO and EMBGO run them.

    ``passes(pop, X, draws)`` gives an iteration's passes, each a
    ``propose(i, best, worst)``. A pass visits members ``0 .. min(N, left) - 1``
    in index order and clamps each proposal to ``bounds`` for ``step``.
    ``best`` and ``worst`` come from an :class:`~battleopt.core.Extremes`
    built once per iteration and told of each accepted step.
    """

    def sweep(pop, X, draws, step, left):
        ext = Extremes(pop)
        for propose in passes(pop, X, draws):
            m = min(len(pop), left)
            left -= m
            for i in range(m):
                if step(i, clamp(propose(i, pop[ext.best], pop[ext.worst]), bounds)):
                    ext.replaced(i, pop[i].fitness)

    return sweep


def battle_game(problem, config: OptimizerConfig, rng, name: str, sweep) -> RunResult:
    """Run loop shared by MBGO, EMBGO and DE until the evaluation budget is exhausted.

    It evaluates a uniform initial population in one batch call (one
    budget unit per member, Python floats, NaN already +inf) into an
    ``(N, D)`` array ``X`` whose rows the members' positions view, then
    calls ``sweep(pop, X, draws, step, left)`` once per iteration, with
    ``left`` the evaluations the budget has left and ``draws`` the run's
    :class:`~battleopt.core.Draws` over ``rng``: the same stream, with
    cheaper scalar draws. ``step(i, candidate)`` costs one evaluation,
    turns its value into a float (:func:`~battleopt.core.fitness_value`)
    and, only on strict improvement, copies ``candidate`` into ``X[i]``
    and points member ``i`` at that row; it returns whether it did. A
    sweep steps members in index order, at most ``left`` times. Each
    iteration adds a trace point, the members' minimum fitness, and a
    diversity point. ``name`` labels the configuration errors and selects
    the population minimum in :data:`~battleopt.core.MIN_POP_SIZE`;
    ``rng`` defaults to ``make_rng(config.seed)``, and one without a
    ``bit_generator`` is a ``TypeError`` before anything is drawn or
    evaluated.
    """
    check_pop_size(name, config.pop_size)
    check_budget(name, config.pop_size, config.budget)
    if rng is None:
        rng = make_rng(config.seed)
    draws = Draws(rng)
    bounds = problem.bounds
    evaluate = problem.evaluate

    pop = init_population(config.pop_size, bounds, rng)
    X = np.array([ind.position for ind in pop])
    budget = EvaluationBudget(config.budget)
    budget.take(len(pop))
    # a copy: no array the objective is handed is written to afterwards
    for i, f in enumerate(problem.evaluate_batch(X.copy()).tolist()):
        pop[i].position, pop[i].fitness = X[i], f

    trace = [(budget.used, min([ind.fitness for ind in pop]))]
    diversity = [(0, population_diversity(X, bounds))]

    def step(i, candidate):
        budget.take()
        f = evaluate(candidate)
        if type(f) is not float or f != f:
            f = fitness_value(f, problem.name)
        ind = pop[i]
        kept = pop[i] = greedy_replace(ind, Individual(candidate, f))
        if kept is ind:
            return False
        X[i] = candidate
        kept.position = X[i]
        return True

    while not budget.exhausted:
        sweep(pop, X, draws, step, budget.limit - budget.used)
        trace.append((budget.used, min([ind.fitness for ind in pop])))
        diversity.append((len(diversity), population_diversity(X, bounds)))

    best, _ = best_worst(pop)
    return RunResult(
        best=best.copy(),
        trace=trace,
        diversity_trace=diversity,
        seed=config.seed,
        fes_used=budget.used,
    )


def run_mbgo(
    problem,
    config: OptimizerConfig,
    rng: np.random.Generator = None,
    *,
    params: MbgoParams = None,
    movement_phase: bool = True,
    battle_phase: bool = True,
) -> RunResult:
    """Two-phase :func:`battle_game`: a movement pass, then a battle pass.

    The safe zone is recomputed from the current best/worst before each
    individual's movement step, and enemies are redrawn per battle step.
    ``rng`` defaults to ``make_rng(config.seed)`` and ``params`` to
    ``MbgoParams()``. The phase flags exist for ablation studies only; at
    least one must stay on.
    """
    params = resolve_params(params, MbgoParams)
    if not (movement_phase or battle_phase):
        raise ConfigurationError("mbgo needs the movement phase, the battle phase or both")

    def passes(pop, X, rng):
        def move(i, best, worst):
            ind = pop[i]
            zone = safe_zone_radius(best, worst, rng, params.delta_low, params.delta_high)
            if in_safe_zone(ind, zone):
                return move_inside(ind, best, rng)
            return move_outside(ind, best, rng)

        def fight(i, best, worst):
            return battle(pop, i, rng)

        return [p for p, on in ((move, movement_phase), (fight, battle_phase)) if on]

    return battle_game(problem, config, rng, "mbgo", member_sweep(problem.bounds, passes))
