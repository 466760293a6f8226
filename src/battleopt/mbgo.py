"""Multiplayer battle game optimizer: safe-zone movement plus enemy battles.

Each iteration makes two full passes over the population. The movement
pass steers every member relative to a hypersphere (the safe zone)
centered on the current best; the battle pass confronts every member
with one random enemy. The operators return raw proposals for one
member. :func:`member_sweep` computes the same proposals by the same
elementwise expressions: one planner takes each member's draws and picks
its branch, and one row builder makes its clamped candidate (in a large
population, a window of consecutive members is built as one block, with
the draws, points and seeded bits of going member by member). The run
loop evaluates each candidate, or takes the value a window's batch call
gave it, and, only on strict improvement, writes it and its fitness into
the member in place, so two evaluations per member are consumed per full
iteration.

The run loop, :func:`battle_game`, is shared with differential evolution
in :mod:`battleopt.baselines`; :func:`member_sweep` with the merged-phase
variant in :mod:`battleopt.embgo`.
"""

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

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
    make_rng,
    resolve_params,
)
from .problems import pure_rows
from .stats import population_diversity

# Not called here, but kept as module attributes: perfbench/spans.py
# rebinds them by name.
from .core import greedy_replace, init_population  # noqa: F401

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
    "Movement",
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


class Movement(NamedTuple):
    """A movement branch as :func:`member_sweep` runs it: a safe-zone test, then one of two steps.

    delta ~ U(delta_low, delta_high) sizes the zone as in
    :func:`safe_zone_radius`, and the test is :func:`in_safe_zone`'s. An
    in-zone member takes its draws with ``draw_inside(draws)``, a tuple of
    coefficients, and steps to ``inside(x, xb, *coefficients)``; an
    out-of-zone one takes ``draw_outside(draws)`` and steps to
    ``outside(x, xb, drawn)``. ``x`` is the member's row of the loop's
    position array and ``xb`` the best's. ``inside`` also builds a block:
    given rows ``x`` and one column per coefficient, it gives each row what
    that row alone would get.
    """

    delta_low: float
    delta_high: float
    draw_inside: Callable
    inside: Callable
    draw_outside: Callable
    outside: Callable


# Windows (see member_sweep) hold from _WINDOW_MIN to
# min(_WINDOW_MAX, N // _WINDOW_SHARE) members; other members step one at a
# time. Below _WINDOW_MIN a window's fixed cost (a state save, the zone
# distances, a few block expressions per branch) outweighs what it saves.
# Measured raw on sphere, D=10, 41 N evaluations, 12 interleaved pairs
# against no windows: windows of up to 8 at N=128 read embgo 7.5 % slower
# (faster in 4 of 12 pairs) and mbgo 3.7 % faster (9 of 12); windows of 12
# at N=200 read embgo 1.8 % (9 of 12) and mbgo 10.6 % faster (9 of 12).
_WINDOW_MAX = 64
_WINDOW_SHARE = 16
_WINDOW_MIN = 12

# A window's zone test reads a row-wise einsum distance. Where its order of
# summation could decide otherwise than in_safe_zone's d.dot(d) (the value
# is not finite, its square is near the subnormal range, or it lies within
# a relative _NEAR of the radius) the test is in_safe_zone's own. Both sum
# the same squares; in the normal range they differ by under 1e-13 relative.
_NEAR = 1e-9
_TINY = 1e-150

# What a planned member does.
_STRONGER, _WEAKER, _INSIDE, _OUTSIDE = range(4)


def _window_cap(n: int) -> int:
    return min(_WINDOW_MAX, n // _WINDOW_SHARE)


def _stronger(x, xe, r):
    """:func:`battle_vs_stronger`'s step, for one row or a block of rows."""
    return np.where(r < 0.5, x, xe) + (xe - x) * r


def member_sweep(problem, passes):
    """:func:`battle_game` sweep of the per-member passes of MBGO and EMBGO.

    ``passes(X, draws)`` gives an iteration's passes, each a pair
    ``(movement, battle)``: a :class:`Movement` or None, and whether members
    battle. With both, each member flips EMBGO's coin, ``draws.random()``,
    and battles when it is >= 0.5. A battle is :func:`battle`'s: the enemy
    from :func:`pick_enemy`, then the stronger-enemy or the weaker-enemy
    step. A pass visits members ``0 .. min(N, left) - 1`` in index order, and
    each candidate is clamped to ``problem.bounds`` for ``step``. Best and worst come
    from an :class:`~battleopt.core.Extremes` built once per iteration and
    told of each accepted step. The draws, the points handed to ``step`` and
    their order are those of a loop that builds, clamps and steps one member
    at a time.

    One planner takes a member's draws and picks its branch: the coin,
    then delta and the zone test or the enemy and the stronger/weaker
    test, then the draws of that branch, giving ``(kind, enemy or delta,
    drawn)``. One row builder makes the clamped candidate of such a plan
    from the current rows. A member alone is planned, built and stepped.

    From N = 192 on, runs of 12 to min(64, N // 16) consecutive members go
    as a window (see ``_WINDOW_MIN``), in three steps:

    1. Plan every member with the data at the window's start, the zone
       test reading one einsum distance per row. A battle against an enemy
       earlier in the window that is not yet stronger could change branch,
       so the planner pauses there: the window ends before that member,
       which carries its coin and enemy into the next window. A stronger
       enemy stays stronger: steps only ever lower a fitness.
    2. Build the candidates as one block, a kind at a time, by the row
       builder's elementwise expressions, then one clamp.
    3. Step the members in index order. A member is stale if its enemy was
       accepted earlier in the window, or, for a movement, if best or worst
       changed (index or row). A stale member is rechecked with the exact
       zone test and rebuilt by the row builder. If its branch changed, its
       draws would too: the generator goes back to the state saved at the
       window's start, the kept members' draws are taken again, and the
       next window starts at that member.

    A window is no longer than the members stepped since best or worst last
    changed, so a run in which they change at every step goes one member at
    a time, with no state saved.

    For an objective the package built and knows pure (the raw and
    transformed benchmarks, a table with no missing score; see
    :func:`~battleopt.problems.pure_rows`) a window's block is evaluated
    in one batch call after step 2, and a member that is not stale is
    stepped with its value from it. Only such an objective sees the
    candidates of stale members and of members after a rewind, whose
    batch values are thrown away. Any other objective, a user's included,
    is called by ``step`` once per candidate, exactly one call per FE. (PSO, in
    :mod:`battleopt.baselines`, evaluates per particle for every
    objective.)
    """
    bounds, rows = problem.bounds, pure_rows(problem)
    calm = 0  # members stepped since best or worst last changed

    def sweep(pop, X, draws, step, left):
        nonlocal calm
        n, dim = X.shape
        cap = _window_cap(n)
        ext = Extremes(pop)
        random = draws.random
        epoch = 0  # changes of best or worst, index or row, in this sweep
        zone_epoch = -1
        xb = gap = None

        def zone():
            """The best's row and ||best - worst|| + eps, taken once per epoch."""
            nonlocal zone_epoch, xb, gap
            if zone_epoch != epoch:
                xb = X[ext.best]
                d = xb - X[ext.worst]
                gap = math.sqrt(d.dot(d)) + RADIUS_EPSILON
                zone_epoch = epoch
            return xb, gap

        def stepped(i, candidate, f=None):
            """``step``, then the bookkeeping of best, worst and ``calm``."""
            nonlocal calm, epoch
            if not step(i, candidate, f):
                calm += 1
                return False
            worst = ext.worst
            ext.replaced(i, pop[i].fitness)
            if i == ext.best or i == worst:
                calm = 0
                epoch += 1
            else:
                calm += 1
            return True

        def within(i, delta, r=math.nan):
            """Zone test of member ``i``: ``r``, its window distance, decides unless NaN or near."""
            xb, gap = zone()
            radius = gap * delta
            if _TINY < r < math.inf and abs(r - radius) > _NEAR * radius:
                return r <= radius
            d = X[i] - xb
            return math.sqrt(d.dot(d)) <= radius

        def take(kind):
            """The draws of branch ``kind``."""
            if kind == _STRONGER:
                return random(dim)
            if kind == _WEAKER:
                return math.cos(2.0 * math.pi * random())
            if kind == _INSIDE:
                return mv.draw_inside(draws)
            return mv.draw_outside(draws)

        def plan(i, enemy, lo, dist):
            """Member ``i``'s draws and branch: ``(kind, enemy or delta, drawn)``.

            ``enemy`` is a carried enemy, or None. In a window from ``lo``,
            ``dist`` holds its zone distances, and a weaker or equal enemy
            among ``lo .. i - 1`` pauses the plan before the branch draws:
            ``(None, enemy, None)``. A member alone passes ``lo = i``.
            """
            if enemy is None and mv is not None and not (coin and random() >= 0.5):
                delta = low + span * random()
                kind = _INSIDE if within(i, delta, dist[i - lo] if dist else math.nan) else _OUTSIDE
                return kind, delta, take(kind)
            j = pick_enemy(i, n, draws) if enemy is None else enemy
            if pop[j].fitness < pop[i].fitness:
                return _STRONGER, j, take(_STRONGER)
            if lo <= j < i:
                return None, j, None
            return _WEAKER, j, take(_WEAKER)

        def row(i, kind, a, drawn):
            """Member ``i``'s clamped candidate from the current rows and its plan."""
            x = X[i]
            if kind == _STRONGER:
                candidate = _stronger(x, X[a], drawn)
            elif kind == _WEAKER:
                xe = X[a]
                candidate = x + (x - xe if pop[i].fitness < pop[a].fitness else xe - x) * drawn
            elif kind == _INSIDE:
                candidate = mv.inside(x, X[ext.best], *drawn)
            else:
                candidate = mv.outside(x, X[ext.best], drawn)
            return clamp(candidate, bounds)

        def block(lo, planned):
            """The planned members' clamped candidates, in index order, built a kind at a time."""
            groups = ([], [], [], [])
            for k, (kind, a, drawn) in enumerate(planned):
                groups[kind].append((k, a, drawn))
            xb = X[ext.best]
            parts, order = [], []
            for kind, group in enumerate(groups):
                if not group:
                    continue
                ks, a, drawn = zip(*group)
                x = X.take([lo + k for k in ks], 0)
                if kind == _STRONGER:
                    part = _stronger(x, X.take(a, 0), np.array(drawn))
                elif kind == _WEAKER:
                    xe = X.take(a, 0)
                    away = [pop[lo + k].fitness < pop[j].fitness for k, j in zip(ks, a)]
                    if all(away):
                        direction = x - xe
                    else:
                        direction = np.where(np.array(away)[:, None], x - xe, xe - x)
                    part = x + direction * np.array(drawn)[:, None]
                elif kind == _INSIDE:
                    part = mv.inside(x, xb, *np.array(drawn).T[:, :, None])
                else:
                    part = np.array([mv.outside(xr, xb, d) for xr, d in zip(x, drawn)])
                parts.append(part)
                order += ks
            candidates = np.empty((len(order), dim))
            candidates[order] = clamp(np.concatenate(parts), bounds)
            return candidates

        def window(lo, hi, enemy):
            """Members ``lo .. hi - 1``; returns where the next window starts and its enemy."""
            saved = draws.save()
            carried = enemy is not None
            since = epoch
            dist = None
            if mv is not None:
                diff = X[lo:hi] - zone()[0]
                dist = np.sqrt(np.einsum("ij,ij->i", diff, diff)).tolist()
            planned = []
            for i in range(lo, hi):
                entry = plan(i, enemy, lo, dist)
                enemy = None
                if entry[0] is None:  # pause: the enemy's step may make it stronger
                    enemy, hi = entry[1], i
                    break
                planned.append(entry)

            candidates = block(lo, planned)
            values = rows(candidates).tolist() if rows else [None] * len(planned)
            moved = set()
            for k, (kind, a, drawn) in enumerate(planned):
                i = lo + k
                if kind == _STRONGER:
                    stale = a in moved
                else:
                    stale = kind != _WEAKER and epoch != since
                    if stale and within(i, a) != (kind == _INSIDE):
                        rewind(saved, planned[:k], carried)
                        return i, None
                if stale:
                    accepted = stepped(i, row(i, kind, a, drawn))
                else:
                    accepted = stepped(i, candidates[k], values[k])
                if accepted:
                    moved.add(i)
            return hi, enemy

        def rewind(saved, kept, carried):
            """Restore ``saved``, then take the draws of the ``kept`` members again."""
            draws.restore(saved)
            for k, (kind, _, _) in enumerate(kept):
                if k or not carried:
                    if coin:
                        random()
                    if kind >= _INSIDE:
                        random()
                    else:
                        draws.integers(n - 1)
                take(kind)

        for mv, fights in passes(X, draws):
            coin = mv is not None and fights
            if mv is not None:
                low = float(mv.delta_low)
                span = float(mv.delta_high) - low
            m = min(n, left)
            left -= m
            i, enemy = 0, None
            while i < m:
                if cap < _WINDOW_MIN or calm < _WINDOW_MIN or m - i < _WINDOW_MIN:
                    stepped(i, row(i, *plan(i, enemy, i, None)))
                    i, enemy = i + 1, None
                else:
                    i, enemy = window(i, i + min(cap, calm, m - i), enemy)

    return sweep


def battle_game(problem, config: OptimizerConfig, rng, name: str, sweep) -> RunResult:
    """Run loop shared by MBGO, EMBGO and DE until the evaluation budget is exhausted.

    It evaluates a uniform initial population in one batch call (one
    budget unit per member, Python floats, NaN already +inf) into an
    ``(N, D)`` array ``X`` whose rows the members' positions view, then
    calls ``sweep(pop, X, draws, step, left)`` once per iteration, with
    ``left`` the evaluations the budget has left and ``draws`` the run's
    :class:`~battleopt.core.Draws` over ``rng``: the same stream, with
    cheaper scalar draws. ``step(i, candidate, f=None)`` costs one budget
    unit. Without ``f`` it evaluates ``candidate`` in one ``evaluate`` call
    and turns the value into a float
    (:func:`~battleopt.core.fitness_value`); a sweep passes ``f`` only for
    an objective marked pure (:func:`~battleopt.problems.pure_rows`),
    taken from a batch call over a window's block, in which the values of
    rebuilt candidates are thrown away. A user's objective is so called
    once per FE; PSO, on a loop of its own, evaluates per particle. Then,
    only on strict improvement, ``step`` copies ``candidate`` into ``X[i]``,
    the row member ``i`` views for the whole run, and the value into its
    ``fitness``; it returns whether it did. A sweep steps members in index
    order, at most ``left`` times. Each iteration adds a trace point, the
    members' minimum fitness, and a diversity point. ``name`` labels the
    configuration errors and selects the population minimum in
    :data:`~battleopt.core.MIN_POP_SIZE`; ``rng`` defaults to
    ``make_rng(config.seed)``, and one without a ``bit_generator`` is a
    ``TypeError`` before anything is drawn or evaluated.
    """
    check_pop_size(name, config.pop_size)
    check_budget(name, config.pop_size, config.budget)
    if rng is None:
        rng = make_rng(config.seed)
    draws = Draws(rng)
    bounds = problem.bounds
    evaluate = problem.evaluate

    # init_population's draw, kept as one array that the members view
    X = rng.uniform(bounds.lower, bounds.upper, size=(config.pop_size, bounds.dim))
    budget = EvaluationBudget(config.budget)
    budget.take(config.pop_size)
    # a copy: no array the objective is handed is written to afterwards
    fits = problem.evaluate_batch(X.copy()).tolist()
    pop = [Individual(X[i], f) for i, f in enumerate(fits)]

    trace = [(budget.used, min([ind.fitness for ind in pop]))]
    diversity = [(0, population_diversity(X, bounds))]

    def step(i, candidate, f=None):
        budget.take()
        if f is None:
            f = evaluate(candidate)
            if type(f) is not float or f != f:
                f = fitness_value(f, problem.name)
        ind = pop[i]
        if not f < ind.fitness:
            return False
        X[i] = candidate
        ind.fitness = f
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
    The movement steps are :func:`move_inside`'s and :func:`move_outside`'s
    as a :class:`Movement`, with the same draws in the same order.
    ``rng`` defaults to ``make_rng(config.seed)`` and ``params`` to
    ``MbgoParams()``. The phase flags exist for ablation studies only; at
    least one must stay on.
    """
    params = resolve_params(params, MbgoParams)
    if not (movement_phase or battle_phase):
        raise ConfigurationError("mbgo needs the movement phase, the battle phase or both")
    dim = problem.bounds.dim

    def draw_outside(draws):
        return draws.random(dim), draws.normal(0.0, 1.0, dim)

    def outside(x, xb, drawn):
        r, theta = drawn
        return np.where(r < 0.5, x + theta, x + (xb - x) * r)

    move = Movement(
        params.delta_low,
        params.delta_high,
        lambda draws: (math.sin(2.0 * math.pi * draws.random()),),
        lambda x, xb, s: x + xb * s,
        draw_outside,
        outside,
    )
    chosen = [p for p, on in (((move, False), movement_phase), ((None, True), battle_phase)) if on]
    sweep = member_sweep(problem, lambda X, draws: chosen)
    return battle_game(problem, config, rng, "mbgo", sweep)
