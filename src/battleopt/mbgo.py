"""Multiplayer battle game optimizer: safe-zone movement plus enemy battles.

Each iteration makes two full passes over the population. The movement
pass steers every member relative to a hypersphere (the safe zone)
centered on the current best; the battle pass confronts every member
with one random enemy. Each step formula (in-zone, out-of-zone, stronger
and weaker battle) is written once, as a module-level function of rows:
the public operators draw and call it for one member, and
:func:`member_sweep` calls it for one row or a block of rows. One planner
takes each member's draws and picks its branch, and one row builder makes
its clamped candidate (in a large population, a window of consecutive
members is built as one block, with the draws, points and seeded bits of
going member by member). The run loop holds the population as a position
array ``X`` and a list ``F`` of fitnesses, and no member objects. It
evaluates each candidate, or takes the value a window's batch call gave
it, and, only on strict improvement, writes it into ``X[i]`` and ``F[i]``,
so two evaluations per member are consumed per full iteration.

The run loop, :func:`battle_game`, is shared with differential evolution
in :mod:`battleopt.baselines`; :func:`member_sweep` with the merged-phase
variant in :mod:`battleopt.embgo`.
"""

import math
import operator
from dataclasses import dataclass
from functools import partial
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
    init_population,
    make_rng,
    resolve_params,
)
from .problems import pure_rows
from .stats import population_diversity

# Not called here, but kept as a module attribute: perfbench/spans.py
# rebinds it by name.
from .core import greedy_replace  # noqa: F401

__all__ = [
    "RADIUS_EPSILON",
    "MbgoParams",
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


def _distance(a: np.ndarray, b: np.ndarray) -> float:
    """||a - b|| as numpy's 1-D ``norm`` computes it, ``sqrt(d . d)``: the zone norm."""
    d = a - b
    return math.sqrt(d.dot(d))


def safe_zone_radius(
    xb: np.ndarray,
    xw: np.ndarray,
    rng: np.random.Generator,
    delta_low: float = MbgoParams.delta_low,
    delta_high: float = MbgoParams.delta_high,
) -> float:
    """Radius of the zone centered on the best row ``xb``: (||xb - xw|| + eps) * delta.

    delta ~ U(delta_low, delta_high) amplifies the best-to-worst distance;
    the epsilon keeps the radius positive for a collapsed population.
    delta is ``rng.uniform(delta_low, delta_high)`` written out: numpy
    checks the range as below and returns ``low + range * random()`` from
    one draw. The norm is :func:`_distance`.
    """
    low = float(delta_low)
    span = float(delta_high) - low
    if not math.isfinite(span):
        raise OverflowError("high - low range exceeds valid bounds")
    if math.copysign(1.0, span) < 0.0:
        raise ValueError("high - low < 0")
    delta = low + span * rng.random()
    return (_distance(xb, xw) + RADIUS_EPSILON) * delta


def in_safe_zone(x: np.ndarray, center: np.ndarray, radius: float) -> bool:
    """Euclidean membership test of row ``x``, boundary inclusive."""
    return _distance(x, center) <= radius


# The step formulas, each the only copy: the public operators below and
# member_sweep call them. They take rows (the member's x, the best's xb,
# the enemy's xe) and drawn coefficients and give the unclamped candidate;
# for a block of rows and a column of coefficients, each row's own. The
# _draw_* functions take a branch's draws from a Generator or the loop's
# Draws, in the operators' order. The public operators take rows (1-D
# float arrays), the fitnesses where a branch reads them, and a generator.


def _draw_sine(draws) -> tuple:
    return (math.sin(2.0 * math.pi * draws.random()),)


def _inside(x, xb, s):
    return x + xb * s


def _draw_outside(dim: int, draws) -> tuple:
    return draws.random(dim), draws.normal(0.0, 1.0, dim)


def _outside(x, xb, drawn):
    r, theta = drawn
    return np.where(r < 0.5, x + theta, x + (xb - x) * r)


def _draw_cosine(draws) -> float:
    return math.cos(2.0 * math.pi * draws.random())


def _stronger(x, xe, direction, r):
    return np.where(r < 0.5, x, xe) + direction * r


def _weaker(x, direction, c):
    return x + direction * c


def move_inside(x: np.ndarray, xb: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """In-zone move: x + xb * sin(2 pi r), one scalar r per call, unclamped."""
    return _inside(x, xb, *_draw_sine(rng))


def move_outside(x: np.ndarray, xb: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Out-of-zone move, each dimension independently, unclamped.

    With its own r ~ U(0, 1) per dimension: a standard-normal jitter when
    r < 0.5, otherwise a convex step toward the best scaled by the same r.
    Draw order is r vector first, then the normal jitter vector.
    """
    return _outside(x, xb, _draw_outside(x.size, rng))


def battle_dir(x: np.ndarray, f: float, xe: np.ndarray, fe: float) -> np.ndarray:
    """Differential vector pointing away from the fitter combatant.

    x - xe when the member (fitness ``f``) is strictly fitter than the
    enemy (``fe``), xe - x otherwise (ties take the second branch).
    """
    if f < fe:
        return x - xe
    return xe - x


def battle_vs_stronger(
    x: np.ndarray, xe: np.ndarray, direction: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Confronting a stronger enemy: per dimension, step from self or enemy.

    Each dimension draws its own r, used both to pick the base point
    (self when r < 0.5, enemy otherwise) and to scale the step. Unclamped.
    """
    return _stronger(x, xe, direction, rng.random(x.size))


def battle_vs_weaker(x: np.ndarray, direction: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Confronting a weaker enemy: x + dir * cos(2 pi r), scalar r, unclamped."""
    return _weaker(x, direction, _draw_cosine(rng))


def pick_enemy(i: int, n: int, rng) -> int:
    """Uniform index over the other n - 1 members (never i itself).

    ``rng`` is a Generator or, inside :func:`battle_game`, the loop's
    :class:`~battleopt.core.Draws`; both give the same index.
    """
    j = int(rng.integers(n - 1))
    return j + 1 if j >= i else j


def battle(X: np.ndarray, F, i: int, rng) -> np.ndarray:
    """Unclamped battle step of member ``i``, row ``X[i]`` with fitness ``F[i]``.

    The enemy ``j`` is drawn first; a stronger enemy (``F[j] < F[i]``)
    gets the per-dimension step, a weaker or equal one the cosine step.
    EMBGO reuses it unchanged. ``rng`` is a Generator or the loop's
    :class:`~battleopt.core.Draws`.
    """
    j = pick_enemy(i, len(F), rng)
    x, xe = X[i], X[j]
    direction = battle_dir(x, F[i], xe, F[j])
    if F[j] < F[i]:
        return battle_vs_stronger(x, xe, direction, rng)
    return battle_vs_weaker(x, direction, rng)


class Movement(NamedTuple):
    """A movement branch as :func:`member_sweep` runs it: a safe-zone test, then one of two steps.

    delta ~ U(delta_low, delta_high) sizes the zone as in
    :func:`safe_zone_radius`, and the test is :func:`in_safe_zone`'s. An
    in-zone member takes its draws with ``draw_inside(draws)``, a tuple of
    coefficients, and steps to ``inside(x, xb, *coefficients)``; an
    out-of-zone one takes ``draw_outside(draws)`` and steps to
    ``outside(x, xb, drawn)``. ``x`` is the member's row of the loop's
    position array and ``xb`` the best's. Like the step functions above,
    ``inside`` also takes a block of rows and one column per coefficient,
    and ``outside`` a block of rows and the members' draws stacked on the
    second-to-last axis of each drawn array.
    """

    delta_low: float
    delta_high: float
    draw_inside: Callable
    inside: Callable
    draw_outside: Callable
    outside: Callable


# Windows (see member_sweep) hold from _WINDOW_MIN to min(_WINDOW_MAX,
# _WINDOW_COORDS * N // D) members; others step alone. Below _WINDOW_MIN the fixed cost
# (state save, zone distances, block expressions) outweighs the saving: windows of 8 at
# N=128, D=10 read embgo 7.5 % slower than none. The cap reads N·D because a window's
# wasted rows (stale or rewound) grow with its length squared over N, each a full FE
# whose cost grows with D. Batched, against the former N // 16 (best of 3, 8-10 pairs),
# the embgo / mbgo µs/FE ratios at N=50 are 0.55 / 0.60 on rastrigin:sr D=10, 0.74 / 0.63 on a
# table (D=6), 1.02 / 0.85 on sphere D=100; 16 loses mbgo's D=100 gain, 64 is within 5 %.
_WINDOW_MAX = 64
_WINDOW_COORDS = 32
_WINDOW_MIN = 12

# A window's zone test reads a row-wise einsum distance. Where its order of
# summation could decide otherwise than _distance's d.dot(d) (the value is
# not finite, its square is near the subnormal range, or it lies within a
# relative _NEAR of the radius) the test is _distance's. Both sum the same
# squares; in the normal range they differ by under 1e-13 relative.
_NEAR = 1e-9
_TINY = 1e-150

# What a planned member does.
_STRONGER, _WEAKER, _INSIDE, _OUTSIDE = range(4)


def _window_cap(n: int, dim: int) -> int:
    return min(_WINDOW_MAX, _WINDOW_COORDS * n // dim)


def member_sweep(problem, passes):
    """:func:`battle_game` sweep of the per-member passes of MBGO and EMBGO.

    ``passes(X)`` gives an iteration's passes, each a pair
    ``(movement, battle)``: a :class:`Movement` or None, and whether members
    battle. With both, each member flips EMBGO's coin, ``draws.random()``,
    and battles when it is >= 0.5. A battle is :func:`battle`'s: the enemy
    from :func:`pick_enemy`, then the stronger-enemy or the weaker-enemy
    step, ``_stronger`` or ``_weaker``. A pass visits members
    ``0 .. min(N, left) - 1`` in index order, and each candidate is clamped
    to ``problem.bounds`` for ``step``. The sweep, ``sweep(F, X, draws,
    step, left)``, holds no member objects: member ``i`` is the row
    ``X[i]`` with fitness ``F[i]``. Best and worst come from an
    :class:`~battleopt.core.Extremes` over ``F`` built once per iteration
    and told of each accepted step. The draws, the points handed to
    ``step`` and their order are those of a loop that builds, clamps and
    steps one member at a time with the public operators.

    One planner takes a member's draws and picks its branch: the coin,
    then delta and the zone test or the enemy and the stronger/weaker
    test (``F[j] < F[i]``), then the draws of that branch, giving
    ``(kind, enemy or delta, drawn)``. One row builder makes the clamped
    candidate of such a plan from the current rows. A member alone is
    planned, built and stepped.

    Where 32 N // D reaches 12, runs of 12 to min(64, 32 N // D) consecutive
    members go as a window (see ``_WINDOW_COORDS``), in three steps:

    1. Plan every member with the data at the window's start, the zone
       test reading one einsum distance per row.
    2. Build the candidates as one block, a kind at a time, by the row
       builder's step functions, then one clamp.
    3. Step the members in index order. A member is stale if its enemy was
       accepted earlier in the window, or, for a movement, if best or worst
       changed (index or row). A stale member is rechecked, by the exact
       zone test or by ``F[j] < F[i]``, and rebuilt by the row builder. If
       its branch changed, its draws would too: the generator goes back to
       the state saved at the window's start, the kept members' draws are
       taken again, and the next window starts at that member. A stronger
       enemy stays stronger, since steps only ever lower a fitness, so of
       the battles only a weaker one can change branch.

    A window is no longer than the members stepped since best or worst last
    changed, so a run in which they change at every step goes one member at
    a time, with no state saved.

    For an objective the package built and knows pure (the raw and
    transformed benchmarks, the three-bar truss, a lookup table; see
    :func:`~battleopt.problems.pure_rows`) a window's block is
    evaluated in one batch call after step 2, and a member that is not
    stale is stepped with its value from it. Only such an objective sees
    the candidates of stale members and of members after a rewind, whose
    batch values are thrown away. Any other objective, a user's included,
    is called by ``step`` once per candidate, exactly one call per FE.
    """
    bounds, rows = problem.bounds, pure_rows(problem)
    # the stronger-enemy step's draw, one r per dimension, taken as draw(draws)
    uniforms = operator.methodcaller("random", bounds.dim)
    calm = 0  # members stepped since best or worst last changed

    def sweep(F, X, draws, step, left):
        nonlocal calm
        n, dim = X.shape
        cap = _window_cap(n, dim)
        ext = Extremes(F)
        random = draws.random
        epoch = 0  # changes of best or worst, index or row, in this sweep
        zone_epoch = -1
        xb = gap = None

        def zone():
            """The best's row and ||best - worst|| + eps, taken once per epoch."""
            nonlocal zone_epoch, xb, gap
            if zone_epoch != epoch:
                xb = X[ext.best]
                gap = _distance(xb, X[ext.worst]) + RADIUS_EPSILON
                zone_epoch = epoch
            return xb, gap

        def stepped(i, candidate, f=None):
            """``step``, then the bookkeeping of best, worst and ``calm``."""
            nonlocal calm, epoch
            if not step(i, candidate, f):
                calm += 1
                return False
            worst = ext.worst
            ext.replaced(i, F[i])
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
            return _distance(X[i], xb) <= radius

        def plan(i, r=math.nan, kind=None):
            """Member ``i``'s draws and branch: ``(kind, enemy or delta, drawn)``.

            ``r`` is its zone distance in a window, NaN for a member alone.
            Given ``kind``, the member's draws are taken again after a
            rewind: the same draws, with the branch as ``kind`` says.
            """
            if mv is not None and not (coin and random() >= 0.5):
                a = low + span * random()
                if kind is None:
                    kind = _INSIDE if within(i, a, r) else _OUTSIDE
            else:
                a = pick_enemy(i, n, draws)
                if kind is None:
                    kind = _STRONGER if F[a] < F[i] else _WEAKER
            return kind, a, take[kind](draws)

        def row(i, kind, a, drawn):
            """Member ``i``'s clamped candidate from the current rows and its plan."""
            x = X[i]
            if kind == _STRONGER:
                xe = X[a]
                candidate = _stronger(x, xe, xe - x, drawn)
            elif kind == _WEAKER:
                xe = X[a]
                candidate = _weaker(x, battle_dir(x, F[i], xe, F[a]), drawn)
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
                    xe = X.take(a, 0)
                    part = _stronger(x, xe, xe - x, np.array(drawn))
                elif kind == _WEAKER:
                    xe = X.take(a, 0)
                    away = [F[lo + k] < F[j] for k, j in zip(ks, a)]
                    if all(away):
                        direction = x - xe
                    else:
                        direction = np.where(np.array(away)[:, None], x - xe, xe - x)
                    part = _weaker(x, direction, np.array(drawn)[:, None])
                elif kind == _INSIDE:
                    part = mv.inside(x, xb, *np.array(drawn).T[:, :, None])
                else:
                    part = mv.outside(x, xb, np.moveaxis(np.array(drawn), 0, -2))
                parts.append(part)
                order += ks
            candidates = np.empty((len(order), dim))
            candidates[order] = clamp(np.concatenate(parts), bounds)
            return candidates

        def window(lo, hi):
            """Members ``lo .. hi - 1``; returns where the next window starts."""
            saved = draws.save()
            since = epoch
            dist = [math.nan] * (hi - lo)
            if mv is not None:
                diff = X[lo:hi] - zone()[0]
                dist = np.sqrt(np.einsum("ij,ij->i", diff, diff)).tolist()
            planned = [plan(i, r) for i, r in enumerate(dist, lo)]

            candidates = block(lo, planned)
            values = rows(candidates).tolist() if rows else [None] * len(planned)
            moved = set()
            for k, (kind, a, drawn) in enumerate(planned):
                i = lo + k
                if kind <= _WEAKER:
                    stale = a in moved
                    changed = stale and (F[a] < F[i]) != (kind == _STRONGER)
                else:
                    stale = epoch != since
                    changed = stale and within(i, a) != (kind == _INSIDE)
                if changed:  # take the kept members' draws again
                    draws.restore(saved)
                    for j, (kept, _, _) in enumerate(planned[:k], lo):
                        plan(j, kind=kept)
                    return i
                if stale:
                    accepted = stepped(i, row(i, kind, a, drawn))
                else:
                    accepted = stepped(i, candidates[k], values[k])
                if accepted:
                    moved.add(i)
            return hi

        for mv, fights in passes(X):
            coin = mv is not None and fights
            # the draw function of each kind
            take = (uniforms, _draw_cosine)
            if mv is not None:
                take += (mv.draw_inside, mv.draw_outside)
                low = float(mv.delta_low)
                span = float(mv.delta_high) - low
            m = min(n, left)
            left -= m
            i = 0
            while i < m:
                if cap < _WINDOW_MIN or calm < _WINDOW_MIN or m - i < _WINDOW_MIN:
                    stepped(i, row(i, *plan(i)))
                    i += 1
                else:
                    i = window(i, i + min(cap, calm, m - i))

    return sweep


def battle_game(problem, config: OptimizerConfig, rng, name: str, sweep) -> RunResult:
    """Run loop shared by MBGO, EMBGO and DE until the evaluation budget is exhausted.

    The loop's state is an ``(N, D)`` position array ``X`` and a list ``F``
    of its rows' fitnesses (Python floats, NaN already +inf); it builds no
    member objects. ``X`` is a uniform initial population, evaluated in one
    batch call (one budget unit per member). It then calls
    ``sweep(F, X, draws, step, left)`` once per iteration, with ``left``
    the evaluations the budget has left and ``draws`` the run's
    :class:`~battleopt.core.Draws` over ``rng``: the same stream, with
    cheaper scalar draws. ``step(i, candidate, f=None)`` costs one budget
    unit. Without ``f`` it evaluates ``candidate`` in one ``evaluate`` call
    and turns the value into a float
    (:func:`~battleopt.core.fitness_value`); a sweep passes ``f`` only for
    an objective marked pure (:func:`~battleopt.problems.pure_rows`),
    taken from a batch call over a window's block, in which the values of
    rebuilt candidates are thrown away. A user's objective is so called
    once per FE. Then, only on strict improvement over ``F[i]``, ``step``
    copies ``candidate`` into ``X[i]`` and the value into ``F[i]``; it
    returns whether it did. A sweep steps members in index order, at most
    ``left`` times. Each iteration adds a trace point, ``min(F)``, and a
    diversity point. The result's best is the row and fitness at
    :func:`~battleopt.core.best_worst`'s best index (lowest on ties). ``name``
    labels the configuration errors and selects the population minimum in
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

    X = init_population(config.pop_size, bounds, rng)
    budget = EvaluationBudget(config.budget)
    budget.take(config.pop_size)
    # a copy: no array the objective is handed is written to afterwards
    F = problem.evaluate_batch(X.copy()).tolist()

    trace = [(budget.used, min(F))]
    diversity = [(0, population_diversity(X, bounds))]

    def step(i, candidate, f=None):
        budget.take()
        if f is None:
            f = evaluate(candidate)
            if type(f) is not float or f != f:
                f = fitness_value(f, problem.name)
        if not f < F[i]:
            return False
        X[i] = candidate
        F[i] = f
        return True

    while not budget.exhausted:
        sweep(F, X, draws, step, budget.limit - budget.used)
        trace.append((budget.used, min(F)))
        diversity.append((len(diversity), population_diversity(X, bounds)))

    # perfbench/test_spans.py asserts core.best_worst calls > 0 until ROADMAP item 11
    b, _ = best_worst(F)
    return RunResult(
        best=Individual(X[b].copy(), F[b]),
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
    draws and step functions as a :class:`Movement`. ``rng`` defaults to
    ``make_rng(config.seed)`` and ``params`` to ``MbgoParams()``. The phase
    flags exist for ablation studies only; at least one must stay on.
    """
    params = resolve_params(params, MbgoParams)
    if not (movement_phase or battle_phase):
        raise ConfigurationError("mbgo needs the movement phase, the battle phase or both")
    move = Movement(
        params.delta_low,
        params.delta_high,
        _draw_sine,
        _inside,
        partial(_draw_outside, problem.bounds.dim),
        _outside,
    )
    chosen = [p for p, on in (((move, False), movement_phase), ((None, True), battle_phase)) if on]
    sweep = member_sweep(problem, lambda X: chosen)
    return battle_game(problem, config, rng, "mbgo", sweep)
