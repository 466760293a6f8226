"""Reference optimizers for the comparison protocol.

Differential evolution with the cur-to-rand/1 scheme, global-best PSO
with a hard velocity clamp, and uniform random search as the sanity
floor. All three honor the shared run contract: seeded stream, hard
evaluation budget, non-increasing best-so-far trace. DE runs one
:func:`~battleopt.mbgo.battle_game` sweep per iteration over the loop's
position array; PSO keeps its own loop, since its global best moves only
on strict improvement, its diversity is over positions, not personal
bests, and it returns the global best. PSO takes a sweep's draws at
once, DE those of several sweeps in one call (see :func:`run_de`), and
both compute their candidates for windows of rows as arrays. A PSO
window is exact until one of its particles improves the global best (see
:func:`run_pso`); a DE row is recomputed when one of its peers was
replaced after its window was computed (see :func:`run_de`). DE
evaluates a window's rows in one ``Problem.evaluate_batch`` call when
the package built the objective and knows it pure
(:func:`~battleopt.problems.pure_rows`: the raw and transformed
benchmarks, the three-bar truss, a lookup table); PSO
does so only once the global best has held for twice the window's
particles. Only such an objective sees the rows DE recomputes and the
PSO rows after a global-best improvement, whose batch values are thrown
away. Any other objective, a user's included, is called once per
function evaluation.
Initial populations and random search's samples go through
``Problem.evaluate_batch``.
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
    fitness_value,
    init_population,
    make_rng,
    resolve_params,
)
from .mbgo import battle_game
from .problems import pure_rows
from .stats import population_diversity

# Not called here (DE runs on battleopt.mbgo's loop), but kept as module
# attributes: perfbench/spans.py rebinds them by name.
from .core import best_worst, greedy_replace  # noqa: F401

__all__ = ["RANDOM_SEARCH_CHUNK", "DeParams", "PsoParams", "run_de", "run_pso", "run_random_search"]

# Samples random search draws and evaluates per chunk. The stream does
# not depend on it: one (m, D) uniform draw equals m single draws.
RANDOM_SEARCH_CHUNK = 256

# The most particles PSO moves in one window of a sweep (see run_pso).
_PSO_WINDOW = 64

# The rows DE computes trials for at once (see run_de). Timed against 32
# with several sweeps decoded per call, 9 alternating pairs per shape, as
# ratios of median run time (table D=6 N=50 / rastrigin:sr D=300 N=50 /
# sphere D=10 N=3200 / compare's three problems at N=50, 500 FEs):
# 8: 1.61 / 1.04 / 1.63 / 0.88; 16: 1.09 / 1.02 / 1.21 / 0.89;
# 64: 1.02 / 0.96 / 0.96 / 1.21. No size wins on all four, so 32 stays.
_DE_WINDOW = 32

# The most doubles DE draws in one Draws.sweep call, unless a single
# sweep holds more: 4 sweeps at D=300, N=50, and a whole 5,000-FE run at
# D=6, N=50 (see run_de).
_DE_DRAWS_CAP = 1 << 16


@dataclass(frozen=True)
class DeParams:
    """DE/cur-to-rand/1 with binomial crossover: F finite and >= 0, Cr in [0, 1]."""

    F: float = 0.8
    Cr: float = 0.9

    def __post_init__(self):
        if not 0.0 <= self.F < math.inf:
            raise ConfigurationError("scaling factor F must be finite and non-negative")
        if not 0.0 <= self.Cr <= 1.0:
            raise ConfigurationError("crossover rate Cr must lie in [0, 1]")


@dataclass(frozen=True)
class PsoParams:
    """Global-best PSO; velocities are clamped to [-v_max, v_max].

    ``w``, ``c1`` and ``c2`` are finite; ``v_max`` lies in (0, inf], and
    inf leaves velocities unclamped.
    """

    w: float = 1.0
    c1: float = 2.05
    c2: float = 2.05
    v_max: float = 2.0

    def __post_init__(self):
        for name in ("w", "c1", "c2"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigurationError(f"{name} must be finite")
        if not 0.0 < self.v_max <= math.inf:
            raise ConfigurationError("v_max must lie in (0, inf]")


def run_de(
    problem,
    config: OptimizerConfig,
    rng: np.random.Generator = None,
    *,
    params: DeParams = None,
) -> RunResult:
    """DE/cur-to-rand/1: V = x_i + F (x_r1 - x_i) + F (x_r2 - x_r3).

    r1, r2, r3 are distinct and differ from i. Binomial crossover keeps
    each mutant gene with probability Cr plus one forced dimension, so the
    trial equals the parent in every non-crossed dimension. Each iteration
    is one :func:`~battleopt.mbgo.battle_game` sweep over its rows and
    fitness list, ``sweep(fit, X, draws, step, left)`` (``F`` is the scale
    factor), so greedy replacement, budget, trace and diversity are the
    battle-game optimizers'; DE reads no best or worst, so it keeps none.
    ``rng`` defaults to ``make_rng(config.seed)`` and ``params`` to ``DeParams()``.

    A member's draws depend on no position or fitness, and each FE takes
    one round of them: ``rng.choice(n - 1, 3, replace=False)``,
    ``rng.integers(dim)`` and ``rng.random(dim)``. So the rounds of
    several sweeps are drawn in one :meth:`~battleopt.core.Draws.sweep`
    call, with the values and final generator state of those rounds: as
    many whole sweeps as fit under ``_DE_DRAWS_CAP`` doubles (one sweep
    when a single one holds more), and never past the budget, since
    ``left`` FEs are the rounds the rest of the run takes. Each sweep
    takes its slice, m rounds, m being the members the budget lets
    through. A draw numpy would retry anywhere in the chunk makes the
    whole chunk be drawn round by round. An objective that raises leaves
    the generator after the drawn chunk, not after the current sweep.
    Trials are then computed for a window of rows at once from the
    loop's position array ``X``, by the same elementwise expressions as
    for one member (mutant, crossover mask, forced gene, clamp), and
    stepped in index order. A row whose peers include a row accepted
    since the window was computed is recomputed from the current ``X``
    and evaluated alone, so every FE is at the point of a per-member
    loop, in its order, and the run's bits are its. For an objective the
    package marks pure
    (:func:`~battleopt.problems.pure_rows`) the window's rows are
    evaluated first in one ``evaluate_batch`` call, bit-identical to one
    call per row; a recomputed row's batch value is thrown away. Any other
    objective is called once per FE, at those points in that order. PSO
    batches a window only once its global best has held (see
    :func:`run_pso`).
    """
    params = resolve_params(params, DeParams)
    F, Cr = params.F, params.Cr
    bounds, dim = problem.bounds, problem.bounds.dim
    rows = pure_rows(problem)

    ahead = []  # the drawn (picks, forced, r) of the sweeps to come, last first

    def sweep(fit, X, draws, step, left):
        n = len(fit)
        if not ahead:
            # whole sweeps under the cap, never past the budget: a sweep
            # takes one round of draws per FE, and left FEs remain
            rounds = min(left, n * max(1, _DE_DRAWS_CAP // (n * dim)))
            drawn = draws.sweep(rounds, n - 1, dim, dim)
            ahead.extend(tuple(a[k:k + n] for a in drawn) for k in reversed(range(0, rounds, n)))
        picks, forced, r = ahead.pop()
        m = len(forced)
        members = np.arange(m)
        # distinct(n - 1) draws over the other members: skip i itself
        peers = picks + (picks >= members[:, None])
        cross = r < Cr
        cross[members, forced] = True

        def trials(lo, hi):
            x = X[lo:hi]
            x1, x2, x3 = (X[p] for p in peers[lo:hi].T)
            mutant = x + F * (x1 - x) + F * (x2 - x3)
            return clamp(np.where(cross[lo:hi], mutant, x), bounds)

        for lo in range(0, m, _DE_WINDOW):
            hi = min(lo + _DE_WINDOW, m)
            window = trials(lo, hi)
            values = rows(window).tolist() if rows else [None] * (hi - lo)
            moved = set()
            for i, row_peers in enumerate(peers[lo:hi].tolist(), lo):
                if moved and not moved.isdisjoint(row_peers):
                    accepted = step(i, trials(i, i + 1)[0])
                else:
                    accepted = step(i, window[i - lo], values[i - lo])
                if accepted:
                    moved.add(i)

    return battle_game(problem, config, rng, "de", sweep)


def run_pso(
    problem,
    config: OptimizerConfig,
    rng: np.random.Generator = None,
    *,
    params: PsoParams = None,
) -> RunResult:
    """Global-best PSO with zero initial velocities.

    Members accept every move; monotonicity lives in the personal and
    global bests, and the trace reports the global best. ``rng`` defaults
    to ``make_rng(config.seed)`` and ``params`` to ``PsoParams()``.

    A sweep draws every r1 and r2 in one ``rng.random((m, 2, dim))`` call,
    m being the particles the budget lets move; that is the stream, values
    and final state, of m pairs of ``rng.random(dim)`` calls. Particles
    then move in windows: velocity, velocity clamp and position clamp are
    computed for a window at once with the current global best, by the
    same elementwise expressions as for one particle, and the window's
    rows are evaluated one at a time in index order. A particle's update
    reads only its own row and the global best, so the rows stay exact
    until one strictly improves the global best; the window is committed
    up to that particle and the next one opens just after it. A window is
    one particle after an improvement and doubles while the best holds,
    up to ``_PSO_WINDOW``, so a sweep in which every particle improves
    costs about what a per-particle loop does. ``evaluate`` sees the same
    points in the same order as that loop, and the run's bits are its.

    For an objective the package marks pure
    (:func:`~battleopt.problems.pure_rows`) a window is evaluated in one
    batch call instead once the particles stepped since the global best
    last improved number at least twice the window's. Its rows are
    committed with array operations up to the first one below the global
    best, which also beats its own personal best; the values of the rows
    after it are thrown away, and those rows are moved again in the next
    window. Any other objective is called once per FE.
    """
    params = resolve_params(params, PsoParams)
    check_pop_size("pso", config.pop_size)
    check_budget("pso", config.pop_size, config.budget)
    if rng is None:
        rng = make_rng(config.seed)
    bounds = problem.bounds
    evaluate, rows = problem.evaluate, pure_rows(problem)
    n, dim = config.pop_size, bounds.dim
    w, c1, c2, v_max = params.w, params.c1, params.c2, params.v_max

    positions = init_population(n, bounds, rng)
    velocities = np.zeros((n, dim))
    budget = EvaluationBudget(config.budget)
    budget.take(n)
    pbest = positions.copy()
    # a copy: the objective may keep the rows it is handed, and positions moves
    pbest_fit = problem.evaluate_batch(positions.copy())
    g = int(np.argmin(pbest_fit))
    gbest = pbest[g].copy()
    gbest_fit = float(pbest_fit[g])

    trace = [(budget.used, gbest_fit)]
    diversity = [(0, population_diversity(positions, bounds))]
    iteration = 0
    # held: the particles stepped since the global best last improved
    width, held = 1, 0

    while not budget.exhausted:
        iteration += 1
        m = min(n, budget.limit - budget.used)
        budget.take(m)
        # r[i] holds particle i's r1 and r2: the doubles, in the order,
        # of m pairs of rng.random(dim) calls.
        r = rng.random((m, 2, dim))
        start = 0
        while start < m:
            # Particles start:stop move with the current global best; rows
            # after one that improves it are recomputed in the next window.
            stop = min(start + width, m)
            x = positions[start:stop]
            v = (
                w * velocities[start:stop]
                + c1 * r[start:stop, 0] * (pbest[start:stop] - x)
                + c2 * r[start:stop, 1] * (gbest - x)
            )
            # np.clip(v, -v_max, v_max, out=v) without its Python wrapper
            np.minimum(np.maximum(v, -v_max, out=v), v_max, out=v)
            x = clamp(x + v, bounds)
            # Batch a window only once the best has held for twice its
            # particles. At once (factor 1) perfbench's rotated-d300 PSO
            # ran 5-8 % slower per FE on thrown-away rows; at four times,
            # pop-scaling and arnas-table fell to 0.47x and 0.57x of the
            # per-particle loop's µs/FE, against 0.44x and 0.53x at two.
            if rows is not None and held >= 2 * (stop - start):
                f = rows(x)
                wins = np.flatnonzero(f < gbest_fit)
                improved = len(wins) > 0
                if improved:
                    # pbest_fit[i] >= gbest_fit: the row beats its own best too
                    stop = start + int(wins[0]) + 1
                    f = f[: stop - start]
                better = f < pbest_fit[start:stop]
                pbest_fit[start:stop][better] = f[better]
                pbest[start:stop][better] = x[: stop - start][better]
                if improved:
                    gbest_fit = float(f[-1])
                    gbest = x[stop - start - 1].copy()
            else:
                improved = False
                for i, xi in enumerate(x, start):
                    f = evaluate(xi)
                    if type(f) is not float or f != f:
                        f = fitness_value(f, problem.name)
                    if f < pbest_fit[i]:
                        pbest_fit[i] = f
                        pbest[i] = xi
                        if f < gbest_fit:
                            gbest_fit = float(f)
                            gbest = xi.copy()
                            improved = True
                            break
                stop = i + 1
            if improved:
                width, held = 1, 0
            else:
                width = min(2 * width, _PSO_WINDOW)
                held += stop - start
            velocities[start:stop] = v[: stop - start]
            positions[start:stop] = x[: stop - start]
            start = stop
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
    diversity trace is empty. ``rng`` defaults to ``make_rng(config.seed)``.
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
