"""run_pso's windowed sweep against the per-particle loop it replaced.

``reference_pso`` is that loop, kept here as the oracle: two draws, a
velocity update, a velocity clamp, a position clamp and an evaluation per
particle. ``run_pso`` must give the same ``serialize()``, leave the
caller's generator in the same state, and have its ``evaluate`` see the
same points in the same order, exactly ``budget`` of them. Under any
schedule of window widths the same holds, and a batched run's windows,
each up to its first row below the global best, hold the loop's points.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from battleopt import Bounds, OptimizerConfig, Problem, PsoParams, baselines, make_problem, run_pso
from battleopt.core import (
    EvaluationBudget,
    Individual,
    RunResult,
    check_budget,
    check_pop_size,
    clamp,
    make_rng,
)
from battleopt.stats import population_diversity

from conftest import decreasing, marked, nonfinite, plateaus, recording, sphere, spiky


def reference_pso(problem, config, rng=None, *, params=None):
    params = params or PsoParams()
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


def assert_same_run(problem, config, make_objective=None, bit_generator=np.random.PCG64,
                    params=None, batch=True):
    runs = []
    for runner in (reference_pso, run_pso):
        recorded, seen = recording(problem, make_objective, batch)
        rng = np.random.Generator(bit_generator(config.seed))
        result = runner(recorded, config, rng, params=params)
        runs.append((result.serialize(), rng.bit_generator.state, seen))
    (ref_text, ref_state, ref_seen), (text, state, seen) = runs
    assert text == ref_text
    assert repr(state) == repr(ref_state)
    assert len(seen) == len(ref_seen) == config.budget
    assert np.array(seen).tobytes() == np.array(ref_seen).tobytes()


@pytest.mark.parametrize(
    "bit_generator", [np.random.PCG64, np.random.MT19937, np.random.Philox, np.random.SFC64]
)
def test_every_bit_generator(bit_generator):
    problem = make_problem("rastrigin", 5)
    assert_same_run(problem, OptimizerConfig(pop_size=20, budget=20 * 12, seed=4),
                    bit_generator=bit_generator)


@pytest.mark.parametrize("budget", [9 + 1, 9 + 5, 9 * 3 + 8, 9 * 40 + 4])
def test_budgets_that_end_mid_sweep(budget):
    problem = make_problem("sphere", 3)
    assert_same_run(problem, OptimizerConfig(pop_size=9, budget=budget, seed=1))


def test_two_particles():
    problem = make_problem("ackley", 4)
    assert_same_run(problem, OptimizerConfig(pop_size=2, budget=301, seed=7))


@pytest.mark.parametrize("n, dim", [(2, 3), (50, 4), (300, 2)])
def test_every_particle_improves_the_global_best(n, dim):
    problem = make_problem("sphere", dim)
    assert_same_run(problem, OptimizerConfig(pop_size=n, budget=n * 4 + 3, seed=8), decreasing)


def test_ties_leave_the_bests_where_they_are():
    problem = make_problem("sphere", 2)
    assert_same_run(problem, OptimizerConfig(pop_size=25, budget=25 * 12, seed=5), plateaus)


def test_nan_and_infinite_objective_values():
    problem = make_problem("sphere", 3)
    assert_same_run(problem, OptimizerConfig(pop_size=12, budget=12 * 15, seed=9), nonfinite)


def test_a_wrapper_evaluate_without_batch():
    problem = make_problem("rosenbrock", 6)
    assert_same_run(problem, OptimizerConfig(pop_size=30, budget=30 * 10 + 7, seed=10), batch=False)


@pytest.mark.parametrize(
    "params",
    [
        PsoParams(w=0.7, c1=1.5, c2=1.5, v_max=5.0),
        PsoParams(w=0.4, c1=0.0, c2=3.0, v_max=0.01),
        PsoParams(w=1.0, v_max=math.inf),
        PsoParams(w=1.3, c1=2.5, c2=2.5, v_max=math.inf),
    ],
)
def test_non_default_params(params):
    problem = Problem("box", 4, Bounds.cube(-3.0, 3.0, 4), sphere())
    assert_same_run(problem, OptimizerConfig(pop_size=16, budget=16 * 20 + 5, seed=11),
                    params=params)


def test_a_long_run_past_the_widest_window():
    # 500 particles: windows reach their cap between improvements.
    problem = make_problem("sphere", 2)
    assert_same_run(problem, OptimizerConfig(pop_size=500, budget=500 * 5, seed=12))


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 40),
    dim=st.integers(1, 6),
    sweeps=st.integers(0, 6),
    extra=st.integers(0, 39),
    seed=st.integers(0, 2**32 - 1),
    w=st.sampled_from([0.0, 0.5, 1.0, 1.2]),
    v_max=st.sampled_from([0.05, 2.0, math.inf]),
    objective=st.sampled_from([sphere, decreasing, plateaus, nonfinite]),
)
def test_random_configurations(n, dim, sweeps, extra, seed, w, v_max, objective):
    problem = make_problem("sphere", dim)
    config = OptimizerConfig(pop_size=n, budget=n * (1 + sweeps) + extra % n, seed=seed)
    assert_same_run(problem, config, objective, params=PsoParams(w=w, v_max=v_max))


def kept_rows(batches, objective):
    """A batched run's FE points: the initial population, then each batch's
    rows up to the first whose value is below the global best."""
    def values(X):
        f = np.array([objective(x) for x in X], dtype=float)
        f[np.isnan(f)] = np.inf
        return f

    kept, best = list(batches[0]), values(batches[0]).min()
    for X in batches[1:]:
        f = values(X)
        wins = np.flatnonzero(f < best)
        stop = int(wins[0]) + 1 if len(wins) else len(X)
        kept.extend(X[:stop])
        best = min(best, f[stop - 1])
    return kept


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    n=st.integers(4, 40),
    dim=st.integers(1, 6),
    sweeps=st.integers(0, 6),
    extra=st.integers(0, 39),
    seed=st.integers(0, 2**32 - 1),
    objective=st.sampled_from([sphere, plateaus, spiky]),
)
def test_any_schedule_of_window_widths(data, n, dim, sweeps, extra, seed, objective):
    # widths from 1 to N in place of _next_width's, repeated: lengths the rule
    # never picks (below _WINDOW_MIN, odd, past the sweep's end) included
    schedule = data.draw(st.lists(st.integers(1, n), min_size=1, max_size=6))
    problem = make_problem("sphere", dim)
    config = OptimizerConfig(pop_size=n, budget=n * (1 + sweeps) + extra % n, seed=seed)
    recorded, ref_seen = recording(problem, objective)
    rng = np.random.default_rng(seed)
    ref = (reference_pso(recorded, config, rng).serialize(), repr(rng.bit_generator.state))
    for pure in (False, True):
        with pytest.MonkeyPatch.context() as patch:
            widths = itertools.cycle(schedule)
            patch.setattr(baselines, "_next_width", lambda width, cap, early: next(widths))
            if pure:
                run, batches = marked(problem, objective)
            else:
                run, seen = recording(problem, objective)
            rng = np.random.default_rng(seed)
            assert (run_pso(run, config, rng).serialize(), repr(rng.bit_generator.state)) == ref
        if pure:
            seen = kept_rows(batches, objective())
        assert np.array(seen).tobytes() == np.array(ref_seen).tobytes()
