"""run_de's windowed sweep against the per-member trial it replaced.

``reference_de`` is that trial on a loop of its own, kept here as the
oracle: per member, ``rng.choice(n - 1, 3, replace=False)``,
``rng.integers(dim)`` and ``rng.random(dim)`` straight from the
Generator, then the mutant, the crossover, the clamp, one evaluation and
greedy replacement. ``run_de`` must give the same ``serialize()``, leave
the caller's generator in the same state, and have its ``evaluate`` see
the same points in the same order, exactly ``budget`` of them.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from battleopt import Bounds, DeParams, OptimizerConfig, Problem, make_problem, resolve_problem, run_de
from battleopt import baselines, core
from battleopt.core import (
    EvaluationBudget,
    Individual,
    RunResult,
    best_worst,
    check_budget,
    check_pop_size,
    clamp,
    init_population,
    make_rng,
)
from battleopt.discrete import synthetic_table, table_problem
from battleopt.stats import population_diversity

from conftest import RecordingRng, decreasing, nonfinite, plateaus, recording, sphere


def reference_de(problem, config, rng=None, *, params=None):
    params = params or DeParams()
    check_pop_size("de", config.pop_size)
    check_budget("de", config.pop_size, config.budget)
    if rng is None:
        rng = make_rng(config.seed)
    bounds = problem.bounds
    n, dim = config.pop_size, bounds.dim

    pop = init_population(n, bounds, rng)
    budget = EvaluationBudget(config.budget)
    budget.take(n)
    fits = problem.evaluate_batch(np.array([ind.position for ind in pop]))
    for ind, f in zip(pop, fits.tolist()):
        ind.fitness = f
    trace = [(budget.used, min(ind.fitness for ind in pop))]
    diversity = [(0, population_diversity(np.array([ind.position for ind in pop]), bounds))]
    iteration = 0

    while not budget.exhausted:
        iteration += 1
        for i in range(n):
            if budget.exhausted:
                break
            x = pop[i].position
            a, b, c = rng.choice(n - 1, 3, replace=False).tolist()
            x1, x2, x3 = (pop[j + (j >= i)].position for j in (a, b, c))
            mutant = x + params.F * (x1 - x) + params.F * (x2 - x3)
            forced = int(rng.integers(dim))
            cross = rng.random(dim) < params.Cr
            cross[forced] = True
            candidate = clamp(np.where(cross, mutant, x), bounds)
            budget.take()
            f = float(problem.evaluate(candidate))
            if math.isnan(f):
                f = math.inf
            if f < pop[i].fitness:
                pop[i] = Individual(candidate, f)
        trace.append((budget.used, min(ind.fitness for ind in pop)))
        positions = np.array([ind.position for ind in pop])
        diversity.append((iteration, population_diversity(positions, bounds)))

    best, _ = best_worst(pop)
    return RunResult(
        best=best.copy(),
        trace=trace,
        diversity_trace=diversity,
        seed=config.seed,
        fes_used=budget.used,
    )


def load_spans():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans_for_de_sweep", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def generator(bit_generator, seed):
    return np.random.Generator(bit_generator(seed))


def proxy(bit_generator, seed):
    spans = load_spans()
    return spans.RngProxy(generator(bit_generator, seed), spans.Tracer())


def recorder(bit_generator, seed):
    return RecordingRng(generator(bit_generator, seed))


def assert_same_run(problem, config, make_objective=None, bit_generator=np.random.PCG64,
                    params=None, batch=True, wrap=generator):
    runs = []
    for runner in (reference_de, run_de):
        recorded, seen = recording(problem, make_objective, batch)
        rng = wrap(bit_generator, config.seed)
        result = runner(recorded, config, rng, params=params)
        runs.append((result.serialize(), rng.bit_generator.state, seen))
    (ref_text, ref_state, ref_seen), (text, state, seen) = runs
    assert text == ref_text
    assert repr(state) == repr(ref_state)
    assert len(seen) == len(ref_seen) == config.budget
    assert np.array(seen).tobytes() == np.array(ref_seen).tobytes()


@pytest.fixture
def decodes(monkeypatch):
    """``(rounds, size, retried)`` of each bulk decode, ``retried`` when it
    handed its rounds back to be drawn again."""
    calls = []
    decode = core._decode_sweep

    def counted(bit_generator, start, m, n, high, size):
        drawn = decode(bit_generator, start, m, n, high, size)
        calls.append((m, size, drawn is None))
        return drawn

    monkeypatch.setattr(core, "_decode_sweep", counted)
    return calls


def test_a_sweep_with_a_lemire_retry(decodes):
    # Seed 289's first sweep at N=3200 holds a draw that numpy retries. Its
    # 3,207 rounds (that sweep and the 7-row one after it) are decoded in
    # one call, which finds the retry; the whole chunk is then drawn again
    # one member at a time.
    problem = make_problem("sphere", 2)
    assert_same_run(problem, OptimizerConfig(pop_size=3200, budget=3200 + 3200 + 7, seed=289))
    assert decodes == [(3207, 2, True)]


def assert_decodes_under_the_cap(decodes, config):
    # No call decodes more than the cap unless it holds one sweep, and the
    # rounds decoded are the budget's: one per FE after the initial population.
    n = config.pop_size
    assert all(m * size <= baselines._DE_DRAWS_CAP or m <= n for m, size, _ in decodes)
    assert sum(m for m, _, retried in decodes if not retried) == config.budget - n


# rastrigin:sr at D=300, N=50: a sweep is 15,000 doubles, so a call decodes
# 4 sweeps (200 rounds) under the cap.
@pytest.mark.parametrize("budget", [
    50 + 200,            # one whole chunk
    50 + 200 + 1,        # one round into the second chunk
    50 + 200 + 120,      # mid-chunk and mid-sweep
    50 + 2 * 200 + 100,  # mid-chunk, at a sweep's end
    50 + 3 * 200 + 49,   # one round short of a sweep
])
def test_budgets_that_end_mid_chunk(decodes, budget):
    problem = resolve_problem("rastrigin:sr", 300)
    config = OptimizerConfig(pop_size=50, budget=budget, seed=12)
    assert_same_run(problem, config)
    assert_decodes_under_the_cap(decodes, config)
    assert {m for m, _, _ in decodes} <= {200, (budget - 50) % 200}


def test_a_sweep_over_the_cap_is_one_call(decodes):
    # D=30, N=2200: one sweep holds 66,000 doubles
    problem = make_problem("sphere", 30)
    config = OptimizerConfig(pop_size=2200, budget=2200 * 2 + 300, seed=13)
    assert_same_run(problem, config)
    assert_decodes_under_the_cap(decodes, config)
    assert [m for m, _, _ in decodes] == [2200, 300]


def test_a_lookup_table_run_is_one_decode(decodes):
    # arnas' shape: D=6, N=50, 5,000 FEs; all 4,950 rounds fit under the cap
    problem = table_problem(synthetic_table(3))
    config = OptimizerConfig(pop_size=50, budget=5000, seed=14)
    assert_same_run(problem, config)
    assert decodes == [(4950, 6, False)]


@pytest.mark.parametrize(
    "bit_generator",
    [np.random.PCG64, np.random.PCG64DXSM, np.random.SFC64, np.random.Philox, np.random.MT19937],
)
def test_every_bit_generator(bit_generator):
    problem = make_problem("rastrigin", 5)
    assert_same_run(problem, OptimizerConfig(pop_size=20, budget=20 * 12 + 3, seed=4),
                    bit_generator=bit_generator)


def test_four_members():
    # distinct(3): Floyd's first bound is 1 and takes no draw
    problem = make_problem("ackley", 3)
    assert_same_run(problem, OptimizerConfig(pop_size=4, budget=4 * 60 + 1, seed=7))


@pytest.mark.parametrize("n", [4, 5, 33])
def test_one_dimension(n):
    # integers(1) takes no draw, so a member's 32-bit draws are odd in
    # number and the buffered half alternates from member to member
    problem = make_problem("sphere", 1)
    assert_same_run(problem, OptimizerConfig(pop_size=n, budget=n * 30 + 2, seed=3))


@pytest.mark.parametrize("budget", [9 + 1, 9 + 5, 9 * 3 + 8, 9 * 40 + 4])
def test_budgets_that_end_mid_sweep(budget):
    problem = make_problem("sphere", 3)
    assert_same_run(problem, OptimizerConfig(pop_size=9, budget=budget, seed=1))


@pytest.mark.parametrize("n, dim", [(4, 3), (40, 4), (300, 2), (100, 30)])
def test_every_trial_is_kept(n, dim):
    # each acceptance makes the window stale for every later row that
    # takes it as a peer
    problem = make_problem("sphere", dim)
    assert_same_run(problem, OptimizerConfig(pop_size=n, budget=n * 4 + 3, seed=8), decreasing)


def test_ties_keep_the_parent():
    problem = make_problem("sphere", 2)
    assert_same_run(problem, OptimizerConfig(pop_size=25, budget=25 * 12, seed=5), plateaus)


def test_nan_and_infinite_objective_values():
    problem = make_problem("sphere", 3)
    assert_same_run(problem, OptimizerConfig(pop_size=12, budget=12 * 15, seed=9), nonfinite)


def test_a_wrapper_evaluate_without_batch():
    problem = make_problem("rosenbrock", 6)
    assert_same_run(problem, OptimizerConfig(pop_size=30, budget=30 * 10 + 7, seed=10), batch=False)


@pytest.mark.parametrize("wrap", [proxy, recorder])
def test_a_wrapper_rng(wrap):
    problem = resolve_problem("rastrigin:sr3", 5)
    assert_same_run(problem, OptimizerConfig(pop_size=15, budget=15 * 8 + 4, seed=6), wrap=wrap)


@pytest.mark.parametrize(
    "params",
    [DeParams(F=0.5, Cr=0.3), DeParams(F=0.0, Cr=0.0), DeParams(F=2.0, Cr=1.0), DeParams(F=0.9, Cr=0.0)],
)
def test_non_default_params(params):
    problem = Problem("box", 4, Bounds.cube(-3.0, 3.0, 4), sphere())
    assert_same_run(problem, OptimizerConfig(pop_size=16, budget=16 * 20 + 5, seed=11),
                    params=params)


def test_a_population_of_many_windows():
    problem = make_problem("sphere", 10)
    assert_same_run(problem, OptimizerConfig(pop_size=3200, budget=3200 * 2 + 1000, seed=2))


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(4, 40),
    dim=st.integers(1, 6),
    sweeps=st.integers(0, 6),
    extra=st.integers(0, 39),
    seed=st.integers(0, 2**32 - 1),
    F=st.sampled_from([0.0, 0.5, 0.8, 1.5]),
    Cr=st.sampled_from([0.0, 0.3, 0.9, 1.0]),
    objective=st.sampled_from([sphere, decreasing, plateaus, nonfinite]),
    bit_generator=st.sampled_from([np.random.PCG64, np.random.Philox, np.random.MT19937]),
)
def test_random_configurations(n, dim, sweeps, extra, seed, F, Cr, objective, bit_generator):
    problem = make_problem("sphere", dim)
    config = OptimizerConfig(pop_size=n, budget=n * (1 + sweeps) + extra % n, seed=seed)
    assert_same_run(problem, config, objective, bit_generator, params=DeParams(F=F, Cr=Cr))
