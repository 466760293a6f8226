"""The shared run loop: one ``sweep`` per iteration over one position array.

``battle_game`` keeps every position in one ``(N, D)`` array ``X`` and
their fitnesses in one list ``F``, and calls
``sweep(F, X, draws, step, left)`` once per iteration. These tests wrap
each optimizer's sweep and check that ``F`` holds the objective's value
at each row of ``X`` around every call, including the last one, which
the budget cuts short; that no array the objective is handed
is written to afterwards, although the rows of ``X`` are (PSO's and
random search's own loops included); that DE,
which reads no best or worst, keeps no :class:`~battleopt.core.Extremes`;
and that a run in which every step ties returns the first row of its
initial draw.
"""

import numpy as np
import pytest

from battleopt import (
    Bounds,
    OptimizerConfig,
    Problem,
    make_problem,
    run_de,
    run_embgo,
    run_mbgo,
    run_pso,
    run_random_search,
)
from battleopt import baselines, embgo, mbgo
from battleopt.core import Extremes, init_population, make_rng

N = 6

# name -> (runner, evaluations per full iteration)
RUNS = {
    "mbgo": (run_mbgo, 2 * N),
    "mbgo-movement": (lambda p, c: run_mbgo(p, c, battle_phase=False), N),
    "mbgo-battle": (lambda p, c: run_mbgo(p, c, movement_phase=False), N),
    "embgo": (run_embgo, N),
    "de": (run_de, N),
}


def assert_fitnesses_of_rows(problem, F, X):
    assert type(F) is list and X.shape == (len(F), problem.bounds.dim)
    for x, f in zip(X, F):
        assert type(f) is float and f == problem.evaluate(x.copy())


@pytest.fixture
def sweeps(monkeypatch):
    """The ``left`` of every sweep call; ``F`` and ``X`` are checked around each."""
    lefts = []
    loop = mbgo.battle_game

    def checked_loop(problem, config, rng, name, sweep):
        def checked(F, X, draws, step, left):
            lefts.append(left)
            assert_fitnesses_of_rows(problem, F, X)
            sweep(F, X, draws, step, left)
            assert_fitnesses_of_rows(problem, F, X)

        return loop(problem, config, rng, name, checked)

    for module in (mbgo, embgo, baselines):
        monkeypatch.setattr(module, "battle_game", checked_loop)
    return lefts


# (name, evaluations of a last iteration the budget cuts short; 0: none)
CUTS = [(name, cut) for name, (_, per) in sorted(RUNS.items())
        for cut in sorted({0, 1, per - 1, (N + 1) % per})]


@pytest.mark.parametrize("name, cut", CUTS)
def test_fitnesses_match_the_rows_of_x_around_every_sweep(name, cut, sweeps):
    runner, per_iteration = RUNS[name]
    budget = N + 3 * per_iteration + cut
    result = runner(make_problem("rastrigin", 3), OptimizerConfig(pop_size=N, budget=budget, seed=2))
    assert result.fes_used == budget
    # one sweep per iteration, each handed what the budget has left
    assert sweeps == [budget - N - k * per_iteration for k in range(3 + (cut > 0))]


# PSO and random search run their own loops, but are held to the same rule
KEEPERS = {"mbgo": run_mbgo, "embgo": run_embgo, "de": run_de, "pso": run_pso,
           "random": run_random_search}


@pytest.mark.parametrize("name", sorted(KEEPERS))
@pytest.mark.parametrize("batch", [True, False])
def test_no_evaluated_array_is_written_afterwards(name, batch):
    handed, copies = [], []

    def evaluate(x):
        handed.append(x)
        copies.append(np.array(x))
        return float(x @ x)

    if batch:
        evaluate.batch = lambda X: np.array([evaluate(x) for x in X])
    problem = Problem("kept", 3, Bounds.cube(-5.0, 5.0, 3), evaluate)
    KEEPERS[name](problem, OptimizerConfig(pop_size=N, budget=N + 4 * N, seed=1))
    assert len(handed) == N + 4 * N
    assert all(np.array_equal(x, c) for x, c in zip(handed, copies))


def test_de_keeps_no_best_or_worst(monkeypatch):
    calls = []
    for method in ("__init__", "replaced"):
        original = getattr(Extremes, method)

        def counted(self, *args, _method=method, _original=original):
            calls.append(_method)
            return _original(self, *args)

        monkeypatch.setattr(Extremes, method, counted)
    problem = make_problem("sphere", 4)
    run_de(problem, OptimizerConfig(pop_size=10, budget=10 + 10 * 8 + 3, seed=1))
    assert calls == []
    # the same counters see MBGO's selection
    run_mbgo(problem, OptimizerConfig(pop_size=10, budget=10 + 20 * 8, seed=1))
    assert calls.count("__init__") == 8 and "replaced" in calls


@pytest.mark.parametrize("pop", [8, 200])
@pytest.mark.parametrize("runner", [run_mbgo, run_embgo, run_de], ids=lambda r: r.__name__)
def test_a_constant_objective_returns_row_zero_of_the_initial_draw(runner, pop):
    # every candidate ties with its parent, so no step is kept and the
    # lowest-index rule picks row 0; at N=200 MBGO and EMBGO run windows
    problem = Problem("constant", 3, Bounds.cube(-1.0, 1.0, 3), lambda x: 2.5)
    result = runner(problem, OptimizerConfig(pop_size=pop, budget=3 * pop, seed=4))
    first = init_population(pop, problem.bounds, make_rng(4))[0]
    assert result.best.position.tobytes() == first.tobytes()
    assert result.best.fitness == 2.5
    assert [f for _, f in result.trace] == [2.5] * len(result.trace)
