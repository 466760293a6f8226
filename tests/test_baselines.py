import math

import numpy as np
import pytest

from battleopt import (
    ConfigurationError,
    DeParams,
    OptimizerConfig,
    PsoParams,
    make_problem,
    run_de,
    run_pso,
    run_random_search,
)
from battleopt.core import Bounds, make_rng
from battleopt.problems import Problem


def test_de_params_validation():
    with pytest.raises(ConfigurationError):
        DeParams(F=-0.1)
    with pytest.raises(ConfigurationError):
        DeParams(Cr=1.5)
    with pytest.raises(ConfigurationError):
        PsoParams(v_max=0.0)


@pytest.mark.parametrize("F", [math.nan, math.inf, -math.inf])
def test_de_params_reject_a_non_finite_scale(F):
    with pytest.raises(ConfigurationError, match="F must be finite"):
        DeParams(F=F)


@pytest.mark.parametrize(
    "field, value",
    [(f, v) for f in ("w", "c1", "c2") for v in (math.nan, math.inf, -math.inf)]
    + [("v_max", v) for v in (math.nan, -math.inf, 0.0, -1.0)],
)
def test_pso_params_reject_non_finite_coefficients_and_a_bad_v_max(field, value):
    with pytest.raises(ConfigurationError, match=field):
        PsoParams(**{field: value})


def test_pso_params_take_an_infinite_v_max():
    assert PsoParams(v_max=math.inf).v_max == math.inf


def test_de_requires_four_members():
    with pytest.raises(ConfigurationError):
        run_de(make_problem("sphere", 3), OptimizerConfig(pop_size=3, budget=100))


def test_de_degenerate_parameters_keep_population():
    problem = make_problem("sphere", 4)
    config = OptimizerConfig(pop_size=6, budget=6 + 6 * 3, seed=4)
    result = run_de(problem, config, params=DeParams(F=0.0, Cr=0.0))
    # V = x_i, so even the forced dimension inherits the parent's value and
    # the population (hence the best) never moves.
    baseline = run_de(problem, OptimizerConfig(pop_size=6, budget=6, seed=4))
    assert result.final_fitness == baseline.final_fitness
    assert [f for _, f in result.trace] == [result.final_fitness] * len(result.trace)


def test_de_crossover_respects_non_crossed_dimensions():
    # Cr = 0 forces exactly one inherited mutant gene; with F > 0 only that
    # dimension may differ from the parent.
    dim = 6
    calls = []

    def spy(x):
        calls.append(np.array(x))
        return float(np.sum(x * x))

    problem = Problem(
        name="spy", dim=dim, bounds=Bounds.cube(-10.0, 10.0, dim), evaluate=spy
    )
    n = 5
    config = OptimizerConfig(pop_size=n, budget=n + n, seed=8)
    run_de(problem, config, params=DeParams(F=0.5, Cr=0.0))
    parents = calls[:n]
    trials = calls[n:]
    for i, trial in enumerate(trials):
        diff = ~np.isclose(trial, parents[i], rtol=0, atol=0)
        assert diff.sum() <= 1


def test_de_deterministic_and_beats_random(random_sphere_finals):
    problem = make_problem("sphere", 10)
    config = OptimizerConfig(pop_size=20, budget=2000, seed=3)
    assert run_de(problem, config).serialize() == run_de(problem, config).serialize()

    finals = []
    for seed in range(10):
        cfg = OptimizerConfig(pop_size=50, budget=20000, seed=seed)
        finals.append(run_de(problem, cfg).final_fitness)
    assert np.median(finals) < np.median(random_sphere_finals)


def test_pso_stagnates_from_a_single_point():
    # All members at one point with zero velocities: every update is zero.
    dim = 3
    problem = make_problem("sphere", dim)

    class PointRng:
        def __init__(self):
            self._rng = make_rng(0)

        def uniform(self, low, high, size=None):
            return np.full(size, 2.5)

        def random(self, size=None):
            return self._rng.random(size)

    config = OptimizerConfig(pop_size=5, budget=5 + 5 * 4, seed=0)
    result = run_pso(problem, config, rng=PointRng())
    assert all(f == result.trace[0][1] for _, f in result.trace)
    np.testing.assert_array_equal(result.best.position, np.full(dim, 2.5))


def test_pso_velocity_stays_clamped():
    dim = 4
    recorded = []

    def spy(x):
        recorded.append(np.array(x))
        return float(np.sum(x * x))

    problem = Problem(
        name="spy", dim=dim, bounds=Bounds.cube(-100.0, 100.0, dim), evaluate=spy
    )
    n = 8
    config = OptimizerConfig(pop_size=n, budget=n + n * 20, seed=6)
    run_pso(problem, config)
    positions = np.array(recorded)
    # Positions evaluated in iteration order; each member moves at most
    # v_max per dimension per iteration.
    for i in range(n):
        member = positions[i::n]
        steps = np.abs(np.diff(member, axis=0))
        assert steps.max() <= 2.0 + 1e-12


def test_pso_gbest_trace_monotone_and_deterministic():
    problem = make_problem("rastrigin", 5)
    config = OptimizerConfig(pop_size=10, budget=800, seed=12)
    a = run_pso(problem, config)
    b = run_pso(problem, config)
    assert a.serialize() == b.serialize()
    fits = [f for _, f in a.trace]
    assert all(y <= x for x, y in zip(fits, fits[1:]))
    assert problem.bounds.contains(a.best.position)


def test_random_search_budget_one():
    problem = make_problem("sphere", 3)
    result = run_random_search(problem, OptimizerConfig(pop_size=1, budget=1, seed=5))
    assert result.fes_used == 1
    assert result.trace == [(1, result.final_fitness)]
    assert result.final_fitness == problem.evaluate(result.best.position)


def test_random_search_trace_monotone_and_deterministic():
    problem = make_problem("ackley", 4)
    config = OptimizerConfig(pop_size=1, budget=300, seed=2)
    a = run_random_search(problem, config)
    assert a.serialize() == run_random_search(problem, config).serialize()
    fits = [f for _, f in a.trace]
    assert all(y <= x for x, y in zip(fits, fits[1:]))
    assert a.trace[-1][0] == 300
    assert a.diversity_trace == []
