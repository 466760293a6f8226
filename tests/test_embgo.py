import numpy as np
import pytest

from battleopt import (
    ConfigurationError,
    EmbgoParams,
    OptimizerConfig,
    diff_mutation,
    levy_move,
    make_problem,
    run_embgo,
)
from battleopt import mbgo
from battleopt.core import best_worst, make_rng
from battleopt.levy import levy_sample

from conftest import FixedRng, make_individual as ind


def test_diff_mutation_zero_differences():
    x = ind([2.0, -3.0])
    best = ind([2.0, -3.0])
    out = diff_mutation(x, best, np.array([2.0, -3.0]), FixedRng(uniforms=[0.1, 0.8]))
    np.testing.assert_allclose(out, [2.0, -3.0], rtol=1e-15)


def test_diff_mutation_r_half_is_identity():
    out = diff_mutation(
        ind([1.0, 1.0]),
        ind([4.0, 0.0]),
        np.array([9.0, 9.0]),
        FixedRng(uniforms=[0.5, 0.5]),
    )
    np.testing.assert_allclose(out, [1.0, 1.0], atol=1e-12)


def test_diff_mutation_only_best_term_active():
    out = diff_mutation(
        ind([0.0]), ind([4.0]), np.array([9.0]), FixedRng(uniforms=[0.25, 0.5])
    )
    np.testing.assert_allclose(out, [4.0], atol=1e-12)


def test_diff_mutation_shared_r_toggle():
    # With a shared draw both sine coefficients coincide.
    out = diff_mutation(
        ind([0.0]),
        ind([4.0]),
        np.array([10.0]),
        FixedRng(uniforms=[0.25]),
        independent_r=False,
    )
    np.testing.assert_allclose(out, [14.0], rtol=1e-12)


def test_levy_move_zero_numerator_keeps_position():
    rng = FixedRng(normals=[0.0, 0.0, 1.0, -2.0])
    out = levy_move(ind([5.0, -5.0]), 1.5, rng)
    np.testing.assert_array_equal(out, [5.0, -5.0])


def test_levy_move_deterministic():
    x = ind(np.arange(4.0))
    a = levy_move(x, 1.5, make_rng(21))
    b = levy_move(x, 1.5, make_rng(21))
    np.testing.assert_array_equal(a, b)


def test_levy_steps_reach_far_in_unbounded_box():
    # 1e5 step components at beta=1.5: the heavy tail must clear 10.
    steps = levy_sample(1.5, 100_000, make_rng(17))
    assert np.max(np.abs(steps)) > 10.0


def test_params_validation():
    with pytest.raises(ConfigurationError):
        EmbgoParams(delta_low=1.5, delta_high=1.2)
    with pytest.raises(ConfigurationError):
        EmbgoParams(beta=2.0)
    with pytest.raises(ConfigurationError, match="beta=1e-300"):
        EmbgoParams(beta=1e-300)


def test_budget_equals_pop_returns_initial_best():
    problem = make_problem("sphere", 4)
    result = run_embgo(problem, OptimizerConfig(pop_size=10, budget=10, seed=3))
    assert result.fes_used == 10 and len(result.trace) == 1


def test_run_deterministic():
    problem = make_problem("griewank", 5)
    config = OptimizerConfig(pop_size=10, budget=600, seed=5)
    assert run_embgo(problem, config).serialize() == run_embgo(problem, config).serialize()


def test_per_iteration_cost_is_n():
    n, iters = 14, 5
    problem = make_problem("sphere", 3)
    result = run_embgo(problem, OptimizerConfig(pop_size=n, budget=n + n * iters, seed=0))
    fes = [f for f, _ in result.trace]
    assert fes[0] == n
    assert all(b - a == n for a, b in zip(fes, fes[1:]))


def test_best_worst_calls_do_not_grow_with_population(monkeypatch):
    # guards against a per-candidate O(N) best/worst scan coming back
    sizes = []
    monkeypatch.setattr(
        "battleopt.mbgo.best_worst", lambda pop: sizes.append(len(pop)) or best_worst(pop)
    )
    for n in (20, 200):
        run_embgo(make_problem("sphere", 3), OptimizerConfig(pop_size=n, budget=n + n * 5))
    assert sizes
    assert sizes.count(200) <= sizes.count(20)


def test_branch_choice_is_balanced(monkeypatch):
    # the safe zone is drawn once per movement entry, the enemy once per battle
    counts = {"movement": 0, "battle": 0}

    def counting(which, fn):
        def counted(*args):
            counts[which] += 1
            return fn(*args)

        return counted

    monkeypatch.setattr(
        "battleopt.embgo.safe_zone_radius", counting("movement", mbgo.safe_zone_radius)
    )
    monkeypatch.setattr("battleopt.mbgo.pick_enemy", counting("battle", mbgo.pick_enemy))
    problem = make_problem("rastrigin", 6)
    config = OptimizerConfig(pop_size=50, budget=50 + 10_000, seed=9)
    run_embgo(problem, config)
    total = counts["movement"] + counts["battle"]
    assert total == 10_000
    assert abs(counts["movement"] / total - 0.5) <= 0.02


def test_solves_sphere_to_tight_tolerance():
    problem = make_problem("sphere", 10)
    finals = []
    for seed in range(10):
        config = OptimizerConfig(pop_size=50, budget=20000, seed=seed)
        finals.append(run_embgo(problem, config).final_fitness)
    assert np.median(finals) <= 1e-1
