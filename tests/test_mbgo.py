import functools
import inspect
import math

import numpy as np
import pytest

from battleopt import (
    Bounds,
    ConfigurationError,
    DeParams,
    EmbgoParams,
    MbgoParams,
    OptimizerConfig,
    Problem,
    PsoParams,
    battle,
    battle_dir,
    battle_vs_stronger,
    battle_vs_weaker,
    in_safe_zone,
    make_problem,
    move_inside,
    move_outside,
    run_de,
    run_embgo,
    run_mbgo,
    run_pso,
    safe_zone_radius,
)
from battleopt.core import best_worst, make_rng
from battleopt.mbgo import RADIUS_EPSILON, pick_enemy

from conftest import FixedRng, RecordingRng, row


# --- safe zone ------------------------------------------------------------


def test_radius_with_identical_best_and_worst():
    rng = FixedRng(uniforms=[0.5])  # delta = 1.0
    assert safe_zone_radius(row([1.0, 2.0]), row([1.0, 2.0]), rng) == RADIUS_EPSILON


def test_radius_three_four_five():
    rng = FixedRng(uniforms=[0.5])
    radius = safe_zone_radius(row([0.0, 0.0]), row([3.0, 4.0]), rng)
    assert radius == pytest.approx(5.0 + RADIUS_EPSILON, rel=1e-15)


def test_radius_amplification_support():
    rng = make_rng(5)
    best, worst = row([0.0, 0.0]), row([3.0, 4.0])
    gap = 5.0 + RADIUS_EPSILON
    ratios = [safe_zone_radius(best, worst, rng) / gap for _ in range(10_000)]
    assert min(ratios) >= 0.8 and max(ratios) <= 1.2


def test_zone_membership_boundary_inclusive():
    center = np.zeros(2)
    assert in_safe_zone(row([0.0, 0.0]), center, 5.0)
    assert in_safe_zone(row([3.0, 4.0]), center, 5.0)  # distance exactly 5
    assert not in_safe_zone(row([0.0, 6.0]), center, 5.0)


# --- movement operators ----------------------------------------------------


def test_move_inside_fixed_r():
    x_i, x_best = row([1.0, 1.0]), row([2.0, -2.0])
    np.testing.assert_allclose(
        move_inside(x_i, x_best, FixedRng(uniforms=[0.5])), [1.0, 1.0], atol=1e-12
    )
    np.testing.assert_allclose(
        move_inside(x_i, x_best, FixedRng(uniforms=[0.25])), [3.0, -1.0], rtol=1e-12
    )
    np.testing.assert_allclose(
        move_inside(x_i, x_best, FixedRng(uniforms=[0.75])), [-1.0, 3.0], rtol=1e-12
    )


def test_move_outside_branches():
    x_i, x_best = row([0.0, 10.0]), row([4.0, 20.0])
    # dim 0 takes the jitter branch (r=0.2), dim 1 the convex step (r=0.75)
    rng = FixedRng(uniforms=[0.2, 0.75], normals=[1.5, -9.9])
    out = move_outside(x_i, x_best, rng)
    np.testing.assert_allclose(out, [1.5, 10.0 + 10.0 * 0.75], rtol=1e-12)


def test_move_outside_convex_step_limits():
    x_i, x_best = row([0.0]), row([8.0])
    r = 0.999999
    out = move_outside(x_i, x_best, FixedRng(uniforms=[r], normals=[0.0]))
    np.testing.assert_allclose(out, [8.0 * r], rtol=1e-12)
    # coincident best: both branches keep the position when theta is zero
    out = move_outside(row([3.0]), row([3.0]), FixedRng(uniforms=[0.9], normals=[0.0]))
    np.testing.assert_allclose(out, [3.0], rtol=1e-15)


def test_move_outside_branch_frequency():
    rng = RecordingRng(make_rng(11))
    x_i, x_best = np.zeros(5), np.ones(5)
    for _ in range(4000):
        move_outside(x_i, x_best, rng)
    draws = np.array(rng.uniform_draws)
    assert abs(np.mean(draws < 0.5) - 0.5) <= 0.02


# --- battle operators -------------------------------------------------------


def test_battle_dir_cases():
    np.testing.assert_array_equal(battle_dir(row([5.0]), 1.0, row([3.0]), 2.0), [2.0])
    np.testing.assert_array_equal(battle_dir(row([5.0]), 2.0, row([3.0]), 1.0), [-2.0])
    np.testing.assert_array_equal(battle_dir(row([5.0]), 1.0, row([3.0]), 1.0), [-2.0])


def test_battle_vs_stronger_zero_dir_and_coincident():
    x_i, x_e = row([1.0, 2.0]), row([4.0, 6.0])
    out = battle_vs_stronger(x_i, x_e, np.zeros(2), FixedRng(uniforms=[0.1, 0.9]))
    np.testing.assert_array_equal(out, [1.0, 6.0])

    same = row([2.0, 2.0])
    out = battle_vs_stronger(same, row([2.0, 2.0]), np.zeros(2), FixedRng(uniforms=[0.3, 0.7]))
    np.testing.assert_array_equal(out, [2.0, 2.0])


def test_battle_vs_stronger_uses_r_as_scale():
    x_i, x_e = row([0.0]), row([10.0])
    direction = np.array([4.0])
    out = battle_vs_stronger(x_i, x_e, direction, FixedRng(uniforms=[0.25]))
    np.testing.assert_allclose(out, [1.0], rtol=1e-15)  # self branch: 0 + 4*0.25
    out = battle_vs_stronger(x_i, x_e, direction, FixedRng(uniforms=[0.75]))
    np.testing.assert_allclose(out, [13.0], rtol=1e-15)  # enemy branch: 10 + 4*0.75


def test_battle_vs_weaker_fixed_r():
    x_i = row([1.0, 1.0])
    direction = np.array([2.0, -2.0])
    np.testing.assert_allclose(
        battle_vs_weaker(x_i, direction, FixedRng(uniforms=[0.25])), [1.0, 1.0], atol=1e-12
    )
    np.testing.assert_allclose(
        battle_vs_weaker(x_i, direction, FixedRng(uniforms=[0.0])), [3.0, -1.0], rtol=1e-12
    )
    np.testing.assert_allclose(
        battle_vs_weaker(x_i, direction, FixedRng(uniforms=[0.5])), [-1.0, 3.0], rtol=1e-12
    )


@pytest.mark.parametrize(
    "F, uniforms, expected",
    [
        ([1.0, 2.0], [0.0], [7.0]),  # weaker enemy: 5 + (5 - 3) cos(0)
        ([2.0, 1.0], [0.25], [4.5]),  # stronger enemy: self branch, 5 + (3 - 5) 0.25
        ([1.0, 1.0], [0.0], [3.0]),  # a tie battles as weaker: 5 + (3 - 5) cos(0)
    ],
)
def test_battle_reads_rows_and_fitnesses(F, uniforms, expected):
    X = np.array([[5.0], [3.0]])
    out = battle(X, F, 0, FixedRng(uniforms=uniforms, integers=[0]))
    np.testing.assert_allclose(out, expected, rtol=1e-15)


def test_pick_enemy_never_self_and_forced_with_two():
    rng = make_rng(3)
    for i in range(4):
        for _ in range(200):
            assert pick_enemy(i, 4, rng) != i
    assert all(pick_enemy(0, 2, rng) == 1 for _ in range(50))
    assert all(pick_enemy(1, 2, rng) == 0 for _ in range(50))


# --- full runs ---------------------------------------------------------------


def test_budget_equals_pop_returns_initial_best():
    problem = make_problem("sphere", 4)
    config = OptimizerConfig(pop_size=10, budget=10, seed=2)
    result = run_mbgo(problem, config)
    assert result.fes_used == 10
    assert len(result.trace) == 1
    assert result.trace[0][0] == 10


def test_run_deterministic():
    problem = make_problem("rastrigin", 5)
    config = OptimizerConfig(pop_size=10, budget=500, seed=7)
    assert run_mbgo(problem, config).serialize() == run_mbgo(problem, config).serialize()


def test_run_rejects_budget_below_pop():
    with pytest.raises(ConfigurationError):
        run_mbgo(make_problem("sphere", 3), OptimizerConfig(pop_size=10, budget=9))


def test_per_iteration_cost_is_two_n():
    n, iters = 12, 4
    problem = make_problem("sphere", 3)
    config = OptimizerConfig(pop_size=n, budget=n + 2 * n * iters, seed=0)
    result = run_mbgo(problem, config)
    fes = [f for f, _ in result.trace]
    assert fes[0] == n
    assert all(b - a == 2 * n for a, b in zip(fes, fes[1:]))


def test_best_worst_calls_do_not_grow_with_population(monkeypatch):
    # guards against a per-candidate O(N) best/worst scan coming back
    sizes = []
    monkeypatch.setattr(
        "battleopt.mbgo.best_worst", lambda pop: sizes.append(len(pop)) or best_worst(pop)
    )
    for n in (20, 200):
        run_mbgo(make_problem("sphere", 3), OptimizerConfig(pop_size=n, budget=n + 2 * n * 5))
    assert sizes
    assert sizes.count(200) <= sizes.count(20)


def test_beats_random_search_on_sphere(random_sphere_finals):
    problem = make_problem("sphere", 10)
    finals = []
    for seed in range(10):
        config = OptimizerConfig(pop_size=50, budget=20000, seed=seed)
        finals.append(run_mbgo(problem, config).final_fitness)
    assert np.median(finals) < np.median(random_sphere_finals)


def test_single_phase_ablation_flags():
    # movement-only and battle-only variants keep the run contract; each
    # full iteration then costs N evaluations instead of 2N
    problem = make_problem("sphere", 4)
    n = 8
    config = OptimizerConfig(pop_size=n, budget=n + n * 3, seed=6)
    for flags in ({"battle_phase": False}, {"movement_phase": False}):
        result = run_mbgo(problem, config, **flags)
        fes = [f for f, _ in result.trace]
        assert all(b - a == n for a, b in zip(fes, fes[1:]))
        fits = [f for _, f in result.trace]
        assert all(b <= a for a, b in zip(fits, fits[1:]))


def test_both_phases_off_is_rejected():
    # with no pass left an iteration takes no evaluations and the run never ends
    config = OptimizerConfig(pop_size=4, budget=20, seed=0)
    with pytest.raises(ConfigurationError, match="phase"):
        run_mbgo(make_problem("sphere", 2), config, movement_phase=False, battle_phase=False)


def test_trace_monotone_and_final_in_bounds():
    problem = make_problem("ackley", 6)
    config = OptimizerConfig(pop_size=8, budget=600, seed=1)
    result = run_mbgo(problem, config)
    fits = [f for _, f in result.trace]
    assert all(b <= a for a, b in zip(fits, fits[1:]))
    assert problem.bounds.contains(result.best.position)


CLAMPED_RUNNERS = {
    "mbgo": run_mbgo,
    "mbgo-movement-only": functools.partial(run_mbgo, battle_phase=False),
    "mbgo-battle-only": functools.partial(run_mbgo, movement_phase=False),
    "embgo": run_embgo,
    "de": run_de,
    "pso": run_pso,
}


@pytest.mark.parametrize("name", sorted(CLAMPED_RUNNERS))
def test_every_evaluated_point_is_clamped_into_the_box(name):
    # In a small box the raw proposals overshoot; the run loop (PSO's own
    # for PSO) clamps each one, so every evaluated point lies in the box
    # and some lie on a face.
    seen = []

    def evaluate(x):
        seen.append(np.array(x))
        return float(np.dot(x - 0.9, x - 0.9))

    problem = Problem("offset-sphere", 3, Bounds.cube(-1.0, 1.0, 3), evaluate)
    CLAMPED_RUNNERS[name](problem, OptimizerConfig(pop_size=8, budget=400, seed=2))
    points = np.array(seen)
    assert points.shape == (400, 3)
    assert np.all((points >= -1.0) & (points <= 1.0))
    assert np.any(np.abs(points) == 1.0)


# Each optimizer called in an argument order it used to take.
STALE_CALLS = {
    run_mbgo: lambda p, c, rng: run_mbgo(p, c, rng, delta_low=0.5, delta_high=1.5),
    run_embgo: lambda p, c, rng: run_embgo(p, c, rng, EmbgoParams()),
    run_de: lambda p, c, rng: run_de(p, c, DeParams()),
    run_pso: lambda p, c, rng: run_pso(p, c, PsoParams(), rng),
}


@pytest.mark.parametrize("runner", list(STALE_CALLS), ids=lambda runner: runner.__name__)
def test_optimizers_share_one_signature_and_stale_calls_fail_before_evaluating(runner):
    parameters = list(inspect.signature(runner).parameters.values())
    assert [p.name for p in parameters[:3]] == ["problem", "config", "rng"]
    assert all(p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD for p in parameters[:3])
    assert parameters[2].default is None
    params = inspect.signature(runner).parameters["params"]
    assert params.kind is inspect.Parameter.KEYWORD_ONLY
    assert params.default is None

    calls = []

    def evaluate(x):
        calls.append(x)
        return float(np.dot(x, x))

    problem = Problem("counted", 2, Bounds.cube(-1.0, 1.0, 2), evaluate)
    with pytest.raises(TypeError):
        STALE_CALLS[runner](problem, OptimizerConfig(pop_size=6, budget=30, seed=0), make_rng(0))
    assert calls == []


# Each runner with its own params dataclass; a subclass of it is accepted.
OWN_PARAMS = {run_mbgo: MbgoParams, run_embgo: EmbgoParams, run_de: DeParams, run_pso: PsoParams}
FOREIGN_PARAMS = [
    (runner, foreign)
    for runner, own in OWN_PARAMS.items()
    for foreign in OWN_PARAMS.values()
    if not issubclass(foreign, own)
]


@pytest.mark.parametrize(
    ("runner", "foreign"),
    FOREIGN_PARAMS,
    ids=[f"{runner.__name__}-{foreign.__name__}" for runner, foreign in FOREIGN_PARAMS],
)
def test_another_algorithms_params_fail_before_anything_is_drawn_or_evaluated(runner, foreign):
    calls = []

    def evaluate(x):
        calls.append(x)
        return float(np.dot(x, x))

    problem = Problem("counted", 2, Bounds.cube(-1.0, 1.0, 2), evaluate)
    rng = make_rng(0)
    state = rng.bit_generator.state
    message = f"params must be a {OWN_PARAMS[runner].__name__}, got {foreign.__name__}"
    with pytest.raises(TypeError, match=message):
        runner(problem, OptimizerConfig(pop_size=6, budget=30, seed=0), rng, params=foreign())
    assert len(calls) == 0
    assert rng.bit_generator.state == state


def test_foreign_params_cover_every_pair_and_a_subclass_passes():
    assert len(FOREIGN_PARAMS) == 11
    problem = make_problem("sphere", 2)
    config = OptimizerConfig(pop_size=6, budget=60, seed=3)
    # EmbgoParams extends MbgoParams: run_mbgo reads only the MBGO fields.
    assert (
        run_mbgo(problem, config, params=EmbgoParams(0.7, 1.3)).serialize()
        == run_mbgo(problem, config, params=MbgoParams(0.7, 1.3)).serialize()
    )
    with pytest.raises(TypeError, match="params must be a DeParams, got dict"):
        run_de(problem, config, params={"F": 0.5})


@pytest.mark.parametrize(
    "delta_low, delta_high",
    [(1.2, 0.8), (1.0, 1.0), (-1.0, 1.2), (0.0, 1.2), (0.8, math.inf), (math.nan, 1.2)],
)
def test_bad_deltas_are_rejected_before_the_run(delta_low, delta_high):
    with pytest.raises(ConfigurationError, match="delta_low < delta_high"):
        MbgoParams(delta_low, delta_high)
    with pytest.raises(ConfigurationError, match="delta_low < delta_high"):
        run_mbgo(make_problem("sphere", 2), OptimizerConfig(4, 20, 0),
                 params=MbgoParams(delta_low=delta_low, delta_high=delta_high))


def test_run_mbgo_defaults_are_the_mbgo_params_defaults():
    defaults = MbgoParams()
    safe_zone = inspect.signature(safe_zone_radius).parameters
    assert safe_zone["delta_low"].default == defaults.delta_low
    assert safe_zone["delta_high"].default == defaults.delta_high
