import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from battleopt import (
    Bounds,
    ConfigurationError,
    Extremes,
    Individual,
    OptimizerConfig,
    best_worst,
    clamp,
    greedy_replace,
    init_population,
    make_rng,
    trial_rng,
)


def test_bounds_reject_degenerate_interval():
    with pytest.raises(ValueError):
        Bounds(np.array([0.0, 0.0]), np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        Bounds(np.array([1.0]), np.array([0.0]))


def test_bounds_reject_mismatched_lengths():
    with pytest.raises(ValueError):
        Bounds(np.zeros(2), np.ones(3))


@pytest.mark.parametrize(
    "make",
    [
        lambda: Bounds.cube(-math.inf, math.inf, 2),
        lambda: Bounds.cube(0.0, math.inf, 1),
        lambda: Bounds([-math.inf, 0.0], [0.0, 1.0]),
        lambda: Bounds([-1e308, 0.0], [1e308, 1.0]),  # finite edges, width overflows
        lambda: Bounds.cube(0.0, 1.0, 0),
        lambda: Bounds([], []),
    ],
    ids=["infinite-cube", "infinite-upper", "infinite-lower", "width-overflows", "zero-dim-cube",
         "empty"],
)
def test_bounds_reject_a_box_no_population_can_be_drawn_in(make):
    with pytest.raises(ValueError):
        make()


def test_the_widest_accepted_box_can_be_sampled():
    box = Bounds([-8e307, 0.0], [8e307, 1.0])
    X = init_population(3, box, make_rng(0))
    assert all(box.contains(x) for x in X)


def test_clamp_projects_outside_components():
    box = Bounds.cube(-100.0, 100.0, 2)
    np.testing.assert_array_equal(
        clamp(np.array([150.0, -150.0]), box), [100.0, -100.0]
    )


def test_clamp_keeps_inside_and_boundary_points():
    box = Bounds.cube(-100.0, 100.0, 2)
    np.testing.assert_array_equal(clamp(np.array([0.0, 50.0]), box), [0.0, 50.0])
    np.testing.assert_array_equal(
        clamp(np.array([-100.0, 100.0]), box), [-100.0, 100.0]
    )


def test_clamp_dimension_mismatch():
    with pytest.raises(ValueError):
        clamp(np.zeros(3), Bounds.cube(0.0, 1.0, 2))


def test_init_population_uniform_support():
    box = Bounds.cube(-100.0, 100.0, 3)
    X = init_population(5, box, make_rng(1))
    assert X.shape == (5, 3)
    for x in X:
        assert box.contains(x)


def test_init_population_rejects_small_n():
    with pytest.raises(ConfigurationError):
        init_population(1, Bounds.cube(0.0, 1.0, 2), make_rng(0))


def test_init_population_deterministic():
    box = Bounds.cube(-5.0, 5.0, 4)
    a = init_population(6, box, make_rng(42))
    b = init_population(6, box, make_rng(42))
    np.testing.assert_array_equal(a, b)


def test_init_population_is_one_uniform_draw():
    box = Bounds([-5.0, 0.0], [5.0, 1.0])
    rng, reference = make_rng(3), make_rng(3)
    X = init_population(4, box, rng)
    expected = reference.uniform(box.lower, box.upper, size=(4, 2))
    assert X.tobytes() == expected.tobytes()
    assert rng.bit_generator.state == reference.bit_generator.state


def test_greedy_replace_strict_improvement_only():
    parent = Individual(np.zeros(1), 5.0)
    better = Individual(np.ones(1), 3.0)
    equal = Individual(np.ones(1), 5.0)
    worse = Individual(np.ones(1), 7.0)
    assert greedy_replace(parent, better) is better
    assert greedy_replace(parent, equal) is parent
    assert greedy_replace(parent, worse) is parent


def test_best_worst_and_tie_break():
    assert best_worst([3.0, 1.0, 2.0]) == (1, 0)
    assert best_worst([1.0, 1.0, 1.0]) == (0, 0)
    assert best_worst([2.0, 9.0]) == (0, 1)
    assert all(type(k) is int for k in best_worst(np.array([2.0, 9.0])))


def test_best_worst_requires_evaluation():
    with pytest.raises(ValueError):
        best_worst([1.0, math.nan])


# Ties, signed zeros and the truss penalty's +inf all occur in real runs.
_FITNESS = st.sampled_from([-3.5, -1.0, -0.0, 0.0, 1.0, 2.0, 2.0, 1e300, math.inf])


@given(
    initial=st.lists(_FITNESS, min_size=2, max_size=8),
    offers=st.lists(st.tuples(st.integers(0, 7), _FITNESS), max_size=40),
)
def test_extremes_tracks_best_worst_under_greedy_replacement(initial, offers):
    fits = list(initial)
    ext = Extremes(fits)
    for i, f in offers:
        i %= len(fits)
        if f < fits[i]:  # greedy replacement
            fits[i] = f
            ext.replaced(i, f)
        assert (ext.best, ext.worst) == best_worst(fits)


@given(
    fits=st.lists(_FITNESS | st.just(-math.inf), min_size=1, max_size=12),
    nan_at=st.none() | st.integers(0, 11),
)
def test_best_worst_is_the_lowest_index_rule_that_extremes_starts_from(fits, nan_at):
    if nan_at is not None:
        fits[nan_at % len(fits)] = math.nan
        with pytest.raises(ValueError, match="unevaluated"):
            best_worst(fits)
        with pytest.raises(ValueError, match="unevaluated"):
            Extremes(fits)
        return
    ext = Extremes(fits)
    assert best_worst(fits) == (ext.best, ext.worst)
    # the first minimum and the first maximum, as min() and max() over the indices find them
    indices = range(len(fits))
    assert best_worst(fits) == (min(indices, key=fits.__getitem__), max(indices, key=fits.__getitem__))


def test_extremes_requires_evaluation():
    with pytest.raises(ValueError, match="unevaluated"):
        Extremes([1.0, math.nan])


def test_rng_streams_are_reproducible():
    assert make_rng(7).random(8).tolist() == make_rng(7).random(8).tolist()
    assert trial_rng(10, 3).random() == make_rng(13).random()


def test_optimizer_config_validation():
    with pytest.raises(ConfigurationError):
        OptimizerConfig(pop_size=0, budget=10)
    with pytest.raises(ConfigurationError):
        OptimizerConfig(pop_size=5, budget=0)
