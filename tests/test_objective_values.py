"""One rule for an objective's values, on every optimizer's evaluation path.

Every optimizer stores ``float(value)``, with NaN as +inf. So an
objective that returns a numpy scalar, an int or a 0-d array gives the
``serialize()`` of one that returns the same value as a Python float, and
a NaN is never the best. A value ``float()`` refuses, or an array with
more than zero dimensions, is a ``TypeError`` naming the problem; an
exception the objective raises passes through unchanged.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from battleopt import (
    Bounds,
    OptimizerConfig,
    Problem,
    run_de,
    run_embgo,
    run_mbgo,
    run_pso,
    run_random_search,
)
from battleopt.core import fitness_value

RUNS = {
    "embgo": run_embgo,
    "mbgo": run_mbgo,
    "de": run_de,
    "pso": run_pso,
    "random": run_random_search,
}
CONFIG = OptimizerConfig(pop_size=6, budget=6 * 8 + 3, seed=1)
DIM = 3

# What the objective returns, built from the float sum of squares.
RETURNS = {
    "np.float64": np.float64,
    "np.float32": np.float32,
    "int": lambda v: int(1000 * v),
    "0-d array": np.array,
    "bool": lambda v: v > 10.0,
}


def problem(objective, name="spy"):
    return Problem(name, DIM, Bounds.cube(-5.0, 5.0, DIM), objective)


def run(name, objective, config=CONFIG):
    return RUNS[name](problem(objective), config)


def typed(wrap):
    return lambda x: wrap(float(np.dot(x, x)))


@pytest.mark.parametrize("name", sorted(RUNS))
@pytest.mark.parametrize("kind", sorted(RETURNS))
def test_a_returned_type_serializes_as_its_float(name, kind):
    objective = typed(RETURNS[kind])
    text = run(name, objective).serialize()
    assert text == run(name, lambda x: float(objective(x))).serialize()
    assert "np." not in text and "array" not in text


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(RUNS)),
    kind=st.sampled_from(sorted(RETURNS)),
    n=st.integers(4, 9),
    extra=st.integers(0, 30),
    seed=st.integers(0, 2**32 - 1),
)
def test_any_returned_type_gives_the_float_run(name, kind, n, extra, seed):
    config = OptimizerConfig(pop_size=n, budget=n * 3 + extra, seed=seed)
    objective = typed(RETURNS[kind])
    expected = run(name, lambda x: float(objective(x)), config).serialize()
    assert run(name, objective, config).serialize() == expected


def every_other_nan(wrap=float):
    calls = iter(range(10**9))

    def f(x):
        return wrap(math.nan) if next(calls) % 2 else wrap(float(np.dot(x, x)))

    return f


@pytest.mark.parametrize("name", sorted(RUNS))
@pytest.mark.parametrize("wrap", [float, np.float64, np.array], ids=["float", "np.float64", "0-d"])
def test_a_nan_is_never_the_best(name, wrap):
    result = run(name, every_other_nan(wrap))
    fits = [f for _, f in result.trace] + [result.final_fitness]
    assert not any(math.isnan(f) for f in fits)
    assert math.isfinite(result.final_fitness)
    assert result.final_fitness == float(np.dot(result.best.position, result.best.position))


@pytest.mark.parametrize("name", sorted(RUNS))
def test_an_objective_that_is_always_nan_reports_inf(name):
    result = run(name, lambda x: math.nan)
    assert result.final_fitness == math.inf
    assert all(f == math.inf for _, f in result.trace)


def later(bad, after=CONFIG.pop_size):
    """Sphere for the first ``after`` calls, then ``bad``."""
    calls = iter(range(10**9))
    return lambda x: float(np.dot(x, x)) if next(calls) < after else bad


BAD = {
    "str": "0.5x",
    "None": None,
    "complex": 1j,
    "1-d array": np.array([0.5]),
    "2-d array": np.zeros((1, 1)),
    "list": [0.5],
}


@pytest.mark.parametrize("name", sorted(RUNS))
@pytest.mark.parametrize("kind", sorted(BAD))
@pytest.mark.parametrize("after", [0, CONFIG.pop_size], ids=["first", "per-FE"])
def test_a_value_that_is_not_one_real_number_is_a_type_error(name, kind, after):
    with pytest.raises(TypeError, match="problem 'spy'"):
        run(name, later(BAD[kind], after))


class Boom(Exception):
    pass


@pytest.mark.parametrize("name", sorted(RUNS))
@pytest.mark.parametrize("after", [0, CONFIG.pop_size], ids=["first", "per-FE"])
def test_an_exception_from_the_objective_propagates_unchanged(name, after):
    boom = Boom("objective failed")
    calls = iter(range(10**9))

    def objective(x):
        if next(calls) >= after:
            raise boom
        return 1.0

    with pytest.raises(Boom) as caught:
        run(name, objective)
    assert caught.value is boom


def test_fitness_value_keeps_a_float_and_maps_nan_to_inf():
    assert fitness_value(0.25, "p") == 0.25
    assert fitness_value(-math.inf, "p") == -math.inf
    assert fitness_value(np.float32(math.nan), "p") == math.inf
    assert type(fitness_value(np.float64(2.0), "p")) is float
    with pytest.raises(TypeError, match="problem 'p': .*ndarray"):
        fitness_value(np.array([1.0, 2.0]), "p")
