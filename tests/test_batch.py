"""Batch evaluation: bit-identity with per-row evaluation, the fallback for a
replaced ``evaluate``, and the NaN -> +inf policy at the batch boundary."""

import dataclasses
import functools
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import battleopt as bo
from battleopt import (
    BENCHMARK_NAMES,
    ConfigurationError,
    LookupTable,
    OptimizerConfig,
    TableError,
    resolve_problem,
    synthetic_table,
    table_problem,
)
from battleopt.baselines import RANDOM_SEARCH_CHUNK
from battleopt.core import EvaluationBudget

RUNNERS = {
    "mbgo": bo.run_mbgo,
    "embgo": bo.run_embgo,
    "de": bo.run_de,
    "pso": bo.run_pso,
    "random": bo.run_random_search,
}


def per_row(problem, X) -> np.ndarray:
    values = np.array([problem.evaluate(x) for x in X], dtype=float).reshape(len(X))
    values[np.isnan(values)] = np.inf
    return values


def assert_same_bits(batch, rows):
    assert batch.shape == rows.shape and batch.dtype == np.float64
    np.testing.assert_array_equal(batch.view(np.int64), rows.view(np.int64))


@functools.lru_cache(maxsize=None)
def benchmark(spec: str, dim: int):
    try:
        return resolve_problem(spec, dim)
    except ConfigurationError:  # schwefel's optimum cannot be rotated into the box at high D
        return None


@settings(max_examples=150, deadline=None)
@given(
    name=st.sampled_from(BENCHMARK_NAMES),
    rotated=st.booleans(),
    # odd dims and row counts reach the tails of the BLAS matrix-vector kernel
    dim=st.sampled_from([1, 2, 3, 5, 10, 33, 129, 300]),
    rows=st.sampled_from([0, 1, 2, 7, 17, 64]),
    scale=st.sampled_from([1e-3, 1.0, 100.0, 1e4]),
    seed=st.integers(0, 2**32 - 1),
    specials=st.lists(
        st.sampled_from([0.0, -0.0, 1.0, -100.0, 100.0, 42.096874635998205, math.nan]), max_size=4
    ),
)
def test_benchmark_batch_is_bit_identical(name, rotated, dim, rows, scale, seed, specials):
    problem = benchmark(f"{name}:sr" if rotated else name, dim)
    assume(problem is not None)
    rng = np.random.default_rng(seed)
    X = rng.uniform(-scale, scale, (rows, dim))
    for value in specials:
        if rows:
            X[rng.integers(rows), rng.integers(dim)] = value
    # A np.float64 per vector would change the repr in every serialize().
    assert all(type(problem.evaluate(x)) is float for x in X)
    assert_same_bits(problem.evaluate_batch(X), per_row(problem, X))


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_benchmark_batch_is_bit_identical_on_many_rows(name):
    # Differences in the last bit are rare (a few rows in a thousand for
    # numpy's exp against math.exp), so every benchmark gets many rows.
    rng = np.random.default_rng(2056)
    for spec in (name, f"{name}:sr"):
        for dim in (2, 10):
            problem = benchmark(spec, dim)
            X = rng.uniform(problem.bounds.lower, problem.bounds.upper, (1000, dim))
            assert_same_bits(problem.evaluate_batch(X), per_row(problem, X))


def test_benchmarks_the_truss_and_the_table_carry_a_batch_form():
    problems = [resolve_problem(spec, 3) for name in BENCHMARK_NAMES
                for spec in (name, f"{name}:sr")]
    for problem in problems:  # a benchmark, rotated or not, is its own row-wise form
        assert problem.evaluate.batch is problem.evaluate, problem.name
    problems += [resolve_problem("three-bar-truss", 2), table_problem(synthetic_table(1))]
    for problem in problems:
        assert callable(getattr(problem.evaluate, "batch", None)), problem.name


# The truss's row-wise form evaluates its one formula on columns.
TRUSS_ROWS = st.lists(
    st.one_of(
        st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
        st.tuples(st.just(0.0), st.floats(0.0, 1.0)),  # x1 = 0: singular
        st.tuples(st.floats(0.0, 0.05), st.floats(0.0, 0.05)),  # infeasible
        st.tuples(st.floats(), st.floats()),  # off the box: NaN, ±inf, overflow
    ),
    max_size=12,
)


@settings(max_examples=150, deadline=None)
@given(rows=TRUSS_ROWS)
def test_truss_batch_is_bit_identical(rows):
    problem = resolve_problem("three-bar-truss", 2)
    X = np.array(rows, dtype=float).reshape(len(rows), 2)
    assert_same_bits(problem.evaluate_batch(X), per_row(problem, X))


def test_truss_singular_and_infeasible_rows():
    problem = resolve_problem("three-bar-truss", 2)
    X = np.array([[0.0, 0.5], [0.0, 0.0], [0.01, 0.01], [1.0, 1.0]])
    got = problem.evaluate_batch(X)
    assert got[0] == got[1] == math.inf
    assert got[2] > 1e6  # penalized
    assert got[3] == (2.0 * math.sqrt(2.0) + 1.0) * 100.0  # feasible: the volume alone
    assert_same_bits(got, per_row(problem, X))


def test_truss_batch_with_other_than_two_columns_raises_as_a_row_does():
    problem = resolve_problem("three-bar-truss", 2)
    for shape in ((3, 3), (1, 1)):
        with pytest.raises(ValueError, match="three_bar_truss expects a 2-vector"):
            problem.evaluate_batch(np.full(shape, 0.5))
    for shape in ((0, 2), (0, 3)):  # no row, no call
        got = problem.evaluate_batch(np.zeros(shape))
        assert got.shape == (0,) and got.dtype == np.float64


@pytest.mark.parametrize("weight", [0.0, -1.0])
def test_truss_batch_without_a_positive_weight_raises_when_it_evaluates(weight):
    problem = bo.three_bar_truss_problem(penalty_weight=weight)  # builds
    with pytest.raises(ValueError, match="penalty weight must be positive"):
        problem.evaluate_batch(np.array([[0.0, 0.5], [0.5, 0.5]]))
    # singular rows never reach the penalty, so they stay +inf
    assert problem.evaluate_batch(np.array([[0.0, 0.5], [0.0, 0.0]])).tolist() == [math.inf] * 2
    assert problem.evaluate_batch(np.zeros((0, 2))).shape == (0,)


# The :sr batch's bits rest on numpy running, per row of its stacked
# matmul, the BLAS matrix-vector kernel that one vector's ``M @ v`` runs.
# OpenBLAS reads these settings when it loads, so each runs in a child
# interpreter of its own, one at a time.
KERNEL_CHILD = """
import numpy as np
from battleopt import resolve_problem
differ = []
for dim in (1, 5, 10, 33, 129, 300):
    problem = resolve_problem("rastrigin:sr", dim)
    for rows in (1, 7, 64):
        X = np.random.default_rng(dim + rows).uniform(-100.0, 100.0, (rows, dim))
        single = np.array([problem.evaluate(x) for x in X])
        if problem.evaluate_batch(X).tobytes() != single.tobytes():
            differ.append([dim, rows])
print(differ)
"""
X86_64 = platform.machine().lower() in ("x86_64", "amd64")


def _has_avx2() -> bool:
    try:
        return "avx2" in Path("/proc/cpuinfo").read_text().split()
    except OSError:
        return False


@pytest.mark.parametrize("setting", [
    {"OPENBLAS_NUM_THREADS": "1"},
    pytest.param({"OPENBLAS_CORETYPE": "Haswell"}, marks=pytest.mark.skipif(
        not (X86_64 and _has_avx2()), reason="the Haswell kernel needs x86-64 with AVX2")),
])
def test_rotated_batch_matches_single_rows_under_another_blas_kernel(setting):
    src = str(Path(bo.__file__).resolve().parent.parent)
    env = {**os.environ, **setting}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    child = subprocess.run([sys.executable, "-c", KERNEL_CHILD], capture_output=True,
                           text=True, env=env, timeout=120)
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "[]"


BAND_EDGES = [-100.0, -60.0, -20.0, 0.0, 20.0, 60.0, 100.0,
              math.nextafter(-60.0, 0.0), math.nextafter(20.0, 0.0)]
TABLE_ROWS = st.lists(
    st.lists(st.one_of(st.sampled_from(BAND_EDGES), st.floats(-100.0, 100.0)),
             min_size=6, max_size=6),
    max_size=10,
)


SYNTHETIC = synthetic_table(5)
SYNTHETIC_PROBLEM = table_problem(SYNTHETIC)


@settings(max_examples=100, deadline=None)
@given(rows=TABLE_ROWS)
def test_table_batch_is_bit_identical(rows):
    X = np.array(rows, dtype=float).reshape(len(rows), 6)
    got = SYNTHETIC_PROBLEM.evaluate_batch(X)
    assert_same_bits(got, per_row(SYNTHETIC_PROBLEM, X))
    expected = [bo.lookup_fitness(SYNTHETIC, bo.decode(x)) for x in X]
    assert got.tolist() == expected


def test_table_partial_with_default_and_missing_without():
    present = (0, 1, 2, 3, 4, 0)
    partial = table_problem(LookupTable(entries={present: 70.0}, default=12.5))
    # -60 is band 1 and 20 band 3: the threshold belongs to the upper band.
    X = np.array([[-99.0, -60.0, 0.0, 20.0, 60.0, -61.0], [0.0] * 6])
    assert partial.evaluate_batch(X).tolist() == [-70.0, -12.5]
    assert_same_bits(partial.evaluate_batch(X), per_row(partial, X))

    strict = table_problem(LookupTable(entries={present: 70.0}))
    assert strict.evaluate_batch(X[:1]).tolist() == [-70.0]
    with pytest.raises(TableError, match="222222"):
        strict.evaluate(X[1])
    with pytest.raises(TableError, match="222222"):
        strict.evaluate_batch(X)


def test_table_partial_with_an_integer_default_keeps_float_entries():
    problem = table_problem(LookupTable(entries={(0,) * 6: 70.5}, default=10))
    X = np.array([[-99.0] * 6, [0.0] * 6])
    got = problem.evaluate_batch(X)
    assert got.dtype == np.float64
    assert got.tolist() == [-70.5, -10.0]
    assert [problem.evaluate(x) for x in X] == [-70.5, -10.0]


def test_table_problem_returns_python_floats_for_integer_accuracies():
    problem = table_problem(LookupTable(entries={(0,) * 6: 50}, default=10))
    assert repr(problem.evaluate(np.full(6, -99.0))) == "-50.0"
    # an integer default of 0 is negated as a float, to -0.0
    zero = table_problem(LookupTable(entries={}, default=0))
    assert repr(zero.evaluate(np.zeros(6))) == "-0.0"
    assert repr(zero.evaluate_batch(np.zeros((1, 6)))[0]) == "np.float64(-0.0)"


def test_replaced_evaluate_drops_the_batch_form_and_sees_every_row():
    problem = resolve_problem("rastrigin:sr", 4)
    seen = []

    def recorder(x):
        seen.append(np.array(x))
        return problem.evaluate(x)

    replaced = dataclasses.replace(problem, evaluate=recorder)
    X = np.random.default_rng(3).uniform(-100, 100, (5, 4))
    assert_same_bits(replaced.evaluate_batch(X), problem.evaluate_batch(X))
    np.testing.assert_array_equal(np.array(seen), X)


def test_batch_maps_nan_to_inf():
    values = iter([1.0, math.nan, -2.0])
    problem = bo.Problem("nan", 1, bo.Bounds.cube(0.0, 1.0, 1), lambda x: next(values))
    assert problem.evaluate_batch(np.zeros((3, 1))).tolist() == [1.0, math.inf, -2.0]


@pytest.mark.parametrize("name", sorted(RUNNERS))
def test_replaced_evaluate_sees_every_evaluation(name):
    problem = resolve_problem("sphere", 3)
    seen = []

    def recorder(x):
        seen.append(np.array(x))
        return problem.evaluate(x)

    budget = 2 * RANDOM_SEARCH_CHUNK + 11
    config = OptimizerConfig(pop_size=9, budget=budget, seed=4)
    wrapped = RUNNERS[name](dataclasses.replace(problem, evaluate=recorder), config)
    plain = RUNNERS[name](problem, config)
    assert len(seen) == wrapped.fes_used == budget
    assert wrapped.serialize() == plain.serialize()


def _values_on_calls(problem, values):
    """``problem`` returning ``values[k]`` instead at its k-th evaluation (from 1)."""
    count = [0]

    def evaluate(x):
        count[0] += 1
        return values[count[0]] if count[0] in values else problem.evaluate(x)

    return dataclasses.replace(problem, evaluate=evaluate)


def _nan_on_calls(problem, calls):
    return _values_on_calls(problem, dict.fromkeys(calls, math.nan))


def _assert_clean(result):
    fits = [f for _, f in result.trace]
    assert not math.isnan(result.final_fitness)
    assert not any(math.isnan(f) for f in fits)
    assert all(b <= a for a, b in zip(fits, fits[1:]))
    assert fits[-1] == result.final_fitness


@pytest.mark.parametrize("name", sorted(RUNNERS))
def test_nan_first_evaluation_never_becomes_the_best(name):
    problem = resolve_problem("sphere", 3)
    config = OptimizerConfig(pop_size=8, budget=300, seed=1)
    result = RUNNERS[name](_nan_on_calls(problem, {1}), config)
    _assert_clean(result)
    assert math.isfinite(result.final_fitness)
    assert result.final_fitness == problem.evaluate(result.best.position)


@settings(max_examples=150, deadline=None)
@given(
    name=st.sampled_from(sorted(RUNNERS)),
    values=st.dictionaries(
        st.integers(1, 120), st.sampled_from([math.nan, math.inf, -math.inf]), max_size=8
    ),
    seed=st.integers(0, 2**16),
)
def test_non_finite_values_at_any_evaluation_keep_the_trace_clean(name, values, seed):
    problem = resolve_problem("sphere", 3)
    config = OptimizerConfig(pop_size=6, budget=120, seed=seed)
    _assert_clean(RUNNERS[name](_values_on_calls(problem, values), config))


def test_random_search_with_only_nan_reports_inf():
    problem = resolve_problem("sphere", 2)
    config = OptimizerConfig(pop_size=1, budget=5, seed=1)
    result = bo.run_random_search(_nan_on_calls(problem, set(range(1, 6))), config)
    assert result.final_fitness == math.inf
    assert result.trace == [(1, math.inf), (5, math.inf)]


@pytest.mark.parametrize("name", ["mbgo", "embgo"])
def test_nan_in_battle_game_initial_population(name):
    # Used to raise "population contains unevaluated individuals".
    problem = resolve_problem("sphere", 3)
    config = OptimizerConfig(pop_size=6, budget=200, seed=2)
    result = RUNNERS[name](_nan_on_calls(problem, {2, 5}), config)
    _assert_clean(result)


def test_nan_first_member_of_de_gives_a_finite_first_trace_point():
    problem = resolve_problem("sphere", 3)
    config = OptimizerConfig(pop_size=6, budget=6, seed=2)
    result = bo.run_de(_nan_on_calls(problem, {1}), config)
    reference = bo.run_de(problem, config)
    finite = [f for _, f in reference.trace]
    assert result.trace[0] == (6, result.final_fitness)
    assert math.isfinite(result.trace[0][1]) and result.trace[0][1] >= finite[0]


@pytest.mark.parametrize("name", ["mbgo", "embgo", "de"])
def test_initial_fitness_is_a_python_float(name, monkeypatch):
    seen = []
    original = bo.mbgo.battle_game

    def spied_game(problem, config, rng, label, sweep):
        def spied(F, *args):
            if not seen:  # the fitnesses the loop holds when its first sweep starts
                seen.extend(F)
            return sweep(F, *args)

        return original(problem, config, rng, label, spied)

    for module in (bo.mbgo, bo.embgo, bo.baselines):  # battle_game's loop runs all three
        monkeypatch.setattr(module, "battle_game", spied_game)
    RUNNERS[name](resolve_problem("sphere", 2), OptimizerConfig(pop_size=5, budget=6, seed=0))
    assert len(seen) == 5 and all(type(f) is float for f in seen)


def test_budget_take_counts_a_batch():
    budget = EvaluationBudget(5)
    budget.take(3)
    budget.take()
    assert budget.used == 4
    with pytest.raises(RuntimeError):
        budget.take(2)
    budget.take(1)
    assert budget.exhausted
