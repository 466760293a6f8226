"""Window blocks evaluated in one batch call, against the same objective called per member.

MBGO's and EMBGO's windows (where 32 N // D reaches 12, so at N = 50
for D = 10) and DE's evaluate their block of candidates through
``Problem.evaluate_batch`` in one call when
:func:`~battleopt.problems.pure_rows` finds the objective marked pure,
and take each member's value from it unless the member was rebuilt.
PSO does so for a window only once the global best has held for twice
the window's particles, and throws away the rows after the first that
improves it. The same objective without the mark goes member by member.
Both must give the same ``serialize()``, the same final generator state
and the same ``fes_used``; only the marked one may see rows whose values
are thrown away. A user objective, with or without a ``.batch``, is
never marked, and a table problem with a missing score is not either.
"""

import dataclasses
import functools
import math

import numpy as np
import pytest

from battleopt import (
    LookupTable,
    OptimizerConfig,
    TableError,
    decode,
    make_problem,
    resolve_problem,
    run_de,
    run_embgo,
    run_mbgo,
    run_pso,
    synthetic_table,
    table_problem,
)
from battleopt.problems import _mark_pure, pure_rows

from conftest import decreasing, recording
from test_de_sweep import assert_same_run as assert_same_as_de_loop
from test_member_sweep import assert_same_run as assert_same_as_member_loop
from test_pso_sweep import assert_same_run as assert_same_as_pso_loop

RUNNERS = {"embgo": run_embgo, "mbgo": run_mbgo, "de": run_de, "pso": run_pso}
NAMES = sorted(RUNNERS)


def unmarked(problem):
    """``problem`` with a ``functools.wraps`` copy of its objective: ``.batch`` kept, mark lost."""
    inner = problem.evaluate
    return dataclasses.replace(problem, evaluate=functools.wraps(inner)(lambda x: inner(x)))


def counting(problem, batches=None):
    """``problem`` with a marked objective that counts single calls and batch rows.

    Given a list ``batches``, each batch call's rows are appended to it.
    """
    inner = problem.evaluate
    calls = {"single": 0, "rows": 0}

    def evaluate(x):
        calls["single"] += 1
        return inner(x)

    def rows(X):
        calls["rows"] += len(X)
        if batches is not None:
            batches.append(X.copy())
        return inner.batch(X)

    evaluate.batch = rows
    return dataclasses.replace(problem, evaluate=_mark_pure(evaluate)), calls


def assert_same_run(name, problem, config, batches=None):
    """Run ``name`` marked and unmarked; returns the marked run's call counts.

    Given a list ``batches``, the marked run's batch blocks are appended to it.
    """
    marked, calls = counting(problem, batches)
    assert pure_rows(marked) is not None and pure_rows(unmarked(marked)) is None

    def run(p):
        rng = np.random.default_rng(config.seed)
        result = RUNNERS[name](p, config, rng)
        return result.serialize(), repr(rng.bit_generator.state), result.fes_used

    batched = run(marked)
    counted = dict(calls)
    assert batched == run(unmarked(marked))
    assert batched[2] == config.budget
    # every FE is one value, from a single call or a batch row
    assert counted["single"] + counted["rows"] >= config.budget
    return counted


def thrown_away(calls, config):
    return calls["single"] + calls["rows"] - config.budget


def test_what_the_package_marks():
    for spec in ("sphere", "ackley:sr", "rastrigin:sr7"):
        assert pure_rows(resolve_problem(spec, 4)) is not None
    assert pure_rows(resolve_problem("three-bar-truss", 2)) is not None
    assert pure_rows(table_problem(synthetic_table(1))) is not None
    partial = LookupTable({(0,) * 6: 50.0}, default=10.0)
    assert pure_rows(table_problem(partial)) is not None
    recorded, _ = recording(make_problem("sphere", 3), None, batch=True)
    assert hasattr(recorded.evaluate, "batch") and pure_rows(recorded) is None


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("n", [192, 400])
def test_a_rugged_objective_with_windows(name, n):
    problem = resolve_problem("rastrigin:sr", 10)
    config = OptimizerConfig(pop_size=n, budget=n * 5 + 7, seed=4)
    calls = assert_same_run(name, problem, config)
    # rows rebuilt after a block was evaluated, or left by a rewind
    assert calls["rows"] > n and thrown_away(calls, config) > 0


@pytest.mark.parametrize("name", NAMES)
def test_the_truss_with_windows(name):
    config = OptimizerConfig(pop_size=256, budget=256 * 5 + 11, seed=7)
    batches = []
    calls = assert_same_run(name, resolve_problem("three-bar-truss", 2), config, batches)
    assert calls["rows"] > 256
    if name != "pso":  # clamping to x1 = 0 puts singular rows into the windows' blocks
        assert any((X[:, 0] == 0.0).any() for X in batches[1:])


@pytest.mark.parametrize("name", ["embgo", "mbgo"])
@pytest.mark.parametrize("spec, dim, n", [("rastrigin:sr", 10, 50), ("rastrigin:sr", 300, 50),
                                          ("sphere", 2048, 64)])
def test_windows_follow_members_times_dimensions(name, spec, dim, n):
    config = OptimizerConfig(pop_size=n, budget=n * 8 + 3, seed=2)
    calls = assert_same_run(name, resolve_problem(spec, dim), config)
    if dim == 10:  # 50 members at D=10 go in windows, whose blocks are batched
        assert calls["rows"] > n and calls["single"] < n * 7 + 3
    else:  # only the initial population is a batch
        assert calls == {"single": n * 7 + 3, "rows": n}


def test_de_at_50_members():
    config = OptimizerConfig(pop_size=50, budget=500, seed=6)
    calls = assert_same_run("de", resolve_problem("rastrigin:sr", 10), config)
    assert calls["rows"] > 50 and thrown_away(calls, config) > 0


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("extra", [1, 13, 29])
def test_budgets_that_end_mid_window(name, extra):
    # 256 members: MBGO and EMBGO windows of up to 64, DE's of 32
    config = OptimizerConfig(pop_size=256, budget=256 * 3 + extra, seed=8)
    assert_same_run(name, make_problem("ackley", 5), config)


def spiky(x):
    """A pure objective with NaN, +inf and -inf regions between sphere values."""
    k = int(abs(x[0]) * 1000.0) % 11
    s = float(np.dot(x, x))
    if k == 0:
        return math.nan
    if k == 1:
        return math.inf
    if k == 2 and s < 3000.0:
        return -math.inf
    return s


spiky.batch = lambda X: np.array([spiky(x) for x in X], dtype=float)


@pytest.mark.parametrize("name", NAMES)
def test_nan_and_infinite_values_from_a_marked_objective(name):
    base = make_problem("sphere", 3)
    problem = dataclasses.replace(base, name="spiky", evaluate=spiky)
    config = OptimizerConfig(pop_size=256, budget=256 * 6 + 5, seed=9)
    batches = []
    assert_same_run(name, problem, config, batches)
    # every kind of value goes through the batch path, not only the initial population's
    values = np.concatenate([spiky.batch(X) for X in batches[1:]])
    assert np.isnan(values).any() and np.isposinf(values).any() and np.isneginf(values).any()


@pytest.mark.parametrize("name", ["embgo", "mbgo"])
def test_a_user_objective_keeps_one_call_per_fe(name):
    # recording(batch=True) gives a .batch to a wrapper; the wrapper is
    # called once per FE, at the points and in the order of the
    # per-member reference loop
    problem = resolve_problem("rastrigin:sr", 10)
    assert_same_as_member_loop(name, problem, OptimizerConfig(pop_size=256, budget=256 * 4 + 9,
                                                              seed=3))


def test_a_user_objective_keeps_one_call_per_fe_in_de():
    problem = resolve_problem("rastrigin:sr", 10)
    assert_same_as_de_loop(problem, OptimizerConfig(pop_size=50, budget=50 * 9 + 21, seed=3))


# --- PSO: a window batched once the global best has held --------------------


def test_pso_at_50_particles_throws_away_few_rows():
    # Over seeds 1-3 the held rule throws away about 3 % of the sweep's
    # FEs here; with held >= the window, 6 %; batching every window, half.
    sweep = thrown = 0
    for seed in (1, 2, 3):
        config = OptimizerConfig(pop_size=50, budget=3000, seed=seed)
        calls = assert_same_run("pso", resolve_problem("rastrigin:sr", 10), config)
        assert calls["rows"] > 50 and calls["single"] > 0
        sweep += config.budget - config.pop_size
        thrown += thrown_away(calls, config)
    assert 0 < thrown < 0.05 * sweep


@pytest.mark.parametrize("extra", [0, 1, 37, 399])
def test_pso_on_sphere_at_400_particles(extra):
    # extra > 0: the budget ends mid-sweep, in or after a batched window
    config = OptimizerConfig(pop_size=400, budget=400 * 6 + extra, seed=5)
    calls = assert_same_run("pso", make_problem("sphere", 10), config)
    assert calls["rows"] > 400 * 2


def test_pso_batches_nothing_while_every_particle_improves():
    f = decreasing()
    f.batch = lambda X: np.array([f(x) for x in X], dtype=float)
    problem, calls = counting(dataclasses.replace(make_problem("sphere", 4), evaluate=f))
    config = OptimizerConfig(pop_size=300, budget=300 * 4 + 3, seed=8)
    run_pso(problem, config)
    assert calls == {"single": config.budget - 300, "rows": 300}


@pytest.mark.parametrize("n, budget", [(50, 3000), (400, 400 * 5 + 17)])
def test_a_user_objective_keeps_one_call_per_fe_in_pso(n, budget):
    problem = resolve_problem("rastrigin:sr", 10)
    assert_same_as_pso_loop(problem, OptimizerConfig(pop_size=n, budget=budget, seed=3))


# --- a table with missing scores ---------------------------------------------


def missing_message(problem, name, config):
    with pytest.raises(TableError) as caught:
        RUNNERS[name](problem, config, np.random.default_rng(config.seed))
    return str(caught.value)


@pytest.mark.parametrize("name", ["de", "embgo"])
def test_a_table_with_missing_scores_goes_member_by_member(name):
    full = synthetic_table(5)
    config = OptimizerConfig(pop_size=256, budget=256 * 4, seed=12)
    # The complete table, batched: codes only thrown-away rows reach, and
    # the code of the last FE that is the first to reach it.
    batches = []
    spied, _ = counting(table_problem(full), batches)
    recorded, seen = recording(table_problem(full), None, batch=True)
    for p in (spied, recorded):
        RUNNERS[name](p, config, np.random.default_rng(config.seed))
    fe_codes = [decode(x) for x in seen]
    reached = set(fe_codes)
    thrown = [c for X in batches[1:] for c in map(decode, X) if c not in reached]
    assert thrown
    first = {}
    for k, code in enumerate(fe_codes):
        first.setdefault(code, k)
    late = max(first, key=first.get)
    assert first[late] >= config.pop_size

    entries = full.entries
    del entries[thrown[0]], entries[late]
    partial = LookupTable(entries, full.dataset, full.attack)
    problem = table_problem(partial)
    assert pure_rows(problem) is None
    expected = f"code {''.join(map(str, late))} missing and the table declares no default"
    assert missing_message(problem, name, config) == expected
    assert missing_message(unmarked(problem), name, config) == expected
    # Batched anyway, the run would stop at a row it never evaluates.
    forced = dataclasses.replace(problem, evaluate=_mark_pure(unmarked(problem).evaluate))
    assert missing_message(forced, name, config) == (
        f"code {''.join(map(str, thrown[0]))} missing and the table declares no default")
