"""Tests of the benchmark's own code: span arithmetic, the rng proxy,
rebinding and restoring the traced names, and the per-run checks.

    python3 -m pytest perfbench
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import battleopt as bo  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_self_time_of_nested_spans():
    #        0 root 10
    #     1 a 4    5 b 7
    #     2 c 3
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 7.0]
    parent = [-1, 0, 1, 0]
    assert spans.self_times(start, end, parent) == [5.0, 2.0, 1.0, 2.0]


def test_self_time_counts_overlapping_children_once_and_clips_them():
    # children [1, 5] and [3, 8] overlap on [3, 5]; [9, 12] leaves the parent at 10
    start = [0.0, 3.0, 1.0, 9.0]
    end = [10.0, 8.0, 5.0, 12.0]
    parent = [-1, 0, 0, 0]
    own = spans.self_times(start, end, parent)
    assert own[0] == pytest.approx(10.0 - 7.0 - 1.0)
    assert own[1:] == [5.0, 4.0, 3.0]


def test_self_time_of_a_child_inside_an_earlier_sibling_is_not_subtracted_twice():
    start = [0.0, 1.0, 2.0]
    end = [10.0, 6.0, 4.0]
    parent = [-1, 0, 0]
    assert spans.self_times(start, end, parent)[0] == pytest.approx(5.0)


def test_tracer_records_parents_and_summarises_self_time():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap(lambda: None, "inner")
    outer = tracer.wrap(lambda: (inner(), inner()), "outer")
    outer()
    # outer [0, 5], inner [1, 2] and [3, 4]
    assert list(tracer.parent) == [-1, 0, 0]
    summary = tracer.summary()
    assert summary["outer"] == {"calls": 1, "s": 5.0, "self_s": 3.0}
    assert summary["inner"] == {"calls": 2, "s": 2.0, "self_s": 2.0}


def test_rng_proxy_yields_the_bare_generator_stream():
    def draws(rng):
        return [
            rng.random(),
            rng.random(5),
            rng.uniform(-2.0, 3.0, size=(4, 3)),
            rng.uniform(np.zeros(3), np.ones(3)),
            rng.normal(0.0, 1.5, 7),
            rng.integers(10),
            rng.choice(9, size=3, replace=False),
            rng.standard_normal(2),
        ]

    tracer = spans.Tracer()
    proxied = draws(spans.RngProxy(bo.make_rng(42), tracer))
    bare = draws(bo.make_rng(42))
    for a, b in zip(proxied, bare):
        np.testing.assert_array_equal(a, b)
    assert tracer.summary()["core.rng"]["calls"] == 7


def bound_names():
    names = [(m, a) for m, a, _ in spans.TRACE_POINTS]
    names += [(m, "greedy_replace") for m in spans.GREEDY_CONSUMERS]
    names += [("battleopt.stats", "mann_whitney_u")]
    names += [("battleopt.cli", a) for a in ("resolve_problem", "table_problem", "trial_rng")]
    return names


def snapshot():
    attrs = {(m, a): getattr(importlib.import_module(m), a) for m, a in bound_names()}
    return attrs, dict(bo.cli.ALGORITHMS)


def tiny_state(tmp_path):
    return workloads.State(
        workload="tiny", workdir=tmp_path, pass_seeds=[7],
        problem=bo.make_problem("rastrigin", 3, transform_seed=5),
        specs=(("rastrigin:sr5", 3),),
    )


def tiny_compare(tracer, tmp_path):
    argv = ["compare", "--problem", "sphere:sr3", "--problem", "three-bar-truss",
            "--algorithm", "embgo", "--algorithm", "mbgo", "--dim", "3", "--pop", "6",
            "--budget", "60", "--trials", "2", "--seed", "9", "--out", str(tmp_path)]
    code, runs, _ = workloads.invoke(argv, tracer, workloads.Speed(), workloads.Pass())
    assert code == 0
    return [workloads.digest(r.result.serialize()) for r in runs]


def test_traced_pass_rebinds_every_name_restores_it_and_keeps_the_output(tmp_path):
    before_attrs, before_algorithms = snapshot()
    state = tiny_state(tmp_path)
    plain = workloads.api_pass(state, 7, None, workloads.Speed(), pop=6, budget=60)
    plain_cli = tiny_compare(None, tmp_path)

    tracer = spans.Tracer()
    with spans.Rebinder() as rebinder:
        spans.instrument(rebinder, tracer)
        during, _ = snapshot()
        assert all(during[key] is not before_attrs[key] for key in before_attrs)
        traced = workloads.api_pass(state, 7, tracer, workloads.Speed(), pop=6, budget=60)
        traced_cli = tiny_compare(tracer, tmp_path)

    after_attrs, after_algorithms = snapshot()
    assert all(after_attrs[key] is before_attrs[key] for key in before_attrs)
    assert after_algorithms == before_algorithms
    assert all(after_algorithms[k] is before_algorithms[k] for k in before_algorithms)

    assert plain.failures == traced.failures == []
    assert traced.digests == plain.digests
    assert traced_cli == plain_cli
    summary = tracer.summary()
    for name in ("core.best_worst", "core.rng", "problems.evaluate",
                 "problems.apply_transform", "embgo.run", "mbgo.run", "cli.main",
                 "cli.runner", "stats.mann_whitney_u"):
        assert summary[name]["calls"] > 0, name


def test_a_restore_after_an_error_still_restores(tmp_path):
    before_attrs, _ = snapshot()
    with pytest.raises(RuntimeError):
        with spans.Rebinder() as rebinder:
            spans.instrument(rebinder, spans.Tracer())
            raise RuntimeError("boom")
    after_attrs, _ = snapshot()
    assert all(after_attrs[key] is before_attrs[key] for key in before_attrs)


def test_check_run_accepts_a_real_run_and_flags_a_tampered_one():
    problem = bo.make_problem("sphere", 4)
    result = bo.run_embgo(problem, bo.OptimizerConfig(pop_size=6, budget=60, seed=1))
    assert workloads.check_run(result, bo.make_problem("sphere", 4), 60) == []
    result.best.fitness -= 1.0
    bad = workloads.check_run(result, bo.make_problem("sphere", 4), 60)
    assert any("final_fitness" in line for line in bad)
    assert workloads.check_run(result, problem, 61)[0].startswith("fes_used")
    assert workloads.check_run(ValueError("x"), problem, 60) == ["raised ValueError: x"]
