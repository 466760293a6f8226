"""The BENCH record writer's summaries, on hand-made perfbench records."""

import argparse
import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
SPEC = importlib.util.spec_from_file_location("bench_record", PATH)
bench_record = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_record)

METRICS = [{"name": "setup_s", "unit": "s", "better": "lower"},
           {"name": "fe_per_s", "unit": "1/s", "better": "higher"}]


def record(setup_s, fe_per_s, failed=0, changed=0):
    return {"failed": failed, "attempted": 10, "digest_changed": changed,
            "digest_compared": 4,
            "metrics": {"setup_s": {"value": setup_s}, "fe_per_s": {"value": fe_per_s}}}


def test_summary_gives_quartiles_and_sums_failures_over_seeds():
    runs = {"w": {1: record(0.5, 100.0, failed=1), 2: record(0.7, 300.0, changed=2),
                  3: record(0.6, 200.0), 4: {"error": "exit 1: boom"}}}
    summary = bench_record.summarize(runs, METRICS)["w"]
    assert summary["metrics"]["setup_s"] == {
        "unit": "s", "median": 0.6, "q1": 0.5, "q3": 0.7, "n": 3}
    assert (summary["failed"], summary["attempted"]) == (1, 30)
    assert (summary["digest_changed"], summary["digest_compared"]) == (2, 12)
    assert summary["run_errors"] == {"4": "exit 1: boom"}


def test_versus_counts_wins_in_each_metrics_better_direction():
    base = {"w": {1: record(0.5, 100.0), 2: record(0.6, 100.0), 3: record(0.5, 100.0)}}
    other = {"w": {1: record(0.25, 110.0), 2: record(0.3, 90.0), 3: {"error": "exit 2"}}}
    rows = bench_record.versus(base, other, METRICS)["w"]
    assert rows["setup_s"] == {"ratio_of_medians": pytest.approx(0.5), "won": 2, "pairs": 2}
    assert rows["fe_per_s"] == {"ratio_of_medians": 1.0, "won": 1, "pairs": 2}


def test_quartiles_match_the_table_perfbench_report_prints():
    # report.py takes statistics.quantiles' default (exclusive) method.
    values = [0.42, 0.55, 0.47, 0.61, 0.50, 0.44]
    q1, _, q3 = bench_record.report.statistics.quantiles(values, n=4)
    assert bench_record.quartiles(values) == {"median": 0.485, "q1": q1, "q3": q3, "n": 6}
    assert (q1, q3) == (pytest.approx(0.435), pytest.approx(0.565))
    assert bench_record.quartiles([0.3]) == {"median": 0.3, "q1": 0.3, "q3": 0.3, "n": 1}


def test_identity_names_the_measured_code_of_a_dirty_checkout(tmp_path):
    def git(*args):
        return subprocess.run(["git", "-C", str(tmp_path), "-c", "user.name=t",
                               "-c", "user.email=t@t", *args], capture_output=True,
                              text=True, check=True).stdout.strip()
    git("init", "-q")
    for name in ("src/a.py", "perfbench/run.py", "README.md"):
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text(name)
    git("add", "-A")
    git("commit", "-qm", "one")
    clean = bench_record.identity(tmp_path)
    assert clean == {"commit": git("rev-parse", "HEAD"), "uncommitted_changes": False,
                     "trees": {p: git("rev-parse", f"HEAD:{p}") for p in ("src", "perfbench")}}

    (tmp_path / "src" / "a.py").write_text("edited")
    (tmp_path / "src" / "b.py").write_text("untracked")
    dirty = bench_record.identity(tmp_path)
    assert dirty["commit"] == clean["commit"] and dirty["uncommitted_changes"]
    assert dirty["trees"]["src"] != clean["trees"]["src"]
    assert dirty["trees"]["perfbench"] == clean["trees"]["perfbench"]
    assert git("status", "--porcelain") == "M src/a.py\n?? src/b.py"

    git("add", "-A")
    git("commit", "-qm", "two")
    assert git("rev-parse", "HEAD:src") == dirty["trees"]["src"]


def test_seed_list_and_checkout_arguments(tmp_path):
    assert bench_record.report.seed_list("1-3,7") == [1, 2, 3, 7]
    label, root = bench_record.checkout(f"parent={PATH.parent.parent}")
    assert (label, root) == ("parent", PATH.parent.parent)
    for text in ("no-equals-sign", f"={PATH.parent.parent}", f"empty={tmp_path}"):
        with pytest.raises(argparse.ArgumentTypeError, match="LABEL=CHECKOUT"):
            bench_record.checkout(text)


def test_scaled_takes_a_cell_to_reference_speed():
    # kernel 3 ms before and 5 ms after: the host ran at half the 2 ms
    # reference speed, so 10 raw µs/FE is 5 at reference speed
    cell = bench_record.scaled(10.0, 0.003, 0.005, 0.002)
    assert cell == {"us_per_fe": pytest.approx(5.0), "raw_us_per_fe": 10.0,
                    "kernel_s": [0.003, 0.005]}
    assert bench_record.scaled(7.0, 0.002, 0.002, 0.002)["us_per_fe"] == 7.0


def test_median_cell_takes_the_median_run_and_keeps_every_run():
    # reference 2 ms; the second run's host ran at half speed
    cell = bench_record.median_cell([[4.0, 0.002, 0.002], [10.0, 0.004, 0.004],
                                     [6.0, 0.002, 0.002]], 0.002)
    assert cell["us_per_fe"] == pytest.approx(5.0)
    assert cell["raw_us_per_fe"] == 6.0
    assert [r["raw_us_per_fe"] for r in cell["runs"]] == [4.0, 10.0, 6.0]
    assert cell["runs"][1] == bench_record.scaled(10.0, 0.004, 0.004, 0.002)
    assert bench_record.median_cell([[7.0, 0.002, 0.002]], 0.002)["us_per_fe"] == 7.0


def test_nd_summary_gives_quartiles_per_optimizer_and_cell():
    def cell(us, raw):
        return {"us_per_fe": us, "raw_us_per_fe": raw, "runs": [{"raw_us_per_fe": raw}]}

    by_seed = {1: {"de": {"N=50 D=10": cell(3.0, 6.0)}}, 2: {"de": {"N=50 D=10": cell(5.0, 5.5)}},
               3: {"de": {"N=50 D=10": cell(4.0, 4.0)}}, 4: {"error": "exit 1: boom"}}
    summary = bench_record.nd_summary(by_seed)
    assert summary["de"]["N=50 D=10"]["median"] == 4.0
    assert summary["de"]["N=50 D=10"]["n"] == 3
    assert summary["de"]["N=50 D=10"]["raw"]["median"] == 5.5
    assert summary["de"]["N=50 D=10"]["runs"] == [[{"raw_us_per_fe": r}] for r in (6.0, 5.5, 4.0)]
    assert summary["run_errors"] == {"4": "exit 1: boom"}
    assert bench_record.nd_summary({1: {"error": "exit 2"}}) == {"run_errors": {"1": "exit 2"}}


def test_time_nd_times_every_optimizer_in_the_checkouts_own_package():
    table = bench_record.time_nd(PATH.parent.parent, seed=3, pops=(4, 6), dims=(2,), runs=2)
    assert sorted(table) == sorted(bench_record.ND_OPTIMIZERS)
    for cells in table.values():
        assert sorted(cells) == ["N=4 D=2", "N=6 D=2"]
        for cell in cells.values():
            assert 0.0 < cell["us_per_fe"] < 1e5 and 0.0 < cell["raw_us_per_fe"] < 1e5
            assert len(cell["runs"]) == 2
            assert all(0.0 < t < 1.0 for run in cell["runs"] for t in run["kernel_s"])


DURATIONS = """\
........................................................................ [ 99%]
...                                                                      [100%]
============================= slowest durations ==============================
39.33s call     tests/test_acceptance.py::test_criterion_06_directional_check
5.83s call     tests/test_acceptance.py::test_criterion_05_dominance_anchor
0.02s setup    tests/test_acceptance.py::test_criterion_06_directional_check
0.01s teardown tests/test_acceptance.py::test_criterion_06_directional_check
0.01s call     tests/test_other.py::test_criterion_06_directional_check_helper

(120 durations < 0.005s hidden.  Use -vv to show these durations.)
2 failed, 865 passed, 5 warnings, 1 error in 88.11s (0:01:28)
"""


def test_parse_tier1_reads_the_walls_and_counts_of_a_durations_run():
    parsed = bench_record.parse_tier1(DURATIONS)
    assert parsed["wall_s"] == 88.11
    assert parsed["criterion_06_s"] == pytest.approx(39.36)
    assert (parsed["passed"], parsed["failed"], parsed["errors"]) == (865, 2, 1)
    # the short summary pytest prints on failures is framed in "=" signs
    framed = bench_record.parse_tier1("== 867 passed in 3.50s ==\n")
    assert framed == {"wall_s": 3.5, "criterion_06_s": None, "passed": 867, "failed": 0,
                      "errors": 0}
    assert bench_record.parse_tier1("no summary at all\n")["wall_s"] is None


def test_tier1_runs_each_checkout_twice_in_mirrored_order():
    a, b, c = ("parent", Path("a")), ("change", Path("b")), ("other", Path("c"))
    assert bench_record.tier1_order([a, b]) == [a, b, b, a]
    assert bench_record.tier1_order([a, b, c]) == [a, b, c, c, b, a]
    assert bench_record.tier1_order([a]) == [a, a]


def test_each_checkout_collects_its_suite_once_before_the_timed_runs(monkeypatch, tmp_path):
    calls = []
    monkeypatch.setattr(bench_record, "identity", lambda root: {})
    monkeypatch.setattr(bench_record, "warm_tier1", lambda root: calls.append(("warm", root)))
    monkeypatch.setattr(bench_record, "time_tier1",
                        lambda root: calls.append(("timed", root)) or {"wall_s": len(calls)})
    monkeypatch.setattr(bench_record, "run_once", lambda *args: {"error": "not run"})
    monkeypatch.setattr(bench_record, "time_nd", lambda *args: {"error": "not run"})
    a, b = tmp_path / "a", tmp_path / "b"
    for root in (a, b):
        (root / "perfbench").mkdir(parents=True)
        (root / "perfbench" / "run.py").touch()
    out = tmp_path / "bench.json"
    assert bench_record.main([f"parent={a}", f"change={b}", "--out", str(out), "--seeds", "1"]) == 0
    # collect each checkout, then one discarded run of the first, then A B B A
    assert calls == [("warm", a), ("warm", b), ("timed", a), ("timed", a), ("timed", b),
                     ("timed", b), ("timed", a)]
    # the warm-ups leave nothing in the record, and the discarded run is kept apart
    record = json.loads(out.read_text())["tier1"]
    assert record["discarded"] == {"checkout": "parent", "wall_s": 3}
    assert record["checkouts"] == {"parent": [{"wall_s": 4}, {"wall_s": 7}],
                                   "change": [{"wall_s": 5}, {"wall_s": 6}]}


def test_warm_up_collects_the_checkouts_own_suite_without_running_it(monkeypatch):
    seen = []
    monkeypatch.setattr(bench_record.subprocess, "run",
                        lambda cmd, **kw: seen.append((cmd, kw)))
    root = PATH.parent.parent
    assert bench_record.warm_tier1(root) is None
    (cmd, kw), = seen
    assert cmd[1:] == bench_record.TIER1_WARM and "--collect-only" in cmd
    assert kw["cwd"] == root
    assert kw["env"]["PYTHONPATH"].split(bench_record.os.pathsep)[0] == str(root / "src")
