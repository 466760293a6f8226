"""The BENCH record writer's summaries, on hand-made perfbench records."""

import argparse
import importlib.util
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
