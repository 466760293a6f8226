#!/usr/bin/env python3
"""Write a BENCH_<n>.json trajectory record from interleaved perfbench runs.

    python3 tools/bench_record.py --out BENCH_11.json --seeds 1-10 \\
        parent=../parent change=.

Each positional LABEL=CHECKOUT names a checkout of this repository. For
every seed and every workload in BENCHMARK.json, the checkouts' own
``perfbench/run.py --trace 0`` runs once each for the benchmark's
``run_seconds``, as a subprocess and one after the other; the order of
the checkouts alternates from seed to seed. The record each run writes to
its checkout's ``perfbench-out/results/`` is read back, and the file
written holds, per checkout, what was measured (the commit and the git
tree ids of the working tree's ``src`` and ``perfbench``), the ``env``
block of its first run, and per workload the median, q1 and q3 of every
end-to-end metric with ``failed``, ``attempted``, ``digest_changed`` and
``digest_compared`` summed over the seeds. With two or more checkouts a
``versus`` block compares each one with the first: the ratio of medians
and the number of seeds on which it read better.

Seed lists and the run timeout come from ``perfbench/report.py``, and
quartiles use its method, so the spreads match the table it prints.
Nothing under ``perfbench/`` is changed; the file is rewritten after
every run, so an interrupted session keeps what it measured.
"""

import argparse
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("perfbench_report",
                                               ROOT / "perfbench" / "report.py")
report = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(report)

# The paths whose content a perfbench run depends on.
MEASURED = ("src", "perfbench")


def checkout(text: str) -> tuple:
    label, sep, path = text.partition("=")
    root = Path(path).resolve()
    if not sep or not label or not (root / "perfbench" / "run.py").is_file():
        raise argparse.ArgumentTypeError(
            f"expected LABEL=CHECKOUT with a perfbench/run.py, got {text!r}")
    return label, root


def identity(root: Path) -> dict:
    """HEAD, and the git tree id of each measured path as it is on disk.

    A tree id equals ``git rev-parse <commit>:<path>`` of every commit that
    holds the same files there, so a record taken on a checkout with
    uncommitted changes still names the code it measured. The ids are
    built in a throw-away index; the checkout's own index is not touched.
    """
    with tempfile.TemporaryDirectory() as tmp:
        env = {**os.environ, "GIT_INDEX_FILE": str(Path(tmp) / "index")}

        def git(*args):
            return subprocess.run(["git", "-C", str(root), *args], env=env,
                                  capture_output=True, text=True,
                                  check=True).stdout.strip()
        git("read-tree", "HEAD")
        git("add", "--all", "--", *MEASURED)
        tree = git("write-tree")
        return {"commit": git("rev-parse", "HEAD"),
                "uncommitted_changes": tree != git("rev-parse", "HEAD^{tree}")
                or bool(git("status", "--porcelain", "--untracked-files=no")),
                "trees": {p: git("rev-parse", f"{tree}:{p}") for p in MEASURED}}


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run; its full record, or the reason it has none."""
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=report.RUN_TIMEOUT_S)
    if proc.returncode != 0:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    path = root / "perfbench-out" / "results" / f"{workload}-seed{seed}-trace0.json"
    return json.loads(path.read_text())


def quartiles(values: list) -> dict:
    median = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (median, median, median))
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def summarize(records: dict, metrics: list) -> dict:
    """Per workload: metric quartiles over seeds and the summed failure counts."""
    out = {}
    for workload, by_seed in records.items():
        runs = [r for r in by_seed.values() if "error" not in r]
        summary = {
            "seeds": sorted(by_seed),
            "run_errors": {str(s): r["error"] for s, r in by_seed.items() if "error" in r},
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "digest_changed": sum(r["digest_changed"] for r in runs),
            "digest_compared": sum(r["digest_compared"] for r in runs),
            "metrics": {},
        }
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            if values:
                summary["metrics"][m["name"]] = {"unit": m["unit"], **quartiles(values)}
        out[workload] = summary
    return out


def versus(base: dict, other: dict, metrics: list) -> dict:
    """Per workload and metric: median ratio other/base and seeds other won."""
    out = {}
    for workload, base_runs in base.items():
        rows = {}
        seeds = [s for s in base_runs if s in other[workload]
                 and "error" not in base_runs[s] and "error" not in other[workload][s]]
        for m in metrics:
            pairs = [(base_runs[s]["metrics"][m["name"]]["value"],
                      other[workload][s]["metrics"][m["name"]]["value"]) for s in seeds]
            if not pairs:
                continue
            sign = 1.0 if m["better"] == "higher" else -1.0
            rows[m["name"]] = {
                "ratio_of_medians": (statistics.median(b for _, b in pairs)
                                     / statistics.median(a for a, _ in pairs)),
                "won": sum(sign * (b - a) > 0 for a, b in pairs),
                "pairs": len(pairs),
            }
        out[workload] = rows
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkouts", nargs="+", type=checkout, metavar="LABEL=CHECKOUT")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,7")
    args = parser.parse_args(argv)
    labels = [label for label, _ in args.checkouts]
    if len(set(labels)) != len(labels):
        parser.error(f"labels must differ, got {labels}")

    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    records = {label: {w: {} for w in workloads} for label in labels}
    measured = {label: identity(root) for label, root in args.checkouts}
    envs: dict = {}
    for i, seed in enumerate(report.seed_list(args.seeds)):
        order = args.checkouts if i % 2 == 0 else args.checkouts[::-1]
        for workload in workloads:
            for label, root in order:
                record = run_once(root, workload, seed, seconds)
                records[label][workload][seed] = record
                envs[label] = envs.get(label) or record.get("env")
                print(f"{label} {workload} seed {seed}: "
                      + (record["error"] if "error" in record else
                         f"failed {record['failed']}/{record['attempted']}  "
                         f"setup_s {record['metrics']['setup_s']['value']:.3f}"),
                      flush=True)
                bench = {
                    "seeds": args.seeds,
                    "run_seconds": seconds,
                    "quartiles": "statistics.quantiles(n=4), as perfbench/report.py",
                    "order": "per seed and workload, checkouts alternate which runs first",
                    "checkouts": {k: {**measured[k], "env": envs.get(k),
                                      "workloads": summarize(records[k], metrics)}
                                  for k in labels},
                    "versus": {k: versus(records[labels[0]], records[k], metrics)
                               for k in labels[1:]},
                }
                args.out.write_text(json.dumps(bench, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
