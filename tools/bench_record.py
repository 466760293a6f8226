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

After each seed's workloads, every checkout (in the same alternating
order) also times the ``nd_table``: µs/FE of embgo, mbgo, de and pso on
sphere at N in {50, 200, 800, 3200} and D in {10, 100}, runs of
``N + max(2 N, 4000)`` evaluations seeded with the seed. The whole table
runs ``ND_RUNS`` times over, and each cell is the median of its runs. Like
perfbench's end-to-end times, each run is scaled to the reference speed:
perfbench's calibration kernel is timed right before and right after the
run, and the raw µs/FE is multiplied by ``CAL_REF_S`` over the mean of the
two (see ``perfbench/workloads.py``). Every run's scaled and raw value and
kernel times are kept next to the median. The cells' quartiles over the
seeds go into the record next to the workloads. The table is not gated:
no metric of ``BENCHMARK.json`` reads it.

Before the first seed, every checkout collects its own tier-1 suite once
(``pytest --collect-only``, untimed and not recorded), so that no timed
run pays the cold start of a fresh checkout. Then every checkout runs the
suite twice, with ``--durations=0``: the checkouts in the order given,
then in reverse (A B B A for two), so that a drift in the host's speed
over the block weighs on each checkout alike. The record keeps, per
checkout, both timed runs in the order they ran: the suite's wall
(pytest's own ``in <s>s`` summary), criterion 06's wall (its setup, call
and teardown durations summed) and the pass and fail counts. These are
not gated either.

Seed lists and the run timeout come from ``perfbench/report.py``, and
quartiles use its method, so the spreads match the table it prints.
Nothing under ``perfbench/`` is changed; the file is rewritten after
every run, so an interrupted session keeps what it measured.
"""

import argparse
import importlib.util
import json
import os
import re
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

ND_OPTIMIZERS = ("embgo", "mbgo", "de", "pso")
ND_POPS = (50, 200, 800, 3200)
ND_DIMS = (10, 100)
ND_RUNS = 3

# Runs in the checkout's own package (PYTHONPATH=<checkout>/src), so it
# uses only the API every checkout has: run_X(problem, config). The
# calibration kernel is this tool's own perfbench's, the same for every
# checkout. The table runs `runs` times over; per cell it prints one
# [raw µs/FE, kernel before, kernel after] per run.
ND_TIMER = """
import json, sys, time
sys.path.insert(0, sys.argv[5])
import battleopt as bo
from workloads import CAL_REF_S, kernel_time
seed, pops, dims, names = int(sys.argv[1]), *map(json.loads, sys.argv[2:5])
table = {}
for _ in range(int(sys.argv[6])):
    for dim in dims:
        problem = bo.make_problem("sphere", dim)
        for n in pops:
            budget = n + max(2 * n, 4000)
            config = bo.OptimizerConfig(pop_size=n, budget=budget, seed=seed)
            for name in names:
                run = getattr(bo, "run_" + name)
                before = kernel_time()
                start = time.perf_counter()
                run(problem, config)
                wall = time.perf_counter() - start
                after = kernel_time()
                cell = table.setdefault(name, {}).setdefault(f"N={n} D={dim}", [])
                cell.append([wall / budget * 1e6, before, after])
print(json.dumps({"ref_s": CAL_REF_S, "table": table}))
"""


# The tier-1 command of ROADMAP.md, with every test's durations listed.
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "--durations=0"]
# The untimed warm-up before the timed runs: imports and bytecode, no test run.
TIER1_WARM = ["-m", "pytest", "-q", "--continue-on-collection-errors", "--collect-only"]
TIER1_TIMEOUT_S = 1800
CRITERION_06 = "test_criterion_06_directional_check"
_DURATION = re.compile(r"^(\d+(?:\.\d+)?)s\s+(setup|call|teardown)\s+(\S+)")
_SUMMARY = re.compile(r"^=*\s*(.*?)\s+in\s+(\d+(?:\.\d+)?)s\b")
_COUNT = re.compile(r"(\d+) (passed|failed|errors?)")


def parse_tier1(text: str) -> dict:
    """Suite wall, criterion 06's wall and test counts from pytest's ``--durations=0`` output.

    The wall is the last ``... in <s>s`` summary line; criterion 06's wall
    sums the setup, call and teardown lines of its test, which pytest
    lists only when they are 0.005 s or longer. A part not found is None.
    """
    wall, criterion, counts = None, None, {"passed": 0, "failed": 0, "errors": 0}
    for line in text.splitlines():
        duration = _DURATION.match(line.strip())
        if duration and duration.group(3).endswith("::" + CRITERION_06):
            criterion = (criterion or 0.0) + float(duration.group(1))
        summary = _SUMMARY.match(line.strip())
        if summary and _COUNT.search(summary.group(1)):
            wall = float(summary.group(2))
            counts = {"passed": 0, "failed": 0, "errors": 0}
            for number, kind in _COUNT.findall(summary.group(1)):
                counts["errors" if kind.startswith("error") else kind] += int(number)
    return {"wall_s": wall, "criterion_06_s": criterion, **counts}


def tier1_env(root: Path) -> dict:
    """The environment with the checkout's ``src`` first on PYTHONPATH."""
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": str(root / "src") + (os.pathsep + path if path else "")}


def warm_tier1(root: Path) -> None:
    """Collect the checkout's tier-1 suite once, untimed; nothing of it is kept."""
    subprocess.run([sys.executable, *TIER1_WARM], cwd=root, env=tier1_env(root),
                   capture_output=True, timeout=TIER1_TIMEOUT_S)


def time_tier1(root: Path) -> dict:
    """One tier-1 run of the checkout's own suite, parsed; or its error."""
    try:
        proc = subprocess.run([sys.executable, *TIER1], cwd=root, env=tier1_env(root),
                              capture_output=True, text=True, timeout=TIER1_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {TIER1_TIMEOUT_S} s"}
    parsed = parse_tier1(proc.stdout)
    if parsed["wall_s"] is None:
        return {"error": f"exit {proc.returncode}: no summary line: {proc.stdout.strip()[-300:]}"}
    return {"exit": proc.returncode, **parsed}


def tier1_order(checkouts: list) -> list:
    """The checkouts in the order given, then reversed: A B B A for two."""
    return [*checkouts, *checkouts[::-1]]


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


def scaled(raw_us: float, before_s: float, after_s: float, ref_s: float) -> dict:
    """One run at reference speed: ``raw_us`` times ``ref_s`` over the mean kernel time."""
    return {"us_per_fe": raw_us * ref_s / ((before_s + after_s) / 2),
            "raw_us_per_fe": raw_us, "kernel_s": [before_s, after_s]}


def median_cell(readings: list, ref_s: float) -> dict:
    """A cell's scaled and raw medians over its runs (see :func:`scaled`), every run kept."""
    runs = [scaled(*reading, ref_s) for reading in readings]
    return {"us_per_fe": statistics.median(r["us_per_fe"] for r in runs),
            "raw_us_per_fe": statistics.median(r["raw_us_per_fe"] for r in runs),
            "runs": runs}


def time_nd(root: Path, seed: int, pops=ND_POPS, dims=ND_DIMS, names=ND_OPTIMIZERS,
            runs=ND_RUNS) -> dict:
    """The checkout's cells (see :func:`median_cell`) per optimizer and ``"N=<n> D=<d>"``, or its error."""
    cmd = [sys.executable, "-c", ND_TIMER, str(seed), json.dumps(list(pops)),
           json.dumps(list(dims)), json.dumps(list(names)), str(ROOT / "perfbench"), str(runs)]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                          timeout=report.RUN_TIMEOUT_S)
    if proc.returncode != 0:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    timed = json.loads(proc.stdout)
    return {name: {cell: median_cell(readings, timed["ref_s"]) for cell, readings in cells.items()}
            for name, cells in timed["table"].items()}


def nd_summary(by_seed: dict) -> dict:
    """Per optimizer and cell: quartiles of the cell's scaled median over the seeds that ran.

    Each cell also keeps the raw medians' quartiles and every seed's runs.
    """
    tables = [t for t in by_seed.values() if "error" not in t]
    out = {"run_errors": {str(s): t["error"] for s, t in by_seed.items() if "error" in t}}
    for name in (tables[0] if tables else {}):
        out[name] = {}
        for cell in tables[0][name]:
            readings = [t[name][cell] for t in tables]
            out[name][cell] = {**quartiles([r["us_per_fe"] for r in readings]),
                               "raw": quartiles([r["raw_us_per_fe"] for r in readings]),
                               "runs": [r["runs"] for r in readings]}
    return out


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
    nd = {label: {} for label in labels}
    tier1: dict = {}
    measured = {label: identity(root) for label, root in args.checkouts}
    envs: dict = {}

    def write():
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
            "nd_table": {
                "gated": False,
                "unit": "us per FE at perfbench's reference speed: wall over budget, "
                        "times CAL_REF_S over the mean of the kernel times taken right "
                        "before and after the run; median of the runs per cell and seed, "
                        "every run's scaled and raw value and kernel_s kept",
                "problem": "sphere",
                "budget": f"N + max(2 N, 4000), {ND_RUNS} runs per cell and seed "
                          "(the whole table over, then again)",
                "checkouts": {k: nd_summary(nd[k]) for k in labels},
            },
            "tier1": {
                "gated": False,
                "command": "PYTHONPATH=src python " + " ".join(TIER1),
                "runs": "two per checkout, before the first seed: in the order given, "
                        "then reversed (A B B A), after one untimed --collect-only per "
                        "checkout",
                "checkouts": {k: tier1.get(k, []) for k in labels},
            },
        }
        args.out.write_text(json.dumps(bench, indent=1) + "\n")

    for label, root in args.checkouts:
        warm_tier1(root)
    for label, root in tier1_order(args.checkouts):
        tier1.setdefault(label, []).append(time_tier1(root))
        print(f"{label} tier-1: {tier1[label][-1]}", flush=True)
        write()
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
                write()
        for label, root in order:
            nd[label][seed] = time_nd(root, seed)
            print(f"{label} nd_table seed {seed}: {nd[label][seed].get('error', 'ok')}",
                  flush=True)
            write()
    return 0


if __name__ == "__main__":
    sys.exit(main())
