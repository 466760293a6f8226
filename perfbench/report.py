#!/usr/bin/env python3
"""Run the benchmark over workloads and seeds and print every metric.

    python3 perfbench/report.py                      # every workload, seed 1
    python3 perfbench/report.py --seeds 1-10         # ten seeds: spread check
    python3 perfbench/report.py --trace 1            # per-layer metrics

Each (workload, seed) runs perfbench/run.py in its own process, one
after the other. With several seeds the table gives, per metric, the
median, the quartiles and the spread (q3 - q1) / median next to the
bound in BENCHMARK.json. --record-golden stores the output digests of
the untraced runs in perfbench/golden_digests.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN_TIMEOUT_S = 600


def seed_list(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        help="repeatable; default: every workload in BENCHMARK.json")
    parser.add_argument("--seeds", default="1", help="e.g. 1-10 or 3,7")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)

    names = args.workload or [w["name"] for w in spec["workloads"]]
    defined = {m["name"]: m for m in spec["per_layer" if args.trace else "end_to_end"]}
    seeds = seed_list(args.seeds)
    ok = True
    for name in names:
        values: dict = {}
        attempted = failed = compared = changed = 0
        for seed in seeds:
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=RUN_TIMEOUT_S)
            if proc.returncode != 0:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                ok = False
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            record = json.loads((ROOT / "perfbench-out" / "results" /
                                 f"{name}-seed{seed}-trace{args.trace}.json").read_text())
            ok &= result["correct"] and set(result["metrics"]) == set(defined)
            attempted += result["attempted"]
            failed += result["failed"]
            compared += record.get("digest_compared", 0)
            changed += record.get("digest_changed", 0)
            for metric, body in result["metrics"].items():
                values.setdefault(metric, []).append(body["value"])
            if args.record_golden and args.trace == 0:
                record_golden(name, seed, record["digests"])
        print(f"== {name}  seeds {args.seeds}  attempted {attempted}  failed {failed}"
              f"  failed_share {failed / max(attempted, 1):.3g}"
              f"  digest_changed {changed} of {compared}")
        print(f"  {'metric':36s} {'unit':6s} {'median':>12s} {'q1':>12s} {'q3':>12s}"
              f" {'spread':>7s} {'bound':>6s}")
        for metric, series in values.items():
            unit = defined.get(metric, {}).get("unit", "?")
            median = statistics.median(series)
            q1, _, q3 = (statistics.quantiles(series, n=4) if len(series) > 1
                         else (median, median, median))
            spread = (q3 - q1) / median if median else 0.0
            bound = defined.get(metric, {}).get("bound")
            flag = ""
            if bound is not None and metric != "setup_s" and len(series) > 1:
                flag = "  ok" if spread < bound / 3 else "  WIDE"
            bound_text = f"{bound:6.2f}" if bound is not None else "     -"
            print(f"  {metric:36s} {unit:6s} {median:12.6g} {q1:12.6g} {q3:12.6g}"
                  f" {spread:7.3f} {bound_text}{flag}")
    return 0 if ok else 1


def record_golden(workload: str, seed: int, digests: list) -> None:
    """Keep 8-hex prefixes of one run's per-pass digests as the reference."""
    path = BENCH / "golden_digests.json"
    golden = json.loads(path.read_text())
    stored = golden.setdefault(workload, {}).get(str(seed), [])
    fresh = [" ".join(d[:8] for d in pass_digests) for pass_digests in digests]
    if len(fresh) > len(stored):
        golden[workload][str(seed)] = fresh
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
