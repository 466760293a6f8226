#!/usr/bin/env python3
"""battleopt benchmark: one workload, one seed, for a fixed number of seconds.

    python3 perfbench/run.py --workload pop-scaling --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/``. Passes of the workload repeat, each after the
previous one finished, until the next pass would end after --seconds.

--trace 0 reports the end-to-end metrics from untraced passes:
setup_s (median of several fresh interpreters doing the workload's
set-up), fe_per_s (median over passes), us_per_fe.<optimizer> (median
over runs of runner wall / fes_used) and peak_rss_mb.

--trace 1 runs a fixed number of passes untraced, then the same passes
traced, and reports the per-layer metrics from the traced spans plus
the tracing overhead. Both passes must give identical output digests.

Every run is checked (see workloads.check_run); the last stdout line is
one JSON object with correct, attempted, failed and metrics. A full
record, and the spans of a traced run, go to perfbench-out/.
"""

import os

# Pin BLAS/OpenMP threads before numpy loads: one thread per process
# keeps the D=300 rotation reproducible and off the other core.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = ROOT / "perfbench-out"
GOLDEN = BENCH / "golden_digests.json"
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 60


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only do the workload's set-up and exit (timed by the parent)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_package():
    """Import battleopt from this checkout's src/, refusing any other copy."""
    src = ROOT / "src"
    if not (src / "battleopt" / "__init__.py").is_file():
        raise ImportError(f"no battleopt package under {src}")
    sys.path.insert(0, str(src))
    import battleopt

    if Path(battleopt.__file__).resolve().parent != (src / "battleopt").resolve():
        raise ImportError(f"imported battleopt from {battleopt.__file__}, not {src}")
    return battleopt


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the record is informational
        openblas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "loadavg": list(os.getloadavg()),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def time_setups(workload: str, seed: int, speed) -> list:
    """(wall, speed factor) of fresh interpreters that import the package
    and do the workload's set-up, one after the other."""
    samples = []
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--setup-probe"]
    for _ in range(SETUP_REPEATS):
        speed.before()
        start = time.perf_counter()
        subprocess.run(argv, check=True, timeout=SETUP_TIMEOUT_S,
                       stdout=subprocess.DEVNULL)
        wall = time.perf_counter() - start
        samples.append((wall, speed.unit_factor()))
    return samples


def run_passes(workloads, state, seconds: float, speed) -> list:
    """Untraced passes until the next one would end after ``seconds``."""
    run_pass = workloads.WORKLOADS[state.workload].run_pass
    passes = []
    t0 = time.perf_counter()
    for seed in state.pass_seeds:
        passes.append(run_pass(state, seed, None, speed))
        if time.perf_counter() - t0 + passes[-1].wall > seconds:
            break
    return passes


def golden_changes(workload: str, seed: int, passes: list) -> tuple:
    """(runs compared, runs differing) against the stored seed-commit digests."""
    stored = json.loads(GOLDEN.read_text()).get(workload, {}).get(str(seed), [])
    compared = changed = 0
    for old, outcome in zip(stored, passes):
        for old_digest, new_digest in zip(old.split(), outcome.digests):
            compared += 1
            changed += not new_digest.startswith(old_digest)
    return compared, changed


def median_metric(values, unit):
    return {"value": statistics.median(values), "unit": unit, "n": len(values)}


def end_to_end(workloads, passes, setups, scaled: bool) -> dict:
    """End-to-end metrics at reference speed, or from raw walls."""
    metrics = {"setup_s": median_metric(
        [wall * factor if scaled else wall for wall, factor in setups], "s")}
    metrics["fe_per_s"] = median_metric(
        [p.fes / (p.ref_wall if scaled else p.wall) for p in passes], "1/s")
    for label in workloads.OPTIMIZERS:
        per_fe = [run.wall * (run.factor if scaled else 1.0) / run.result.fes_used * 1e6
                  for p in passes for run in p.runs if run.label == label]
        metrics[f"us_per_fe.{label}"] = median_metric(per_fe or [float("nan")], "us")
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["peak_rss_mb"] = {"value": rss, "unit": "MB"}
    return metrics


def per_layer(tracer, traced: list, untraced: list) -> dict:
    """The per-layer metrics of BENCHMARK.json from the traced spans.

    Shares divide span times by the traced wall. The overhead compares
    the same passes traced and untraced at reference speed, since the
    host's speed changes between the two.
    """
    traced_wall = sum(p.wall for p in traced)
    traced_ref = sum(p.ref_wall for p in traced)
    untraced_ref = sum(p.ref_wall for p in untraced)
    spans = tracer.summary()
    counters = tracer.counters

    def row(name):
        return spans.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    for name in ("core.best_worst", "core.clamp", "core.rng", "problems.evaluate",
                 "levy.levy_sample", "stats.population_diversity",
                 "stats.mann_whitney_u", "discrete.decode"):
        put(f"{name}.calls", row(name)["calls"], "count")
        put(f"{name}.s", row(name)["self_s"], "s")
    for name in ("core.init_population", "problems.apply_transform",
                 "stats.significance_marks", "stats.average_rank",
                 "discrete.lookup_fitness", "discrete.load_table",
                 "discrete.brute_force_optimum", "discrete.synthetic_table",
                 "discrete.save_table"):
        put(f"{name}.s", row(name)["self_s"], "s")
    put("core.greedy_replace.calls", counters["core.greedy_replace.calls"], "count")
    put("core.greedy_replace.accept_ratio",
        ratio(counters["core.greedy_replace.accepted"],
              counters["core.greedy_replace.calls"]), "ratio")
    put("problems.evaluate.nonfinite", counters["problems.evaluate.nonfinite"], "count")
    put("stats.mann_whitney_u.exact_calls",
        counters["stats.mann_whitney_u.exact_calls"], "count")
    for op in ("mbgo.move_inside", "mbgo.move_outside", "mbgo.battle_vs_stronger",
               "mbgo.battle_vs_weaker", "embgo.diff_mutation", "embgo.levy_move"):
        put(f"{op}.calls", row(op)["calls"], "count")
        put(f"{op}.s", row(op)["self_s"], "s")
        put(f"{op}.accept_ratio",
            ratio(counters[op + ".accepted"], counters[op + ".attempted"]), "ratio")
    put("mbgo.safe_zone.s", row("mbgo.safe_zone")["self_s"], "s")
    put("mbgo.pick_enemy.s", row("mbgo.pick_enemy")["self_s"], "s")
    put("mbgo.run.self_s", row("mbgo.run")["self_s"], "s")
    put("embgo.run.self_s", row("embgo.run")["self_s"], "s")
    for name in ("de", "pso", "random"):
        put(f"baselines.{name}.self_s", row(f"baselines.{name}")["self_s"], "s")
    put("cli.main.s", row("cli.main")["s"] - row("perfbench.kernel")["s"], "s")
    put("cli.runner.s", row("cli.runner")["s"], "s")
    put("cli.self_s", row("cli.main")["self_s"], "s")
    put("cli.bytes_written", counters["cli.bytes_written"], "B")

    # Shares of the traced wall that later changes cite.
    stats_s = sum(row(n)["self_s"] for n in (
        "stats.mann_whitney_u", "stats.significance_marks", "stats.average_rank"))
    discrete_s = sum(row(n)["self_s"] for n in (
        "discrete.decode", "discrete.lookup_fitness", "discrete.load_table",
        "discrete.brute_force_optimum"))
    put("share.core.best_worst", ratio(row("core.best_worst")["self_s"], traced_wall), "ratio")
    put("share.problems.evaluate", ratio(row("problems.evaluate")["s"], traced_wall), "ratio")
    put("share.stats.compare", ratio(stats_s, traced_wall), "ratio")
    put("share.cli.self", ratio(row("cli.main")["self_s"], traced_wall), "ratio")
    put("share.discrete", ratio(discrete_s, traced_wall), "ratio")
    put("trace.overhead_s", traced_ref - untraced_ref, "s")
    put("trace.overhead_share", ratio(traced_ref - untraced_ref, untraced_ref), "ratio")
    put("trace.spans", len(tracer.start), "count")
    return m


def save_spans(tracer, path: Path) -> None:
    import numpy as np

    np.savez_compressed(
        path,
        names=np.array(tracer.names),
        name=np.frombuffer(tracer.name, dtype=np.int32),
        start=np.frombuffer(tracer.start, dtype=np.float64),
        end=np.frombuffer(tracer.end, dtype=np.float64),
        parent=np.frombuffer(tracer.parent, dtype=np.int32),
        run=np.frombuffer(tracer.run, dtype=np.int32),
    )


def report(record: dict) -> None:
    """Human-readable lines ahead of the JSON result."""
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"trace {record['trace']}  passes {record['passes']}")
    for name, metric in record["metrics"].items():
        extra = f"  (n={metric['n']})" if "n" in metric else ""
        print(f"  {name:36s} {metric['value']:.6g} {metric['unit']}{extra}")
    print(f"  failed_share {record['failed']}/{record['attempted']}"
          f" = {record['failed'] / record['attempted']:.3g}")
    print(f"  digest_changed {record['digest_changed']} of "
          f"{record['digest_compared']} outputs compared with {GOLDEN.name}")
    for failure in record["failures"][:10]:
        print(f"  FAILED {failure}")
    print(f"  env {json.dumps(record['env'])}")


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_package()
    except ImportError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = OUT / "work" / args.workload
    if args.setup_probe:
        workloads.setup(args.workload, args.seed, workdir)
        return 0

    env = environment()
    env["pinned_cpu"] = workloads.pin_fastest_cpu()
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "env": env}
    if args.trace == 0:
        speed = workloads.Speed()
        setups = time_setups(args.workload, args.seed, speed)
        state = workloads.setup(args.workload, args.seed, workdir)
        passes = run_passes(workloads, state, args.seconds, speed)
        metrics = end_to_end(workloads, passes, setups, scaled=True)
        record.update(kernel_s=speed.samples,
                      raw_wall_metrics=end_to_end(workloads, passes, setups, scaled=False))
        all_passes = passes
    else:
        tracer = spans.Tracer()
        workload = workloads.WORKLOADS[args.workload]
        count = max(1, round(args.seconds / 3 / workload.nominal_pass_s))
        state = workloads.setup(args.workload, args.seed, workdir, tracer)
        seeds = state.pass_seeds[:count]
        speed = workloads.Speed()
        passes = [workload.run_pass(state, seed, None, speed) for seed in seeds]
        with spans.Rebinder() as rebinder:
            spans.instrument(rebinder, tracer)
            traced = [workload.run_pass(state, seed, tracer, speed) for seed in seeds]
        metrics = per_layer(tracer, traced, passes)
        for i, (plain, with_spans) in enumerate(zip(passes, traced)):
            for j, (a, b) in enumerate(zip(plain.digests, with_spans.digests)):
                if a != b and "error" not in (a, b):
                    with_spans.failures.append(
                        f"pass {i} output {j}: traced digest differs from untraced")
        (OUT / "spans").mkdir(parents=True, exist_ok=True)
        save_spans(tracer, OUT / "spans" / f"{args.workload}-seed{args.seed}.npz")
        all_passes = passes + traced

    compared, changed = golden_changes(args.workload, args.seed, passes)
    failures = [f for p in all_passes for f in p.failures]
    record.update(
        passes=len(passes),
        attempted=sum(p.attempted for p in all_passes),
        failed=len(failures),
        failures=failures,
        metrics=metrics,
        digests=[p.digests for p in passes],
        digest_compared=compared,
        digest_changed=changed,
        runs=[[[r.label, r.wall, r.factor, r.result.fes_used] for r in p.runs]
              for p in passes],
        pass_walls=[[p.wall, p.ref_wall] for p in passes],
    )
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    result_path = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1))
    report(record)
    print(json.dumps({
        "correct": not failures,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
