"""The benchmark workloads: seeded set-up, one pass, and its checks.

A pass is one unit of closed-loop work: each optimizer run or CLI
invocation starts only after the previous one has finished. Every
workload runs all five optimizers, so every per-optimizer metric exists
on every workload. All inputs derive from the workload seed: the
``:srK`` transform seeds, the synthetic-table seed and one base seed per
pass.
"""

import contextlib
import gc
import hashlib
import io
import os
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import battleopt as bo
from battleopt import cli

from spans import Rebinder, RngProxy

OPTIMIZERS = ("embgo", "mbgo", "de", "pso", "random")
API_RUNNERS = {
    "embgo": (bo.run_embgo, "embgo.run"),
    "mbgo": (bo.run_mbgo, "mbgo.run"),
    "de": (bo.run_de, "baselines.de"),
    "pso": (bo.run_pso, "baselines.pso"),
    "random": (bo.run_random_search, "baselines.random"),
}
MAX_PASSES = 1000
clock = time.perf_counter

# The vCPUs of a shared host switch between a fast and a slow state
# (about 1.5x apart) that last from tens of milliseconds to seconds, so
# raw walls spread 20-30 % between runs. A fixed kernel that calls no
# package code is timed right before and right after every timed unit
# (optimizer run, CLI trial, set-up), and the unit's wall is scaled by
# CAL_REF_S over the mean of those two kernel times. End-to-end times are
# therefore reported at the speed at which the kernel takes CAL_REF_S;
# raw walls go to the run record next to them.
CAL_REF_S = 0.002
_CAL_MATRIX = np.linspace(-1.0, 1.0, 300 * 300).reshape(300, 300)
_CAL_VECTOR = np.linspace(0.0, 1.0, 300)
_CAL_LOW = np.zeros(10)
_CAL_HIGH = np.full(10, 50.0)
_CAL_VALUES = [float(j % 7) for j in range(40)]


def _kernel() -> float:
    """The workloads' mix: interpreter scans, small numpy calls, a little BLAS.

    The slow host state slows interpreter and small-array work about
    1.5x but a BLAS matvec only about 1.2x, so matvecs are a small share.
    """
    a = np.arange(10.0)
    s = 0.0
    for i in range(150):
        s += float(np.clip(a * 1.5 + i, _CAL_LOW, _CAL_HIGH).sum())
        values = [v * 0.5 for v in _CAL_VALUES]
        s += min(range(len(values)), key=values.__getitem__)
        if i % 25 == 0:
            s += float((_CAL_MATRIX @ _CAL_VECTOR)[0])
    return s


def kernel_time() -> float:
    """Wall time of one call of the fixed kernel."""
    start = clock()
    _kernel()
    return clock() - start


def pin_fastest_cpu():
    """Pin this process (and the set-ups it starts) to the CPU where the
    kernel runs fastest now; None where affinity cannot be set.

    The vCPUs of a shared host differ in speed, and a process that
    migrates between them mixes their speeds within one run.
    """
    try:
        cpus = sorted(os.sched_getaffinity(0))
        times = {}
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            times[cpu] = min(kernel_time() for _ in range(5))
        best = min(cpus, key=times.__getitem__)
        os.sched_setaffinity(0, {best})
    except (AttributeError, OSError):
        return None
    return best


class Speed:
    """Reference-speed factors from kernel times taken around each unit."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self.before()

    def _sample(self) -> float:
        elapsed = kernel_time()
        self.samples.append(elapsed)
        self.spent += elapsed
        return elapsed

    def before(self) -> None:
        """Time the kernel ahead of a unit that follows other work."""
        self.last = self._sample()

    def unit_factor(self) -> float:
        """Call right after a unit: its wall times this is at reference speed."""
        after = self._sample()
        factor = CAL_REF_S / ((self.last + after) / 2)
        self.last = after
        return factor


@dataclass
class Run:
    """One optimizer run: its label, result (or exception) and runner wall."""

    label: str
    result: object
    wall: float
    # The problem's name, not the problem: a table problem holds its
    # whole table, and runs are kept until the end of the benchmark.
    problem: str = ""
    factor: float = 1.0


@dataclass
class Pass:
    """Outcome of one pass: timings, output digests and check failures.

    ``wall`` sums the walls of its timed units, ``ref_wall`` the same at
    reference speed.
    """

    wall: float = 0.0
    ref_wall: float = 0.0
    fes: int = 0
    runs: list = field(default_factory=list)
    digests: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    attempted: int = 0


@dataclass
class State:
    """Everything set-up leaves for the passes."""

    workload: str
    workdir: Path
    pass_seeds: list
    problem: object = None
    specs: tuple = ()
    table_path: str = ""
    fresh: object = None


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check_run(result, fresh, budget: int) -> list:
    """Violations of the run contract; an empty list means the run is correct."""
    if isinstance(result, BaseException):
        return [f"raised {type(result).__name__}: {result}"]
    bad = []
    if result.fes_used != budget:
        bad.append(f"fes_used {result.fes_used} != budget {budget}")
    fes = [f for f, _ in result.trace]
    fits = [b for _, b in result.trace]
    if any(b <= a for a, b in zip(fes, fes[1:])):
        bad.append("trace evaluations are not increasing")
    if any(b > a for a, b in zip(fits, fits[1:])):
        bad.append("trace best fitness increases")
    if not fits or fits[-1] != result.final_fitness:
        bad.append("final trace point differs from final_fitness")
    if not fresh.bounds.contains(result.best.position):
        bad.append("best position outside the bounds")
    if fresh.evaluate(result.best.position) != result.final_fitness:
        bad.append("re-evaluating the best position does not give final_fitness")
    return bad


def finish(outcome: Pass, runs: list, fresh_for, budget: int) -> Pass:
    """Check and digest each run of a pass (outside its timed region)."""
    for run in runs:
        outcome.attempted += 1
        bad = check_run(run.result, fresh_for(run), budget)
        if bad:
            outcome.failures.append(f"{run.label}: " + "; ".join(bad))
            outcome.digests.append("error")
            continue
        outcome.fes += run.result.fes_used
        outcome.runs.append(run)
        outcome.digests.append(digest(run.result.serialize()))
    return outcome


# ---------------------------------------------------------------------------
# Public API workloads.
# ---------------------------------------------------------------------------


def api_pass(state: State, seed: int, tracer, speed: Speed,
             pop: int, budget: int) -> Pass:
    problem = tracer.problem(state.problem) if tracer else state.problem
    outcome = Pass()
    runs = []
    speed.before()
    for label in OPTIMIZERS:
        runner, span = API_RUNNERS[label]
        rng = bo.make_rng(seed)
        if tracer:
            tracer.run_id += 1
            runner = tracer.wrap(runner, span)
            rng = RngProxy(rng, tracer)
        config = bo.OptimizerConfig(pop_size=pop, budget=budget, seed=seed)
        start = clock()
        try:
            result = runner(problem, config, rng=rng)
        except Exception as exc:  # counted as a failed run
            result = exc
        run = Run(label, result, clock() - start, factor=speed.unit_factor())
        runs.append(run)
        outcome.wall += run.wall
        outcome.ref_wall += run.wall * run.factor
    fresh = bo.resolve_problem(*state.specs[0])
    return finish(outcome, runs, lambda run: fresh, budget)


def pop_scaling_setup(rnd, state: State, tracer) -> None:
    state.specs = (("sphere", 10),)
    state.problem = bo.resolve_problem(*state.specs[0])


def pop_scaling_pass(state, seed, tracer, speed):
    return api_pass(state, seed, tracer, speed, pop=3200, budget=6400)


def rotated_setup(rnd, state: State, tracer) -> None:
    state.specs = ((f"rastrigin:sr{rnd.randrange(1, 65536)}", 300),)
    state.problem = bo.resolve_problem(*state.specs[0])


def rotated_pass(state, seed, tracer, speed):
    return api_pass(state, seed, tracer, speed, pop=50, budget=3000)


# ---------------------------------------------------------------------------
# CLI workloads.
# ---------------------------------------------------------------------------


def invoke(argv: list, tracer, speed: Speed, outcome: Pass) -> tuple:
    """``cli.main(argv)`` as one timed unit, each trial timed through ``cli.ALGORITHMS``."""
    runs = []

    unit_factor = speed.unit_factor
    if tracer:
        # A span of its own keeps the kernel out of the CLI's self time.
        unit_factor = tracer.wrap(unit_factor, "perfbench.kernel")

    def recording(label, runner):
        if tracer:
            runner = tracer.wrap(runner, "cli.runner")

        def entry(problem, config, rng, params):
            start = clock()
            result = runner(problem, config, rng, params)
            wall = clock() - start
            runs.append(Run(label, result, wall, problem.name, unit_factor()))
            return result

        return entry

    with Rebinder() as rebinder:
        for label, runner in list(cli.ALGORITHMS.items()):
            rebinder.setitem(cli.ALGORITHMS, label, recording(label, runner))
        main = cli.main
        if tracer:
            tracer.run_id += 1
            main = tracer.wrap(main, "cli.main")
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            speed.before()
            spent, start = speed.spent, clock()
            code = main(argv)
            wall = clock() - start - (speed.spent - spent)
    # A user runs one invocation per process; collecting the cyclic garbage
    # an invocation leaves keeps it out of the next one's peak memory.
    gc.collect()
    # Time outside the trials (parsing, statistics, writing) is scaled by
    # the mean factor of the invocation's trials.
    trials = sum(run.wall for run in runs)
    mean_factor = sum(run.factor for run in runs) / len(runs) if runs else 1.0
    outcome.wall += wall
    outcome.ref_wall += (sum(run.wall * run.factor for run in runs)
                         + (wall - trials) * mean_factor)
    return code, runs, sink.getvalue()


def check_invocation(outcome: Pass, code: int, out: Path, expected: list,
                     output: str, tracer) -> None:
    """Exit status, expected files, report digest and bytes written."""
    outcome.attempted += 1
    missing = [name for name in expected if not (out / name).is_file()]
    if code != 0 or missing:
        detail = output.strip().splitlines()[-1:] or [""]
        outcome.failures.append(f"exit {code}, missing {missing}: {detail[0]}")
        outcome.digests.append("error")
    else:
        outcome.digests.append(digest((out / expected[0]).read_text(encoding="utf-8")))
    if tracer:
        tracer.counters["cli.bytes_written"] += sum(
            path.stat().st_size for path in out.iterdir())


def compare_setup(rnd, state: State, tracer) -> None:
    state.specs = (
        (f"sphere:sr{rnd.randrange(1, 65536)}", 10),
        (f"rastrigin:sr{rnd.randrange(1, 65536)}", 10),
        ("three-bar-truss", 10),
    )
    for spec in state.specs:
        bo.resolve_problem(*spec)


COMPARE_BUDGET = 500


def compare_pass(state: State, seed: int, tracer, speed: Speed) -> Pass:
    argv = ["compare"]
    for spec, _ in state.specs:
        argv += ["--problem", spec]
    for label in OPTIMIZERS:
        argv += ["--algorithm", label]
    out = Path(tempfile.mkdtemp(dir=state.workdir))
    argv += ["--dim", "10", "--pop", "50", "--budget", str(COMPARE_BUDGET),
             "--trials", "8", "--seed", str(seed), "--out", str(out)]
    outcome = Pass()
    code, runs, output = invoke(argv, tracer, speed, outcome)
    fresh = {spec: bo.resolve_problem(spec, dim) for spec, dim in state.specs}
    finish(outcome, runs, lambda run: fresh[run.problem], COMPARE_BUDGET)
    check_invocation(outcome, code, out, ["comparison.txt"], output, tracer)
    shutil.rmtree(out)
    return outcome


ARNAS_BUDGET = 5000


def arnas_setup(rnd, state: State, tracer) -> None:
    synthetic_table, save_table = bo.synthetic_table, bo.save_table
    if tracer:
        synthetic_table = tracer.wrap(synthetic_table, "discrete.synthetic_table")
        save_table = tracer.wrap(save_table, "discrete.save_table")
    table = synthetic_table(rnd.randrange(1, 2**31))
    # A relative path keeps the report header, and so its digest,
    # independent of where the checkout lives.
    state.table_path = os.path.relpath(state.workdir / "table.csv")
    save_table(table, state.table_path)
    state.fresh = bo.table_problem(table)


def arnas_pass(state: State, seed: int, tracer, speed: Speed) -> Pass:
    outs = [Path(tempfile.mkdtemp(dir=state.workdir)) for _ in OPTIMIZERS]
    outcome = Pass()
    invocations = []
    for label, out in zip(OPTIMIZERS, outs):
        argv = ["arnas", "--table", state.table_path, "--algorithm", label,
                "--pop", "50", "--budget", str(ARNAS_BUDGET), "--trials", "3",
                "--seed", str(seed), "--out", str(out)]
        invocations.append(invoke(argv, tracer, speed, outcome))
    for (code, runs, output), out in zip(invocations, outs):
        finish(outcome, runs, lambda run: state.fresh, ARNAS_BUDGET)
        check_invocation(outcome, code, out,
                         ["arnas_report.txt", "arnas_trace_trial000.csv"], output, tracer)
        shutil.rmtree(out)
    return outcome


@dataclass(frozen=True)
class Workload:
    """A workload's set-up and pass; why each exists is in BENCHMARK.json."""

    setup: object
    run_pass: object
    # Nominal pass length on a 2-vCPU host; fixes how many passes the
    # traced pass covers for a given --seconds, so its counts repeat.
    nominal_pass_s: float


WORKLOADS = {
    "pop-scaling": Workload(pop_scaling_setup, pop_scaling_pass, 2.0),
    "rotated-d300": Workload(rotated_setup, rotated_pass, 1.2),
    "compare-cli": Workload(compare_setup, compare_pass, 2.3),
    "arnas-table": Workload(arnas_setup, arnas_pass, 3.3),
}


def setup(name: str, seed: int, workdir: Path, tracer=None) -> State:
    """Build the workload's inputs from its seed; the set-up that setup_s times."""
    rnd = random.Random(f"{name}:{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    state = State(
        workload=name,
        workdir=workdir,
        pass_seeds=[rnd.randrange(1, 2**31) for _ in range(MAX_PASSES)],
    )
    WORKLOADS[name].setup(rnd, state, tracer)
    return state
