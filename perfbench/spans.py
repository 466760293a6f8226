"""In-memory span recorder, self-time arithmetic and the trace points.

The traced pass adds no code to the package. It rebinds public names in
the modules that look them up at call time (for example
``battleopt.embgo.best_worst``), hands runners a pass-through random
stream proxy, and wraps ``Problem.evaluate`` on the problems it builds.
Every rebinding goes through :class:`Rebinder`, which restores the
original objects afterwards.

A span is (name, start, end, parent, run id). Spans are appended when
they open, so their index order is their start order on one thread.
A layer's self time is its span's duration minus the part of that
interval covered by its child spans.
"""

import dataclasses
import functools
import importlib
import math
import time
from array import array
from collections import defaultdict

# (consumer module, attribute, span name). Each attribute is a public
# package function that the consumer module resolves as a global at call
# time, so rebinding it there traces every call made through that module.
TRACE_POINTS = [
    *[(f"battleopt.{mod}", attr, f"core.{attr}")
      for mod in ("embgo", "mbgo", "baselines")
      for attr in ("best_worst", "clamp", "init_population")],
    *[(f"battleopt.{mod}", "population_diversity", "stats.population_diversity")
      for mod in ("embgo", "mbgo", "baselines")],
    ("battleopt.problems", "apply_transform", "problems.apply_transform"),
    ("battleopt.mbgo", "move_inside", "mbgo.move_inside"),
    ("battleopt.mbgo", "move_outside", "mbgo.move_outside"),
    *[(f"battleopt.{mod}", attr, f"mbgo.{attr}")
      for mod in ("mbgo", "embgo")
      for attr in ("battle_vs_stronger", "battle_vs_weaker", "pick_enemy")],
    *[(f"battleopt.{mod}", attr, "mbgo.safe_zone")
      for mod in ("mbgo", "embgo")
      for attr in ("safe_zone_radius", "in_safe_zone")],
    ("battleopt.embgo", "diff_mutation", "embgo.diff_mutation"),
    ("battleopt.embgo", "levy_move", "embgo.levy_move"),
    ("battleopt.embgo", "levy_sample", "levy.levy_sample"),
    ("battleopt.stats", "mann_whitney_u", "stats.mann_whitney_u"),
    ("battleopt.cli", "significance_marks", "stats.significance_marks"),
    ("battleopt.cli", "average_rank", "stats.average_rank"),
    ("battleopt.discrete", "decode", "discrete.decode"),
    ("battleopt.cli", "decode", "discrete.decode"),
    ("battleopt.discrete", "lookup_fitness", "discrete.lookup_fitness"),
    ("battleopt.cli", "load_table", "discrete.load_table"),
    ("battleopt.cli", "brute_force_optimum", "discrete.brute_force_optimum"),
    ("battleopt.cli", "run_embgo", "embgo.run"),
    ("battleopt.cli", "run_mbgo", "mbgo.run"),
    ("battleopt.cli", "run_de", "baselines.de"),
    ("battleopt.cli", "run_pso", "baselines.pso"),
    ("battleopt.cli", "run_random_search", "baselines.random"),
]

# Span names whose candidates go through greedy replacement; the
# replacement that follows one of them is counted as its acceptance.
OPERATOR_SPANS = frozenset({
    "mbgo.move_inside", "mbgo.move_outside", "mbgo.battle_vs_stronger",
    "mbgo.battle_vs_weaker", "embgo.diff_mutation", "embgo.levy_move",
})

GREEDY_CONSUMERS = ("battleopt.embgo", "battleopt.mbgo", "battleopt.baselines")
RNG_METHODS = ("random", "uniform", "normal", "integers", "choice")


class Tracer:
    """Spans and counters kept in flat arrays until the benchmark ends."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list = []
        self._ids: dict = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self._stack = [-1]
        self.run_id = -1
        self.counters = defaultdict(int)
        self.last_op = None

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def enter(self, nid: int) -> int:
        idx = len(self.start)
        self.start.append(self.clock())
        self.end.append(math.nan)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.run.append(self.run_id)
        self._stack.append(idx)
        return idx

    def exit(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self._stack.pop()

    def wrap(self, fn, name: str):
        """``fn`` with every call recorded as a span called ``name``."""
        nid = self.name_id(name)
        is_operator = name in OPERATOR_SPANS
        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(idx)
                if is_operator:
                    self.last_op = name

        return traced

    def wrap_greedy(self, fn):
        """Greedy replacement that credits acceptances to the last operator."""
        counters = self.counters

        @functools.wraps(fn)
        def counted(parent, offspring):
            kept = fn(parent, offspring)
            accepted = kept is offspring
            counters["core.greedy_replace.calls"] += 1
            counters["core.greedy_replace.accepted"] += accepted
            op, self.last_op = self.last_op, None
            if op is not None:
                counters[op + ".attempted"] += 1
                counters[op + ".accepted"] += accepted
            return kept

        return counted

    def problem(self, problem):
        """Copy of ``problem`` whose evaluations are spans and counted."""
        inner = problem.evaluate
        nid = self.name_id("problems.evaluate")
        counters = self.counters

        def evaluate(x):
            idx = self.enter(nid)
            try:
                f = inner(x)
            finally:
                self.exit(idx)
            if not math.isfinite(f):
                counters["problems.evaluate.nonfinite"] += 1
            return f

        return dataclasses.replace(problem, evaluate=evaluate)

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds."""
        own = self_times(self.start, self.end, self.parent)
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        for i, nid in enumerate(self.name):
            row = out[self.names[nid]]
            row["calls"] += 1
            row["s"] += self.end[i] - self.start[i]
            row["self_s"] += own[i]
        return out


def self_times(start, end, parent) -> list:
    """Each span's duration minus the union of its children's intervals.

    Children are clipped to the parent interval, and overlapping children
    count their common time once, so the result is never negative.
    """
    n = len(start)
    own = [end[i] - start[i] for i in range(n)]
    covered_to: dict = {}
    for i in sorted(range(n), key=start.__getitem__):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], start[p], covered_to.get(p, -math.inf))
        hi = min(end[i], end[p])
        if hi > lo:
            own[p] -= hi - lo
            covered_to[p] = hi
    return own


class RngProxy:
    """Pass-through ``Generator`` whose draws are recorded as spans.

    Every draw is forwarded unchanged to the wrapped generator, so the
    stream a runner sees is the stream of a bare generator.
    """

    def __init__(self, generator, tracer: Tracer):
        self._generator = generator
        for method in RNG_METHODS:
            setattr(self, method, tracer.wrap(getattr(generator, method), "core.rng"))

    def __getattr__(self, name):
        return getattr(self._generator, name)


class Rebinder:
    """Rebinds module attributes and mapping entries; restores them all."""

    def __init__(self):
        self._saved: list = []

    def setattr(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr), True))
        setattr(owner, attr, value)

    def setitem(self, mapping, key, value) -> None:
        self._saved.append((mapping, key, mapping[key], False))
        mapping[key] = value

    def restore(self) -> None:
        while self._saved:
            owner, key, original, is_attr = self._saved.pop()
            if is_attr:
                setattr(owner, key, original)
            else:
                owner[key] = original

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


def instrument(rebinder: Rebinder, tracer: Tracer) -> None:
    """Apply every trace point, the greedy counter and the CLI hooks."""
    for module_name, attr, span in TRACE_POINTS:
        module = importlib.import_module(module_name)
        rebinder.setattr(module, attr, tracer.wrap(getattr(module, attr), span))
    for module_name in GREEDY_CONSUMERS:
        module = importlib.import_module(module_name)
        rebinder.setattr(module, "greedy_replace", tracer.wrap_greedy(module.greedy_replace))

    stats = importlib.import_module("battleopt.stats")
    mann_whitney_u = stats.mann_whitney_u

    def counted_mann_whitney_u(a, b, *args, **kwargs):
        if len(a) * len(b) <= stats.EXACT_ENUMERATION_LIMIT:
            tracer.counters["stats.mann_whitney_u.exact_calls"] += 1
        return mann_whitney_u(a, b, *args, **kwargs)

    rebinder.setattr(stats, "mann_whitney_u", counted_mann_whitney_u)

    cli = importlib.import_module("battleopt.cli")
    resolve_problem, table_problem, trial_rng = (
        cli.resolve_problem, cli.table_problem, cli.trial_rng
    )
    rebinder.setattr(cli, "resolve_problem",
                     lambda spec, dim: tracer.problem(resolve_problem(spec, dim)))
    rebinder.setattr(cli, "table_problem",
                     lambda table: tracer.problem(table_problem(table)))
    rebinder.setattr(cli, "trial_rng",
                     lambda base, trial: RngProxy(trial_rng(base, trial), tracer))
