"""Seeded experiment runner.

Three subcommands: ``run`` executes one algorithm on one problem over a
number of trials and writes per-trial traces plus a summary; ``compare``
runs several algorithms under equal budgets and emits the mean/std table
with significance marks and average ranks; ``arnas`` searches a lookup
table over the discrete cell space and reports the regret against the
brute-force optimum.

Trial k uses seed (base seed + k), so any trial can be reproduced in
isolation and reruns are byte-identical. Every output file embeds the
resolved configuration. Exit status: 0 on success, 2 on configuration
errors, 1 on runtime errors. The default output directory comes from
``BATTLEOPT_OUT`` (falling back to ./battleopt-out) unless --out is given.
"""

import argparse
import math
import os
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .baselines import DeParams, PsoParams, run_de, run_pso, run_random_search
from .core import (
    ConfigurationError,
    OptimizerConfig,
    RunResult,
    check_budget,
    check_pop_size,
    trial_rng,
)
from .discrete import (
    TableError,
    brute_force_optimum,
    code_to_string,
    decode,
    load_table,
    table_problem,
)
from .embgo import EmbgoParams, run_embgo
from .mbgo import MbgoParams, run_mbgo
from .problems import resolve_problem
from .stats import ComparisonMatrix, average_rank, significance_marks

__all__ = ["main", "ALGORITHMS"]

ENV_OUT_DIR = "BATTLEOPT_OUT"
_FALLBACK_OUT = "battleopt-out"


# Each algorithm's params dataclass. Its fields are the --param keys the
# algorithm declares, and its defaults are the only defaults.
PARAMS = {
    "mbgo": MbgoParams,
    "embgo": EmbgoParams,
    "de": DeParams,
    "pso": PsoParams,
    "random": None,
}
PARAM_KEYS = {
    name: tuple(f.name for f in fields(spec)) if spec else () for name, spec in PARAMS.items()
}


def _build_params(algorithm: str, params: dict):
    """``algorithm``'s params dataclass built from the keys of ``params`` it declares.

    Values are converted to the field types; a bool field takes only 0 or 1.
    Keys the user did not set are left out, so their defaults come from
    the dataclass alone; other keys are ignored.
    """
    spec = PARAMS[algorithm]
    if spec is None:
        return None
    given = {}
    for f in fields(spec):
        if f.name not in params:
            continue
        value = params[f.name]
        if f.type is bool and value not in (0.0, 1.0):
            raise ConfigurationError(f"--param {f.name} takes 0 or 1, got {value!r}")
        given[f.name] = f.type(value)
    return spec(**given)


# Each entry takes (problem, config, rng, params), params being the raw
# --param floats, and looks its run_* name up at call time, so that a name
# rebound on this module (perfbench/spans.py does so) is the one called.
ALGORITHMS = {
    "mbgo": lambda problem, config, rng, params: run_mbgo(
        problem, config, rng, params=_build_params("mbgo", params)
    ),
    "embgo": lambda problem, config, rng, params: run_embgo(
        problem, config, rng, params=_build_params("embgo", params)
    ),
    "de": lambda problem, config, rng, params: run_de(
        problem, config, rng, params=_build_params("de", params)
    ),
    "pso": lambda problem, config, rng, params: run_pso(
        problem, config, rng, params=_build_params("pso", params)
    ),
    "random": lambda problem, config, rng, params: run_random_search(problem, config, rng),
}


def _parse_params(raw: list) -> dict:
    """--param entries: 'key=value' global or 'algorithm.key=value' scoped."""
    out: dict = {"": {}}
    for item in raw or []:
        if "=" not in item:
            raise ConfigurationError(f"--param expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        key = key.strip()
        try:
            number = float(value)
        except ValueError:
            raise ConfigurationError(f"--param value must be numeric, got {item!r}")
        if math.isnan(number):  # ±inf goes on to the params dataclass, which judges it
            raise ConfigurationError(f"--param value must be finite or ±inf, got {item!r}")
        if "." in key:
            scope, _, name = key.partition(".")
            if not scope.strip():
                raise ConfigurationError(f"--param scope is empty, got {item!r}")
            out.setdefault(scope.strip(), {})[name.strip()] = number
        else:
            out[""][key] = number
    return out


def _check_params(parsed: dict, selected: list) -> None:
    """Reject --param keys that would be ignored.

    A scoped key must name a selected algorithm and one of its declared
    keys; an unscoped key must be declared by at least one selected
    algorithm.
    """
    for scope, values in parsed.items():
        if scope and scope not in selected:
            raise ConfigurationError(
                f"--param scope {scope!r} is not a selected algorithm; "
                f"selected: {', '.join(selected)}"
            )
        owners = [scope] if scope else selected
        declared = sorted({key for name in owners for key in PARAM_KEYS[name]})
        for key in values:
            if key not in declared:
                name = f"{scope}.{key}" if scope else key
                raise ConfigurationError(
                    f"unknown --param {name!r}; valid keys for {', '.join(owners)}: "
                    f"{', '.join(declared) or 'none'}"
                )


def _select(args, selected: list, min_trials: int) -> dict:
    """Check every argument a trial reads; return each selected algorithm's --param dict.

    Checks --trials, the algorithm names and the --param keys, then, for
    each selected algorithm, the population size, the budget and its
    params. Called before the first trial and before the output directory
    is made, so that no trial runs and no directory appears for a
    configuration that a later trial would reject.
    """
    if args.trials < min_trials:
        raise ConfigurationError(f"--trials must be at least {min_trials}")
    for name in selected:
        if name not in ALGORITHMS:
            raise ConfigurationError(
                f"unknown algorithm {name!r}; known: {', '.join(sorted(ALGORITHMS))}"
            )
    parsed = _parse_params(args.param)
    _check_params(parsed, selected)
    params = {}
    for name in selected:
        params[name] = {**parsed.get("", {}), **parsed.get(name, {})}
        check_pop_size(name, args.pop)
        check_budget(name, args.pop, args.budget)
        _build_params(name, params[name])
    return params


def _resolve_out(args) -> Path:
    out = args.out or os.environ.get(ENV_OUT_DIR) or _FALLBACK_OUT
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _slug(name: str) -> str:
    return name.replace(":", "-").replace("[", "-").replace("]", "")


def _config_header(pairs: dict) -> str:
    return "".join(f"# {key}={value}\n" for key, value in pairs.items())


def _execute_trials(problem, algorithm, params, pop, budget, trials, seed):
    runner = ALGORITHMS[algorithm]
    results = []
    for k in range(trials):
        config = OptimizerConfig(pop_size=pop, budget=budget, seed=seed + k)
        results.append(runner(problem, config, trial_rng(seed, k), params))
    return results


def _write_trace(path: Path, header: str, result: RunResult) -> None:
    diversity = dict(enumerate(pd for _, pd in result.diversity_trace))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(header)
        handle.write("fes,best_fitness,diversity\n")
        for idx, (fes, fit) in enumerate(result.trace):
            pd = diversity.get(idx)
            pd_text = repr(pd) if pd is not None else "nan"
            handle.write(f"{fes},{fit!r},{pd_text}\n")


def _summary_rows(results) -> tuple:
    finals = np.array([r.final_fitness for r in results])
    return finals, {
        "mean": repr(float(finals.mean())),
        "std": repr(float(finals.std())),
        "best": repr(float(finals.min())),
        "worst": repr(float(finals.max())),
    }


def cmd_run(args) -> int:
    params = _select(args, [args.algorithm], 1)[args.algorithm]
    problem = resolve_problem(args.problem, args.dim)
    out = _resolve_out(args)
    header_pairs = {
        "problem": problem.name,
        "dim": problem.dim,
        "algorithm": args.algorithm,
        "pop": args.pop,
        "budget": args.budget,
        "trials": args.trials,
        "seed": args.seed,
        "params": repr(sorted(params.items())),
    }
    header = _config_header(header_pairs)

    results = _execute_trials(
        problem, args.algorithm, params, args.pop, args.budget, args.trials, args.seed
    )
    stem = f"{_slug(problem.name)}_{args.algorithm}"
    for k, result in enumerate(results):
        _write_trace(out / f"{stem}_trial{k:03d}.csv", header, result)

    finals, stats_row = _summary_rows(results)
    summary_path = out / f"{stem}_summary.csv"
    with open(summary_path, "w", encoding="utf-8") as handle:
        handle.write(header)
        handle.write("trial,seed,final_fitness,fes_used\n")
        for k, result in enumerate(results):
            handle.write(f"{k},{result.seed},{result.final_fitness!r},{result.fes_used}\n")
        for key, value in stats_row.items():
            handle.write(f"# {key}={value}\n")
    print(f"wrote {summary_path} ({args.trials} trials)")
    for key, value in stats_row.items():
        print(f"  {key} = {value}")
    return 0


def cmd_compare(args) -> int:
    entries = list(args.algorithm)
    if len(entries) < 2:
        raise ConfigurationError("compare needs at least two --algorithm entries")
    selected = list(dict.fromkeys(entries))
    params = _select(args, selected, 2)
    # duplicate entries get distinct column labels (embgo, embgo#2, ...)
    labels, base_of, counts = [], {}, {}
    for name in entries:
        counts[name] = counts.get(name, 0) + 1
        label = name if counts[name] == 1 else f"{name}#{counts[name]}"
        labels.append(label)
        base_of[label] = name
    reference = args.reference or labels[0]
    if reference not in labels:
        raise ConfigurationError(f"--reference {reference!r} is not among the algorithms")
    if not 0.0 < args.alpha < 1.0:
        raise ConfigurationError(f"--alpha must lie strictly between 0 and 1, got {args.alpha!r}")
    problems = [resolve_problem(name, args.dim) for name in args.problem]
    names = [p.name for p in problems]
    for k, name in enumerate(names):
        if name in names[:k]:
            raise ConfigurationError(f"problem {name!r} is given more than once")
    samples = {}
    for problem in problems:
        for label in labels:
            name = base_of[label]
            results = _execute_trials(
                problem, name, params[name], args.pop, args.budget, args.trials, args.seed
            )
            samples[(problem.name, label)] = [r.final_fitness for r in results]
    matrix = ComparisonMatrix(
        problems=names, algorithms=labels, samples=samples
    )
    marks = significance_marks(matrix, reference, alpha=args.alpha)
    ranks = average_rank(matrix)

    out = _resolve_out(args)
    report_path = out / "comparison.txt"
    with open(report_path, "w", encoding="utf-8") as handle:
        handle.write(
            _config_header(
                {
                    "problems": ",".join(names),
                    "algorithms": ",".join(labels),
                    "reference": reference,
                    "dim": args.dim,
                    "pop": args.pop,
                    "budget": args.budget,
                    "trials": args.trials,
                    "seed": args.seed,
                    "alpha": args.alpha,
                }
            )
        )
        width = max(len("avg rank"), *map(len, names)) + 2
        col = 26
        handle.write("problem".ljust(width))
        for alg in labels:
            label = alg + (" (ref)" if alg == reference else "")
            handle.write(label.ljust(col))
        handle.write("\n")
        for problem in problems:
            handle.write(problem.name.ljust(width))
            for alg in labels:
                mean = matrix.mean(problem.name, alg)
                std = matrix.std(problem.name, alg)
                mark = marks.get((problem.name, alg), " ")
                handle.write(f"{mean:.4e} ({std:.2e}) {mark}".ljust(col))
            handle.write("\n")
        handle.write("avg rank".ljust(width))
        for alg in labels:
            handle.write(f"{ranks[alg]:.2f}".ljust(col))
        handle.write("\n")
        counts = {
            mark: sum(1 for v in marks.values() if v == mark) for mark in "+~-"
        }
        handle.write(f"# marks +/~/-: {counts['+']}/{counts['~']}/{counts['-']}\n")
    print(report_path.read_text(), end="")
    print(f"wrote {report_path}")
    return 0


def cmd_arnas(args) -> int:
    params = _select(args, [args.algorithm], 1)[args.algorithm]
    table = load_table(args.table)
    if not table.complete:
        raise ConfigurationError(f"table {args.table} is incomplete; arnas needs all codes")
    problem = table_problem(table)
    opt_code, opt_acc = brute_force_optimum(table)

    results = _execute_trials(
        problem, args.algorithm, params, args.pop, args.budget, args.trials, args.seed
    )
    out = _resolve_out(args)
    header = _config_header(
        {
            "table": args.table,
            "problem": problem.name,
            "algorithm": args.algorithm,
            "pop": args.pop,
            "budget": args.budget,
            "trials": args.trials,
            "seed": args.seed,
            "optimum_code": code_to_string(opt_code),
            "optimum_accuracy": repr(opt_acc),
        }
    )
    report_path = out / "arnas_report.txt"
    with open(report_path, "w", encoding="utf-8") as handle:
        handle.write(header)
        handle.write("trial,seed,code,accuracy,regret\n")
        for k, result in enumerate(results):
            code = decode(result.best.position)
            acc = -result.final_fitness
            handle.write(
                f"{k},{result.seed},{code_to_string(code)},{acc!r},{opt_acc - acc!r}\n"
            )
        _write_trace(out / "arnas_trace_trial000.csv", header, results[0])
    print(report_path.read_text(), end="")
    print(f"wrote {report_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="battleopt",
        description="Seeded metaheuristic experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, **trials):
        p.add_argument("--pop", type=int, help="population size (default %(default)s)")
        p.add_argument("--budget", type=int, help="evaluation budget (default %(default)s)")
        p.add_argument("--trials", type=int, help="number of seeded trials", **trials)
        p.add_argument("--seed", type=int, default=0, help="base seed; trial k uses seed+k")
        p.add_argument("--out", default=None, help=f"output directory (default ${ENV_OUT_DIR})")
        p.add_argument(
            "--param",
            action="append",
            metavar="KEY=VALUE",
            help="algorithm parameter override, optionally scoped as alg.key=value",
        )

    run_p = sub.add_parser("run", help="run one algorithm on one problem")
    run_p.add_argument("--problem", required=True, help="problem name, e.g. sphere or rastrigin:sr7")
    run_p.add_argument("--algorithm", required=True, help=f"one of {', '.join(sorted(ALGORITHMS))}")
    run_p.add_argument("--dim", type=int, default=10)
    common(run_p, default=1)
    run_p.set_defaults(func=cmd_run, pop=50, budget=10000)

    cmp_p = sub.add_parser("compare", help="compare algorithms under equal budgets")
    cmp_p.add_argument("--problem", action="append", required=True, help="repeatable problem name")
    cmp_p.add_argument("--algorithm", action="append", required=True, help="repeatable algorithm name")
    cmp_p.add_argument("--reference", default=None, help="reference algorithm for the marks")
    cmp_p.add_argument("--dim", type=int, default=10)
    cmp_p.add_argument("--alpha", type=float, default=0.05)
    common(cmp_p, required=True)
    cmp_p.set_defaults(func=cmd_compare, pop=50, budget=10000)

    arnas_p = sub.add_parser("arnas", help="discrete cell search over a lookup table")
    arnas_p.add_argument("--table", required=True, help="path to a code,accuracy table file")
    arnas_p.add_argument("--algorithm", default="embgo")
    common(arnas_p, default=1)
    arnas_p.set_defaults(func=cmd_arnas, pop=50, budget=5000)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.seed < 0:
            raise ConfigurationError(f"--seed must be non-negative, got {args.seed}")
        return args.func(args)
    except (ConfigurationError, TableError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
