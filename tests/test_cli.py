import math
from dataclasses import fields

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from battleopt import (
    DeParams,
    EmbgoParams,
    MbgoParams,
    OptimizerConfig,
    PsoParams,
    make_rng,
    resolve_problem,
    run_de,
    run_embgo,
    run_mbgo,
    run_pso,
)
from battleopt import cli
from battleopt.cli import main
from battleopt.discrete import save_table, synthetic_table

from conftest import complete_table


def run_cli(*argv):
    return main(list(argv))


def test_run_writes_traces_and_summary(tmp_path):
    out = tmp_path / "out"
    code = run_cli(
        "run", "--problem", "sphere", "--algorithm", "embgo",
        "--dim", "4", "--pop", "10", "--budget", "300",
        "--trials", "3", "--seed", "1", "--out", str(out),
    )
    assert code == 0
    assert (out / "sphere_embgo_summary.csv").exists()
    traces = sorted(out.glob("sphere_embgo_trial*.csv"))
    assert len(traces) == 3
    text = traces[0].read_text()
    assert "# problem=sphere" in text and "# seed=1" in text
    assert text.splitlines()[-1].count(",") == 2


def test_run_summary_has_one_row_per_trial(tmp_path):
    out = tmp_path / "out"
    assert run_cli(
        "run", "--problem", "sphere", "--algorithm", "random",
        "--dim", "3", "--pop", "10", "--budget", "20",
        "--trials", "30", "--seed", "0", "--out", str(out),
    ) == 0
    rows = [
        line for line in (out / "sphere_random_summary.csv").read_text().splitlines()
        if line and not line.startswith("#") and not line.startswith("trial,")
    ]
    assert len(rows) == 30


def test_rerun_is_byte_identical(tmp_path):
    args = (
        "run", "--problem", "rastrigin", "--algorithm", "mbgo",
        "--dim", "3", "--pop", "8", "--budget", "200", "--trials", "2", "--seed", "9",
    )
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_cli(*args, "--out", str(out_a)) == 0
    assert run_cli(*args, "--out", str(out_b)) == 0
    for name in ("rastrigin_mbgo_summary.csv", "rastrigin_mbgo_trial000.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_trial_single_budget_equals_pop(tmp_path):
    out = tmp_path / "out"
    assert run_cli(
        "run", "--problem", "sphere", "--algorithm", "embgo",
        "--dim", "3", "--pop", "12", "--budget", "12",
        "--trials", "1", "--seed", "4", "--out", str(out),
    ) == 0
    trace = (out / "sphere_embgo_trial000.csv").read_text().splitlines()
    data = [line for line in trace if line and not line.startswith(("#", "fes,"))]
    assert len(data) == 1 and data[0].startswith("12,")


def test_unknown_algorithm_is_configuration_error(tmp_path):
    assert run_cli(
        "run", "--problem", "sphere", "--algorithm", "nope", "--out", str(tmp_path)
    ) == 2


def test_unknown_problem_is_configuration_error(tmp_path):
    assert run_cli(
        "run", "--problem", "not-a-problem", "--algorithm", "embgo",
        "--out", str(tmp_path),
    ) == 2


def test_malformed_transform_seed_is_configuration_error(tmp_path, capsys):
    assert run_cli(
        "run", "--problem", "sphere:srX", "--algorithm", "embgo",
        "--out", str(tmp_path),
    ) == 2
    assert "'sphere:srX'" in capsys.readouterr().err


def test_env_var_default_out(tmp_path, monkeypatch):
    monkeypatch.setenv("BATTLEOPT_OUT", str(tmp_path / "envout"))
    assert run_cli(
        "run", "--problem", "sphere", "--algorithm", "random",
        "--dim", "2", "--pop", "5", "--budget", "10", "--trials", "1", "--seed", "0",
    ) == 0
    assert (tmp_path / "envout" / "sphere_random_summary.csv").exists()


def test_compare_report_and_reference_marks(tmp_path):
    out = tmp_path / "cmp"
    code = run_cli(
        "compare", "--problem", "sphere", "--problem", "rastrigin",
        "--algorithm", "embgo", "--algorithm", "random", "--reference", "embgo",
        "--dim", "4", "--pop", "10", "--budget", "500",
        "--trials", "6", "--seed", "3", "--out", str(out),
    )
    assert code == 0
    report = (out / "comparison.txt").read_text()
    assert "avg rank" in report and "embgo (ref)" in report
    # marks row totals equal the problem count
    counts = report.splitlines()[-1].split(":")[1].strip()
    assert sum(int(c) for c in counts.split("/")) == 2


def test_compare_identical_algorithms_all_tilde(tmp_path):
    out = tmp_path / "cmp"
    code = run_cli(
        "compare", "--problem", "sphere",
        "--algorithm", "embgo", "--algorithm", "embgo",
        "--dim", "3", "--pop", "8", "--budget", "200",
        "--trials", "5", "--seed", "7", "--out", str(out),
    )
    assert code == 0
    report = (out / "comparison.txt").read_text()
    assert "# marks +/~/-: 0/1/0" in report
    # identical columns share the midrank
    rank_line = [l for l in report.splitlines() if l.startswith("avg rank")][0]
    assert rank_line.count("1.50") == 2


def test_compare_rejects_single_algorithm_and_a_per_algorithm_budget(tmp_path, capsys):
    assert run_cli(
        "compare", "--problem", "sphere", "--algorithm", "embgo",
        "--trials", "2", "--out", str(tmp_path),
    ) == 2
    assert "compare needs at least two --algorithm entries" in capsys.readouterr().err
    # --budget is the one budget, so every algorithm gets the same
    assert run_cli(
        "compare", "--problem", "sphere",
        "--algorithm", "embgo", "--algorithm", "de",
        "--param", "de.budget=100", "--budget", "200",
        "--trials", "3", "--out", str(tmp_path),
    ) == 2
    assert "unknown --param 'de.budget'; valid keys for de: Cr, F" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_compare_requires_trials_and_run_and_arnas_default_to_one(tmp_path, capsys):
    argv = ["compare", "--problem", "sphere", "--algorithm", "de", "--algorithm", "random",
            "--dim", "2", "--pop", "5", "--budget", "20", "--out", str(tmp_path / "compare")]
    with pytest.raises(SystemExit) as exc:  # argparse, before main's handler
        run_cli(*argv)
    assert exc.value.code == 2
    assert "the following arguments are required: --trials" in capsys.readouterr().err
    assert run_cli(*argv, "--trials", "1") == 2
    assert "--trials must be at least 2" in capsys.readouterr().err
    assert run_cli(*argv, "--trials", "2") == 0
    parser = cli.build_parser()
    for command, extra in (("run", ["--problem", "sphere", "--algorithm", "de"]),
                           ("arnas", ["--table", "table.csv"])):
        assert parser.parse_args([command, *extra]).trials == 1


@pytest.mark.parametrize("argv", [
    ["run", "--problem", "sphere", "--algorithm", "bogus", "--trials", "1"],
    ["compare", "--problem", "sphere", "--algorithm", "de", "--algorithm", "bogus", "--trials", "2"],
    ["arnas", "--table", "missing.csv", "--algorithm", "bogus"],
])
def test_unknown_algorithm_lists_the_known_names(argv, tmp_path, capsys):
    assert run_cli(*argv, "--out", str(tmp_path)) == 2
    assert "unknown algorithm 'bogus'; known: de, embgo, mbgo, pso, random" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_arnas_reports_regret_and_defaults(tmp_path):
    table_path = tmp_path / "table.csv"
    save_table(complete_table({(2, 2, 2, 2, 2, 2): 90.0}), table_path)
    out = tmp_path / "arnas"
    code = run_cli(
        "arnas", "--table", str(table_path), "--trials", "2", "--seed", "1",
        "--out", str(out),
    )
    assert code == 0
    report = (out / "arnas_report.txt").read_text()
    assert "# pop=50" in report and "# budget=5000" in report
    assert "# optimum_code=222222" in report
    for line in report.splitlines():
        if line and not line.startswith("#") and not line.startswith("trial,"):
            regret = float(line.rsplit(",", 1)[1])
            assert regret >= 0.0


def test_arnas_same_seed_same_code(tmp_path):
    table_path = tmp_path / "table.csv"
    save_table(synthetic_table(seed=3), table_path)
    outs = []
    for sub in ("x", "y"):
        out = tmp_path / sub
        assert run_cli(
            "arnas", "--table", str(table_path), "--trials", "1", "--seed", "2",
            "--pop", "20", "--budget", "400", "--out", str(out),
        ) == 0
        outs.append((out / "arnas_report.txt").read_bytes())
    assert outs[0] == outs[1]


def test_arnas_rejects_incomplete_table(tmp_path, capsys):
    table_path = tmp_path / "partial.csv"
    table_path.write_text("code,accuracy\n000000,50.0\n")
    out = tmp_path / "out"
    assert run_cli("arnas", "--table", str(table_path), "--out", str(out)) == 2
    assert capsys.readouterr().err == (
        f"configuration error: {table_path}: 15624 of 15625 codes missing, the first 000001\n")
    assert not out.exists()


def test_arnas_rejects_zero_trials_before_loading_table(tmp_path, capsys):
    table_path = tmp_path / "table.csv"
    save_table(synthetic_table(seed=3), table_path)
    assert run_cli("arnas", "--table", str(table_path), "--trials", "0", "--out", str(tmp_path)) == 2
    missing = tmp_path / "missing.csv"
    assert run_cli("arnas", "--table", str(missing), "--trials", "0", "--out", str(tmp_path)) == 2
    assert capsys.readouterr().err.count("--trials must be at least 1") == 2


def test_trials_are_order_independent(tmp_path):
    # trial k depends only on (config, base seed + k): running it alone
    # reproduces the batch row exactly
    from battleopt import OptimizerConfig, make_problem, run_embgo
    from battleopt.core import trial_rng

    problem = make_problem("sphere", 4)
    batch = [
        run_embgo(problem, OptimizerConfig(pop_size=8, budget=200, seed=5 + k), trial_rng(5, k))
        for k in range(4)
    ]
    for k in reversed(range(4)):
        alone = run_embgo(problem, OptimizerConfig(pop_size=8, budget=200, seed=5 + k))
        assert alone.serialize() == batch[k].serialize()


def test_compare_embgo_dominates_random_rank(tmp_path):
    out = tmp_path / "cmp"
    assert run_cli(
        "compare", "--problem", "sphere", "--problem", "rastrigin",
        "--problem", "griewank",
        "--algorithm", "embgo", "--algorithm", "random", "--reference", "embgo",
        "--dim", "4", "--pop", "10", "--budget", "600",
        "--trials", "10", "--seed", "0", "--out", str(out),
    ) == 0
    report = (out / "comparison.txt").read_text()
    rank_line = [l for l in report.splitlines() if l.startswith("avg rank")][0]
    assert rank_line.split()[2] == "1.00"


def test_param_parsing_errors(tmp_path):
    assert run_cli(
        "run", "--problem", "sphere", "--algorithm", "embgo",
        "--param", "beta", "--out", str(tmp_path),
    ) == 2
    assert run_cli(
        "run", "--problem", "sphere", "--algorithm", "embgo",
        "--param", "beta=abc", "--out", str(tmp_path),
    ) == 2


def test_unknown_transformed_problem_is_configuration_error(tmp_path, capsys):
    assert run_cli(
        "run", "--problem", "not-a-problem:sr", "--algorithm", "embgo",
        "--out", str(tmp_path),
    ) == 2
    assert "'not-a-problem:sr'" in capsys.readouterr().err


def test_internal_key_error_is_a_runtime_error(tmp_path, monkeypatch):
    def broken(problem, config, rng, params):
        raise KeyError("internal")

    monkeypatch.setitem(cli.ALGORITHMS, "random", broken)
    assert run_cli(
        "run", "--problem", "sphere", "--algorithm", "random",
        "--dim", "2", "--pop", "5", "--budget", "10", "--out", str(tmp_path),
    ) == 1


@pytest.mark.parametrize(
    "algorithm, params, expected",
    [
        ("mbgo", {}, lambda p, c, r: run_mbgo(p, c, r)),
        ("mbgo", {"delta_high": 1.5, "beta": 1.1}, lambda p, c, r: run_mbgo(p, c, r, params=MbgoParams(delta_high=1.5))),
        ("embgo", {}, lambda p, c, r: run_embgo(p, c, r)),
        (
            "embgo",
            {"independent_r": 0.0, "F": 0.1},
            lambda p, c, r: run_embgo(p, c, r, params=EmbgoParams(independent_r=False)),
        ),
        ("de", {"Cr": 0.3}, lambda p, c, r: run_de(p, c, r, params=DeParams(Cr=0.3))),
        ("pso", {"v_max": 4.0, "w": 0.7}, lambda p, c, r: run_pso(p, c, r, params=PsoParams(w=0.7, v_max=4.0))),
    ],
)
def test_params_default_to_the_library_defaults(algorithm, params, expected):
    # unset keys take the library's defaults; keys of other algorithms are ignored
    problem = resolve_problem("sphere", 3)
    config = OptimizerConfig(pop_size=6, budget=40, seed=2)
    got = cli.ALGORITHMS[algorithm](problem, config, make_rng(2), params)
    assert got.serialize() == expected(problem, config, make_rng(2)).serialize()


@pytest.mark.parametrize(
    "argv, named",
    [
        (["run", "--algorithm", "de", "--param", "de.f=0.1"], ["'de.f'", "Cr, F"]),
        (["run", "--algorithm", "random", "--param", "w=0.5"], ["'w'", "none"]),
        # --budget is the only budget of every command
        (["run", "--algorithm", "mbgo", "--param", "budget=7"], ["'budget'", "delta_high, delta_low"]),
        (["run", "--algorithm", "de", "--param", "de.budget=7"], ["'de.budget'", "Cr, F"]),
        (
            ["compare", "--algorithm", "de", "--algorithm", "random", "--param", "budget=60"],
            ["'budget'", "de, random", "Cr, F"],
        ),
        (
            ["compare", "--algorithm", "de", "--algorithm", "random", "--param", "de.budget=60"],
            ["'de.budget'", "valid keys for de: Cr, F"],
        ),
        (["run", "--algorithm", "mbgo", "--param", "mbgo.beta=1.2"], ["'mbgo.beta'", "delta_high, delta_low"]),
        (["run", "--algorithm", "de", "--param", "pso.w=0.5"], ["'pso'", "de"]),
        (
            ["compare", "--algorithm", "de", "--algorithm", "random", "--param", "w=0.5"],
            ["'w'", "de, random", "Cr, F"],
        ),
        (
            ["compare", "--algorithm", "embgo", "--algorithm", "pso", "--param", "embgo.v_max=3"],
            ["'embgo.v_max'", "beta"],
        ),
        # an empty scope is not the unscoped form
        (["run", "--algorithm", "de", "--param", ".F=0.5"], ["scope is empty", "'.F=0.5'"]),
        (["run", "--algorithm", "de", "--param", " .F=0.5"], ["scope is empty", "' .F=0.5'"]),
        (
            ["compare", "--algorithm", "de", "--algorithm", "pso", "--param", ".F=0.5"],
            ["scope is empty", "'.F=0.5'"],
        ),
    ],
)
def test_unknown_param_keys_are_configuration_errors(argv, named, tmp_path, capsys):
    code = run_cli(*argv, "--problem", "sphere", "--dim", "2", "--pop", "5",
                   "--budget", "20", "--trials", "2", "--out", str(tmp_path))
    assert code == 2
    err = capsys.readouterr().err
    assert all(text in err for text in named), err
    assert not list(tmp_path.iterdir())


def test_declared_param_keys_are_accepted(tmp_path):
    common = ["--problem", "sphere", "--dim", "2", "--pop", "5", "--trials", "2"]
    assert run_cli(
        "run", "--algorithm", "mbgo", "--param", "delta_low=0.5",
        *common, "--budget", "20", "--out", str(tmp_path / "run"),
    ) == 0
    # an unscoped key needs only one selected algorithm that declares it
    assert run_cli(
        "compare", "--algorithm", "de", "--algorithm", "pso", "--param", "w=0.5",
        "--param", "de.F=0.5",
        *common, "--budget", "20", "--out", str(tmp_path / "compare"),
    ) == 0


def test_arnas_rejects_unknown_param_before_loading_the_table(tmp_path, capsys):
    assert run_cli(
        "arnas", "--table", str(tmp_path / "missing.csv"), "--algorithm", "embgo",
        "--param", "embgo.F=0.5", "--out", str(tmp_path),
    ) == 2
    assert "'embgo.F'" in capsys.readouterr().err
    assert run_cli(
        "arnas", "--table", str(tmp_path / "missing.csv"), "--algorithm", "embgo",
        "--param", "budget=7", "--out", str(tmp_path),
    ) == 2
    assert "'budget'" in capsys.readouterr().err


SMALL = ["--dim", "2", "--pop", "5", "--budget", "20", "--trials", "2"]


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["run", "--problem", "sphere", "--algorithm", "de", "--param", "de.F=nan"],
         ["'de.F=nan'", "finite"]),
        (["run", "--problem", "sphere", "--algorithm", "pso", "--param", "pso.w=nan"],
         ["'pso.w=nan'", "finite"]),
        # ±inf reaches the params dataclass, and its message is the one shown
        (["run", "--problem", "sphere", "--algorithm", "de", "--param", "F=inf"],
         ["scaling factor F must be finite and non-negative"]),
        (["compare", "--problem", "sphere", "--algorithm", "de", "--algorithm", "pso",
          "--param", "w=-inf"],
         ["w must be finite"]),
        (["compare", "--problem", "sphere", "--algorithm", "de", "--algorithm", "pso",
          "--param", "budget=inf"],
         ["unknown --param 'budget'; valid keys for de, pso: Cr, F, c1, c2, v_max, w"]),
    ],
)
def test_non_finite_param_values_are_configuration_errors(argv, expected, tmp_path, capsys):
    assert run_cli(*argv, *SMALL, "--out", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert all(text in err for text in expected), err
    assert not list(tmp_path.iterdir())


def test_pso_v_max_inf_leaves_velocities_unclamped(tmp_path):
    out = tmp_path / "out"
    assert run_cli(
        "run", "--problem", "sphere", "--algorithm", "pso", "--param", "pso.v_max=inf",
        *SMALL, "--out", str(out),
    ) == 0
    lines = (out / "sphere_pso_trial000.csv").read_text().splitlines()
    rows = [line for line in lines if line and not line.startswith(("#", "fes,"))]

    def trace_rows(params):
        result = run_pso(resolve_problem("sphere", 2), OptimizerConfig(pop_size=5, budget=20),
                         make_rng(0), params=params)
        return [f"{fes},{fit!r},{pd!r}"
                for (fes, fit), (_, pd) in zip(result.trace, result.diversity_trace)]

    assert rows == trace_rows(PsoParams(v_max=math.inf))
    assert rows != trace_rows(PsoParams())


def test_arnas_rejects_non_finite_param_before_loading_the_table(tmp_path, capsys):
    assert run_cli(
        "arnas", "--table", str(tmp_path / "missing.csv"), "--algorithm", "embgo",
        "--param", "embgo.beta=NaN", "--out", str(tmp_path),
    ) == 2
    assert "'embgo.beta=NaN'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--problem", "sphere", "--algorithm", "random", *SMALL],
        ["compare", "--problem", "sphere", "--algorithm", "de", "--algorithm", "random", *SMALL],
        ["arnas", "--table", "missing.csv", "--trials", "1"],
    ],
)
def test_negative_seed_is_a_configuration_error(argv, tmp_path, capsys):
    assert run_cli(*argv, "--seed", "-5", "--out", str(tmp_path)) == 2
    assert "--seed must be non-negative" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("alpha", ["7", "1", "0", "-0.05", "nan"])
def test_compare_alpha_outside_the_unit_interval_is_rejected(alpha, tmp_path, capsys):
    assert run_cli(
        "compare", "--problem", "sphere", "--algorithm", "de", "--algorithm", "random",
        *SMALL, "--alpha", alpha, "--out", str(tmp_path),
    ) == 2
    assert "--alpha" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())



def count_trials(monkeypatch) -> list:
    """Record the algorithm of every trial the CLI starts."""
    started = []
    for name, runner in list(cli.ALGORITHMS.items()):
        def counted(problem, config, rng, params, _name=name, _runner=runner):
            started.append(_name)
            return _runner(problem, config, rng, params)

        monkeypatch.setitem(cli.ALGORITHMS, name, counted)
    return started


RUN = ["--problem", "sphere", "--dim", "2", "--budget", "20", "--trials", "2"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["run", "--algorithm", "de", "--pop", "3", *RUN],
         "de needs a population of at least 4, got 3"),
        (["run", "--algorithm", "pso", "--pop", "1", *RUN],
         "pso needs a population of at least 2, got 1"),
        (["run", "--algorithm", "random", "--pop", "0", *RUN],
         "random needs a population of at least 1, got 0"),
        (["compare", "--algorithm", "embgo", "--algorithm", "de", "--pop", "3", *RUN],
         "de needs a population of at least 4, got 3"),
        (["compare", "--algorithm", "random", "--algorithm", "mbgo", "--pop", "1", *RUN],
         "mbgo needs a population of at least 2, got 1"),
        (["arnas", "--table", "missing.csv", "--algorithm", "embgo", "--pop", "1"],
         "embgo needs a population of at least 2, got 1"),
    ],
)
def test_population_minimum_is_checked_before_any_trial(argv, message, tmp_path, capsys,
                                                         monkeypatch):
    started = count_trials(monkeypatch)
    assert run_cli(*argv, "--out", str(tmp_path)) == 2
    assert message in capsys.readouterr().err
    assert started == []
    assert not list(tmp_path.iterdir())


def test_population_minimum_is_accepted(tmp_path):
    assert run_cli(
        "compare", "--problem", "sphere", "--algorithm", "de", "--algorithm", "pso",
        "--algorithm", "random", "--dim", "2", "--pop", "4", "--budget", "20",
        "--trials", "2", "--out", str(tmp_path),
    ) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--problem", "sphere", "--algorithm", "mbgo",
         "--param", "mbgo.delta_low=1.2", "--param", "mbgo.delta_high=0.8"],
        ["run", "--problem", "sphere", "--algorithm", "mbgo", "--param", "mbgo.delta_low=-1"],
        ["compare", "--problem", "sphere", "--algorithm", "random", "--algorithm", "mbgo",
         "--param", "delta_low=1.2", "--param", "delta_high=0.8"],
        ["run", "--problem", "sphere", "--algorithm", "de", "--param", "de.F=-1"],
        ["compare", "--problem", "sphere", "--algorithm", "random", "--algorithm", "embgo",
         "--param", "embgo.beta=2.5"],
    ],
)
def test_bad_param_values_are_rejected_before_any_trial(argv, tmp_path, capsys, monkeypatch):
    started = count_trials(monkeypatch)
    assert run_cli(*argv, *SMALL, "--out", str(tmp_path)) == 2
    assert "configuration error" in capsys.readouterr().err
    assert started == []
    assert not list(tmp_path.iterdir())


def test_beta_whose_levy_scale_overflows_is_rejected_before_any_trial(tmp_path, capsys,
                                                                     monkeypatch):
    started = count_trials(monkeypatch)
    assert run_cli(
        "run", "--problem", "sphere", "--algorithm", "embgo", "--param", "embgo.beta=1e-300",
        *SMALL, "--out", str(tmp_path),
    ) == 2
    assert "beta=1e-300" in capsys.readouterr().err
    assert started == []
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("value", ["0.5", "2", "-1", "1e-9"])
def test_bool_param_takes_only_zero_or_one(value, tmp_path, capsys):
    assert run_cli(
        "run", "--problem", "sphere", "--algorithm", "embgo",
        "--param", f"embgo.independent_r={value}", *SMALL, "--out", str(tmp_path),
    ) == 2
    assert "independent_r takes 0 or 1" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("value, flag", [("1", True), ("0", False), ("1.0", True)])
def test_bool_param_zero_or_one_runs(value, flag, tmp_path):
    out = tmp_path / "out"
    assert run_cli(
        "run", "--problem", "sphere", "--algorithm", "embgo",
        "--param", f"embgo.independent_r={value}", *SMALL, "--out", str(out),
    ) == 0
    problem = resolve_problem("sphere", 2)
    config = OptimizerConfig(pop_size=5, budget=20, seed=0)
    expected = run_embgo(problem, config, make_rng(0), params=EmbgoParams(independent_r=flag))
    trace = (out / "sphere_embgo_trial000.csv").read_text().splitlines()
    assert f"# params=[('independent_r', {float(value)!r})]" in trace
    assert trace[-1].split(",")[1] == repr(expected.trace[-1][1])


def test_mbgo_param_keys_are_the_mbgo_params_fields():
    assert cli.PARAM_KEYS["mbgo"] == tuple(f.name for f in fields(MbgoParams))


@pytest.mark.parametrize(
    "argv, message",
    [
        (["compare", "--problem", "sphere", "--algorithm", "random", "--algorithm", "embgo",
          "--dim", "2", "--pop", "50", "--budget", "20", "--trials", "2"],
         "embgo needs a budget that covers its initial population of 50, got 20"),
        (["compare", "--problem", "sphere", "--algorithm", "random", "--algorithm", "de",
          "--dim", "2", "--pop", "5", "--budget", "4", "--trials", "2"],
         "de needs a budget that covers its initial population of 5, got 4"),
        (["run", "--problem", "sphere", "--algorithm", "random", "--budget", "0"],
         "budget must be positive, got 0"),
        (["run", "--problem", "sphere", "--algorithm", "pso", "--pop", "5", "--budget", "4"],
         "pso needs a budget that covers its initial population of 5, got 4"),
        (["arnas", "--table", "missing.csv", "--algorithm", "mbgo", "--budget", "10"],
         "mbgo needs a budget that covers its initial population of 50, got 10"),
    ],
)
def test_budget_is_checked_before_any_trial_and_any_output(argv, message, tmp_path, capsys,
                                                           monkeypatch):
    started = count_trials(monkeypatch)
    assert run_cli(*argv, "--out", str(tmp_path / "out")) == 2
    assert message in capsys.readouterr().err
    assert started == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv, dim",
    [
        (["run", "--problem", "three-bar-truss", "--algorithm", "de"], "-3"),
        (["run", "--problem", "three-bar-truss", "--algorithm", "embgo"], "0"),
        (["compare", "--problem", "three-bar-truss", "--algorithm", "de",
          "--algorithm", "random"], "0"),
        (["compare", "--problem", "sphere", "--problem", "three-bar-truss",
          "--algorithm", "de", "--algorithm", "random"], "-1"),
    ],
)
def test_a_dimension_below_one_is_rejected_for_every_problem(argv, dim, tmp_path, capsys,
                                                             monkeypatch):
    # the truss is 2-D whatever --dim says, but a --dim below 1 is still an error
    started = count_trials(monkeypatch)
    assert run_cli(*argv, "--dim", dim, "--pop", "5", "--budget", "20", "--trials", "2",
                   "--out", str(tmp_path / "out")) == 2
    assert f"dimension must be positive, got {dim}" in capsys.readouterr().err
    assert started == []
    assert not (tmp_path / "out").exists()


def test_the_truss_runs_with_any_positive_dimension(tmp_path):
    assert run_cli(
        "compare", "--problem", "three-bar-truss", "--algorithm", "de", "--algorithm", "random",
        "--dim", "10", "--pop", "5", "--budget", "20", "--trials", "2", "--out", str(tmp_path),
    ) == 0
    assert "# problems=three-bar-truss\n" in (tmp_path / "comparison.txt").read_text()


def test_random_search_runs_with_a_budget_below_the_population(tmp_path):
    assert run_cli(
        "run", "--problem", "sphere", "--algorithm", "random", "--dim", "2", "--pop", "50",
        "--budget", "3", "--out", str(tmp_path),
    ) == 0


@pytest.mark.parametrize(
    "problems", [("sphere", "sphere"), ("sphere:sr", "rastrigin", "sphere:sr{seed}")]
)
def test_compare_rejects_a_repeated_problem_before_any_trial(problems, tmp_path, capsys,
                                                             monkeypatch):
    resolved = resolve_problem("sphere:sr", 2).name
    seed = resolved.rpartition(":sr")[2]
    started = count_trials(monkeypatch)
    argv = [token for p in problems for token in ("--problem", p.format(seed=seed))]
    assert run_cli(
        "compare", *argv, "--algorithm", "de", "--algorithm", "random", *SMALL,
        "--out", str(tmp_path / "out"),
    ) == 2
    name = resolved if ":" in problems[0] else "sphere"
    assert f"problem {name!r} is given more than once" in capsys.readouterr().err
    assert started == []
    assert not (tmp_path / "out").exists()


def test_avg_rank_label_is_apart_from_its_values_for_short_problem_names(tmp_path):
    assert run_cli(
        "compare", "--problem", "sphere", "--algorithm", "de", "--algorithm", "random",
        *SMALL, "--out", str(tmp_path),
    ) == 0
    lines = (tmp_path / "comparison.txt").read_text().splitlines()
    header, row, rank = [line for line in lines if not line.startswith("#")]
    assert rank.startswith("avg rank  ")
    # the first rank starts in the column of the first mean
    assert rank.index(rank.split()[2]) == row.index(row.split()[1]) == header.index("de")


@pytest.mark.parametrize("name", ["missing.csv", "a-directory"])
def test_arnas_with_an_unreadable_table_is_a_configuration_error(name, tmp_path, capsys):
    (tmp_path / "a-directory").mkdir()
    path = tmp_path / name
    assert run_cli("arnas", "--table", str(path), "--out", str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and str(path) in err


def test_run_defaults_to_pop_50_and_budget_10000(tmp_path):
    assert run_cli(
        "run", "--problem", "sphere", "--algorithm", "random", "--dim", "2",
        "--out", str(tmp_path),
    ) == 0
    summary = (tmp_path / "sphere_random_summary.csv").read_text()
    assert "# pop=50\n" in summary and "# budget=10000\n" in summary
    rows = [line for line in summary.splitlines() if not line.startswith("#")]
    assert rows[1].endswith(",10000")  # fes_used of the one trial


def _flags(required=(), **choices):
    """Each flag in ``required`` once, any other at most once, values from ``choices``."""
    def pair(flag):
        return st.sampled_from(choices[flag]).map(lambda value: [f"--{flag}", value])

    optional = st.lists(
        st.sampled_from(sorted(set(choices) - set(required))).flatmap(pair),
        max_size=len(choices) - len(required),
        unique_by=lambda tokens: tokens[0],
    )
    return st.tuples(*map(pair, required), optional.map(lambda ps: sum(ps, []))).map(
        lambda ps: sum(ps, [])
    )


PARAM_ENTRIES = st.lists(
    st.sampled_from([
        "F=0.5", "de.Cr=0.2", "pso.v_max=1", "embgo.beta=1.2", "budget=20",
        "budget=12.5", "x=1", "de.F=-1", "embgo.beta=1e-300", "independent_r=0.5",
        "delta_low=inf", "F",
    ]),
    max_size=1,
).map(lambda entries: [token for e in entries for token in ("--param", e)])
# --pop and --budget are always drawn, so that no run reaches the large defaults
SIZES = dict(pop=["0", "1", "3", "5", "5", "x"], budget=["0", "5", "20", "30", "30"],
             trials=["0", "1", "2", "2", "3"], seed=["0", "1", "-1"])
PROBLEMS = ["sphere", "rastrigin:sr", "three-bar-truss", "nosuch", "sphere:srx"]
ALGORITHM_NAMES = ["embgo", "mbgo", "de", "pso", "random", "bogus"]
TABLES = ["complete.csv", "partial.csv", "garbage.csv", "missing.csv", "a-directory"]


def _argv_grammar():
    algorithm = st.sampled_from(ALGORITHM_NAMES)
    sizes = ("pop", "budget")
    run = st.tuples(
        st.just(["run", "--problem"]), st.sampled_from(PROBLEMS).map(lambda p: [p]),
        algorithm.map(lambda a: ["--algorithm", a]),
        _flags(sizes, dim=["0", "1", "2", "3"], **SIZES), PARAM_ENTRIES,
    )
    compare = st.tuples(
        st.just(["compare"]),
        st.lists(st.sampled_from(PROBLEMS), min_size=1, max_size=2).map(
            lambda ps: [token for p in ps for token in ("--problem", p)]),
        st.lists(algorithm, min_size=1, max_size=3).map(
            lambda algs: [token for a in algs for token in ("--algorithm", a)]),
        _flags(sizes, dim=["2", "3"], alpha=["0.05", "1", "nan"], reference=["de", "bogus"],
               **SIZES),
        PARAM_ENTRIES,
    )
    arnas = st.tuples(
        st.just(["arnas", "--table"]), st.sampled_from(TABLES).map(lambda t: [t]),
        _flags(sizes, algorithm=ALGORITHM_NAMES, **SIZES), PARAM_ENTRIES,
    )
    return st.one_of(run, compare, arnas).map(lambda parts: sum(parts, []))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_argv_grammar())
def test_cli_exit_is_0_1_or_2_and_nothing_escapes(argv, tmp_path):
    tables = tmp_path / "tables"
    if not tables.exists():
        tables.mkdir()
        (tables / "a-directory").mkdir()
        save_table(synthetic_table(seed=3), tables / "complete.csv")
        (tables / "partial.csv").write_text("code,accuracy\n000000,50.0\n")
        (tables / "garbage.csv").write_bytes(b"\xff\xfe\x00code")
    argv = [str(tables / a) if a in TABLES else a for a in argv]
    try:
        code = main([*argv, "--out", str(tmp_path / "out")])
    except SystemExit as exc:  # argparse rejects the argv before main's handler
        code = exc.code
    assert code in (0, 1, 2)
