import itertools

import pytest

from battleopt import (
    DeParams,
    EmbgoParams,
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
from battleopt.discrete import LookupTable, save_table, synthetic_table


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


def test_compare_rejects_single_algorithm_and_unequal_budgets(tmp_path):
    assert run_cli(
        "compare", "--problem", "sphere", "--algorithm", "embgo",
        "--out", str(tmp_path),
    ) == 2
    assert run_cli(
        "compare", "--problem", "sphere",
        "--algorithm", "embgo", "--algorithm", "de",
        "--param", "de.budget=100", "--budget", "200",
        "--trials", "3", "--out", str(tmp_path),
    ) == 2


def test_arnas_reports_regret_and_defaults(tmp_path):
    table_path = tmp_path / "table.csv"
    entries = {
        code: 50.0 for code in itertools.product(range(5), repeat=6)
    }
    entries[(2, 2, 2, 2, 2, 2)] = 90.0
    save_table(LookupTable(entries=entries), table_path)
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


def test_arnas_rejects_incomplete_table(tmp_path):
    table_path = tmp_path / "partial.csv"
    table_path.write_text("code,accuracy\n000000,50.0\n")
    assert run_cli("arnas", "--table", str(table_path), "--out", str(tmp_path)) == 2


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
        ("mbgo", {"delta_high": 1.5, "beta": 1.1}, lambda p, c, r: run_mbgo(p, c, r, delta_high=1.5)),
        ("embgo", {}, lambda p, c, r: run_embgo(p, c, r)),
        (
            "embgo",
            {"independent_r": 0.0, "F": 0.1},
            lambda p, c, r: run_embgo(p, c, r, EmbgoParams(independent_r=False)),
        ),
        ("de", {"Cr": 0.3}, lambda p, c, r: run_de(p, c, DeParams(Cr=0.3), r)),
        ("pso", {"v_max": 4.0, "w": 0.7}, lambda p, c, r: run_pso(p, c, PsoParams(w=0.7, v_max=4.0), r)),
    ],
)
def test_params_default_to_the_library_defaults(algorithm, params, expected):
    # unset keys take the library's defaults; keys of other algorithms are ignored
    problem = resolve_problem("sphere", 3)
    config = OptimizerConfig(pop_size=6, budget=40, seed=2)
    got = cli.ALGORITHMS[algorithm](problem, config, make_rng(2), params)
    assert got.serialize() == expected(problem, config, make_rng(2)).serialize()
