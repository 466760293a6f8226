"""Seeded output of every optimizer, pinned by SHA-256 digests.

Each (variant, problem) digest covers ``RunResult.serialize()`` over a
grid of population sizes, budgets (several end mid-iteration) and seeds.
A second grid, the D axis, runs the five optimizers with their default
parameters on all ten benchmarks at D = 1, 2 and 30 and on the rotated
rastrigin at D = 300. A third covers the ``comparison.txt`` that a
seeded ``battleopt compare`` writes, so the significance marks and ranks
are pinned too. A refactor that keeps the behaviour keeps every digest.
A deliberate change to seeded output re-records them with

    PYTHONPATH=src python tests/test_golden.py

and names the change and its reason in CHANGES.md.
"""

import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from battleopt import (
    BENCHMARK_NAMES,
    DeParams,
    EmbgoParams,
    OptimizerConfig,
    PsoParams,
    resolve_problem,
    run_de,
    run_embgo,
    run_mbgo,
    run_pso,
    run_random_search,
    synthetic_table,
    table_problem,
)
from battleopt.cli import main

DIGESTS = Path(__file__).with_name("golden_digests.json")

PROBLEMS = {
    "sphere": lambda: resolve_problem("sphere", 5),
    "rastrigin:sr": lambda: resolve_problem("rastrigin:sr", 5),
    "three-bar-truss": lambda: resolve_problem("three-bar-truss", 2),
    "arnas": lambda: table_problem(synthetic_table(3)),
}

VARIANTS = {
    "mbgo": lambda p, c: run_mbgo(p, c),
    "mbgo-movement-only": lambda p, c: run_mbgo(p, c, battle_phase=False),
    "mbgo-battle-only": lambda p, c: run_mbgo(p, c, movement_phase=False),
    "mbgo-delta": lambda p, c: run_mbgo(p, c, delta_low=0.5, delta_high=1.5),
    "embgo": lambda p, c: run_embgo(p, c),
    "embgo-shared-r": lambda p, c: run_embgo(p, c, params=EmbgoParams(independent_r=False)),
    "embgo-params": lambda p, c: run_embgo(
        p, c, params=EmbgoParams(delta_low=0.6, delta_high=1.4, beta=1.2)
    ),
    "de": lambda p, c: run_de(p, c),
    "de-params": lambda p, c: run_de(p, c, DeParams(F=0.5, Cr=0.3)),
    "pso": lambda p, c: run_pso(p, c),
    "pso-params": lambda p, c: run_pso(p, c, PsoParams(w=0.7, c1=1.5, c2=1.5, v_max=5.0)),
    "random": lambda p, c: run_random_search(p, c),
}

# (pop_size, budget) pairs; DE needs at least four members.
GRID = [(2, 41), (4, 64), (7, 150), (7, 157), (30, 181)]
SEEDS = (0, 1)


# D axis: name -> (problem spec, dimension).
D_AXIS_PROBLEMS = {
    **{f"{name}/d{d}": (name, d) for name in BENCHMARK_NAMES for d in (1, 2, 30)},
    "rastrigin:sr/d300": ("rastrigin:sr", 300),
}
D_AXIS_VARIANTS = ("mbgo", "embgo", "de", "pso", "random")
# Both budgets end mid-iteration for every optimizer; random search also
# gets a budget that spans more than one chunk of samples.
D_AXIS_GRID = [(4, 23), (5, 38)]
D_AXIS_RANDOM_BUDGET = 600


# Compare axis: one seeded compare, reported against each reference. The
# marks include '+' and '-' with pso as the reference, '+' and '~' with de.
COMPARE_REFERENCES = ("de", "pso")
COMPARE_ARGV = [
    "compare", "--problem", "sphere", "--problem", "rastrigin",
    "--algorithm", "embgo", "--algorithm", "de", "--algorithm", "pso",
    "--algorithm", "random", "--dim", "5", "--pop", "10", "--budget", "300",
    "--trials", "8", "--seed", "3",
]


def digest(variant: str, problem, grid=GRID, seeds=SEEDS) -> str:
    h = hashlib.sha256()
    for n, budget in grid:
        if n < 4 and variant.startswith("de"):
            continue
        for seed in seeds:
            config = OptimizerConfig(pop_size=n, budget=budget, seed=seed)
            h.update(VARIANTS[variant](problem, config).serialize().encode())
    return h.hexdigest()


def d_axis_digest(variant: str, problem) -> str:
    grid = D_AXIS_GRID
    if variant == "random":
        grid = grid + [(1, D_AXIS_RANDOM_BUDGET)]
    return digest(variant, problem, grid, seeds=(0,))


def compare_digest(reference: str, out: Path) -> str:
    assert main([*COMPARE_ARGV, "--reference", reference, "--out", str(out)]) == 0
    return hashlib.sha256((out / "comparison.txt").read_bytes()).hexdigest()


def compute_all() -> dict:
    out = {}
    for pname, make in PROBLEMS.items():
        problem = make()
        for variant in VARIANTS:
            out[f"{variant}/{pname}"] = digest(variant, problem)
    for pname, spec in D_AXIS_PROBLEMS.items():
        problem = resolve_problem(*spec)
        for variant in D_AXIS_VARIANTS:
            out[f"{variant}/{pname}"] = d_axis_digest(variant, problem)
    for reference in COMPARE_REFERENCES:
        with tempfile.TemporaryDirectory() as tmp:
            out[f"compare/{reference}"] = compare_digest(reference, Path(tmp))
    return out


@pytest.fixture(scope="module")
def recorded():
    return json.loads(DIGESTS.read_text())


@pytest.fixture(scope="module")
def problems():
    return {name: make() for name, make in PROBLEMS.items()}


@pytest.fixture(scope="module")
def d_axis_problems():
    return {name: resolve_problem(*spec) for name, spec in D_AXIS_PROBLEMS.items()}


def test_recorded_grid_matches_the_variants(recorded):
    expected = [f"{v}/{p}" for p in PROBLEMS for v in VARIANTS]
    expected += [f"{v}/{p}" for p in D_AXIS_PROBLEMS for v in D_AXIS_VARIANTS]
    expected += [f"compare/{reference}" for reference in COMPARE_REFERENCES]
    assert sorted(recorded) == sorted(expected)


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_seeded_output_is_unchanged(variant, problems, recorded):
    for pname, problem in problems.items():
        assert digest(variant, problem) == recorded[f"{variant}/{pname}"], pname


@pytest.mark.parametrize("variant", D_AXIS_VARIANTS)
def test_seeded_output_is_unchanged_across_dimensions(variant, d_axis_problems, recorded):
    for pname, problem in d_axis_problems.items():
        assert d_axis_digest(variant, problem) == recorded[f"{variant}/{pname}"], pname


@pytest.mark.parametrize("reference", COMPARE_REFERENCES)
def test_seeded_comparison_report_is_unchanged(reference, tmp_path, recorded):
    assert compare_digest(reference, tmp_path) == recorded[f"compare/{reference}"]


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(compute_all(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}")
