"""Seeded output of every optimizer, pinned by SHA-256 digests.

Each (variant, problem) digest covers ``RunResult.serialize()`` over a
grid of population sizes, budgets (several end mid-iteration) and seeds.
A refactor that keeps the behaviour keeps every digest. A deliberate
change to seeded output re-records them with

    PYTHONPATH=src python tests/test_golden.py

and names the change and its reason in CHANGES.md.
"""

import hashlib
import json
from pathlib import Path

import pytest

from battleopt import (
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


def digest(variant: str, problem) -> str:
    h = hashlib.sha256()
    for n, budget in GRID:
        if n < 4 and variant.startswith("de"):
            continue
        for seed in SEEDS:
            config = OptimizerConfig(pop_size=n, budget=budget, seed=seed)
            h.update(VARIANTS[variant](problem, config).serialize().encode())
    return h.hexdigest()


def compute_all() -> dict:
    out = {}
    for pname, make in PROBLEMS.items():
        problem = make()
        for variant in VARIANTS:
            out[f"{variant}/{pname}"] = digest(variant, problem)
    return out


@pytest.fixture(scope="module")
def recorded():
    return json.loads(DIGESTS.read_text())


@pytest.fixture(scope="module")
def problems():
    return {name: make() for name, make in PROBLEMS.items()}


def test_recorded_grid_matches_the_variants(recorded):
    assert sorted(recorded) == sorted(f"{v}/{p}" for p in PROBLEMS for v in VARIANTS)


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_seeded_output_is_unchanged(variant, problems, recorded):
    for pname, problem in problems.items():
        assert digest(variant, problem) == recorded[f"{variant}/{pname}"], pname


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(compute_all(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}")
