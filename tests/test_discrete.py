import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from battleopt import (
    LookupTable,
    TableError,
    brute_force_optimum,
    decode,
    load_table,
    lookup_fitness,
    save_table,
    synthetic_table,
    table_problem,
    transfer,
)
from battleopt.discrete import CODE_COUNT, N_EDGES, N_SYMBOLS, OPERATIONS

BAND_MIDPOINTS = (-80.0, -40.0, 0.0, 40.0, 80.0)


def test_transfer_piecewise_cases():
    assert transfer(-100.0) == 0
    assert transfer(0.0) == 2
    assert transfer(100.0) == 4


def test_transfer_boundaries_bit_exact():
    assert transfer(-60.0) == 1
    assert transfer(-20.0) == 2
    assert transfer(20.0) == 3
    assert transfer(60.0) == 4


@given(st.floats(-200, 200), st.floats(-200, 200))
def test_transfer_monotone(x, y):
    if x <= y:
        assert transfer(x) <= transfer(y)
    else:
        assert transfer(x) >= transfer(y)


def test_decode_examples():
    assert decode(np.zeros(6)) == (2, 2, 2, 2, 2, 2)
    assert decode(np.array([-100.0, -60.0, -20.0, 20.0, 60.0, 100.0])) == (
        0,
        1,
        2,
        3,
        4,
        4,
    )
    # within-band perturbation keeps the symbol
    assert decode(np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0]))[0] == 2


def test_decode_rejects_wrong_length():
    with pytest.raises(ValueError):
        decode(np.zeros(5))


def test_decode_over_band_midpoints_is_bijection():
    seen = set()
    for code in itertools.product(range(N_SYMBOLS), repeat=N_EDGES):
        vector = np.array([BAND_MIDPOINTS[s] for s in code])
        assert decode(vector) == code
        seen.add(code)
    assert len(seen) == CODE_COUNT


def test_operations_naming():
    assert OPERATIONS[0] == "zeroize"
    assert OPERATIONS[4] == "avgpool-3x3"
    assert len(OPERATIONS) == N_SYMBOLS


def test_lookup_fitness_negates_accuracy():
    code = (0,) * 6
    table = LookupTable(entries={code: 94.6})
    assert lookup_fitness(table, code) == -94.6
    zero = LookupTable(entries={code: 0.0})
    assert lookup_fitness(zero, code) == 0.0
    assert lookup_fitness(table, tuple(code)) == lookup_fitness(table, code)


def test_lookup_missing_entry_behavior():
    table = LookupTable(entries={(0,) * 6: 50.0})
    with pytest.raises(TableError):
        table.accuracy((1,) * 6)
    with_default = LookupTable(entries={(0,) * 6: 50.0}, default=10.0)
    assert with_default.accuracy((1,) * 6) == 10.0


def test_table_rejects_out_of_range_accuracy():
    with pytest.raises(TableError):
        LookupTable(entries={(0,) * 6: 101.0})
    with pytest.raises(TableError):
        LookupTable(entries={(0, 0, 0, 0, 0, 5): 50.0})


def test_brute_force_requires_complete_table():
    with pytest.raises(TableError):
        brute_force_optimum(LookupTable(entries={(0,) * 6: 50.0}))


def test_brute_force_tie_break_and_unique_max():
    constant = LookupTable(entries={
        code: 42.0 for code in itertools.product(range(5), repeat=6)
    })
    code, acc = brute_force_optimum(constant)
    assert code == (0, 0, 0, 0, 0, 0) and acc == 42.0

    entries = dict(constant.entries)
    entries[(3, 1, 4, 1, 5 % 5, 2)] = 99.0
    code, acc = brute_force_optimum(LookupTable(entries=entries))
    assert acc == 99.0 and code == (3, 1, 4, 1, 0, 2)


def test_synthetic_table_matches_independent_enumeration():
    table = synthetic_table(seed=99)
    assert table.complete
    code, acc = brute_force_optimum(table)
    # independent route: scan the dict without the lexicographic generator
    oracle_acc = max(table.entries.values())
    oracle_codes = sorted(c for c, a in table.entries.items() if a == oracle_acc)
    assert acc == oracle_acc and code == oracle_codes[0]
    assert all(0.0 <= a <= 100.0 for a in table.entries.values())


def test_table_roundtrip(tmp_path):
    table = synthetic_table(seed=5, dataset="synthetic-c10", attack="pgd")
    path = tmp_path / "table.csv"
    save_table(table, path)
    loaded = load_table(path)
    assert loaded.entries == table.entries
    assert loaded.dataset == "synthetic-c10" and loaded.attack == "pgd"


def test_load_table_error_reporting(tmp_path):
    path = tmp_path / "bad.csv"

    path.write_text("code,accuracy\n000000,50\n000000,60\n")
    with pytest.raises(TableError, match=":3"):
        load_table(path)

    path.write_text("code,accuracy\n000000,101\n")
    with pytest.raises(TableError, match=":2"):
        load_table(path)

    path.write_text("code,accuracy\n00000x,10\n")
    with pytest.raises(TableError, match=":2"):
        load_table(path)

    path.write_text("000000,50\n")
    with pytest.raises(TableError, match="header"):
        load_table(path)


@pytest.mark.parametrize("name", ["missing.csv", ".", "latin1.csv"])
def test_load_table_of_an_unreadable_path_is_a_table_error(name, tmp_path):
    (tmp_path / "latin1.csv").write_bytes("code,accuracy\n# caf\xe9\n".encode("latin-1"))
    path = tmp_path / name
    with pytest.raises(TableError, match="cannot read table") as info:
        load_table(path)
    assert str(info.value).startswith(f"{path}: ")


def test_load_table_accepts_comments_and_counts(tmp_path):
    table = synthetic_table(seed=1)
    path = tmp_path / "full.csv"
    save_table(table, path)
    loaded = load_table(path)
    assert len(loaded.entries) == 15_625


def test_table_problem_fitness_floor():
    table = synthetic_table(seed=7)
    problem = table_problem(table)
    _, best_acc = brute_force_optimum(table)
    rng = np.random.default_rng(0)
    for _ in range(500):
        x = rng.uniform(-100, 100, 6)
        assert problem.evaluate(x) >= -best_acc
