import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
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
from battleopt.core import make_rng
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


@pytest.mark.parametrize("entries, default", [
    ({(0,) * 6: True}, None),
    ({(0,) * 6: False}, None),
    ({(0,) * 6: 50.0}, True),
    ({(0,) * 6: math.nan}, None),
    ({(0,) * 6: "50"}, None),
])
def test_table_rejects_a_bool_or_non_number_accuracy(entries, default):
    with pytest.raises(TableError, match="accuracy must lie in"):
        LookupTable(entries=entries, default=default)


@pytest.mark.parametrize("code", [[0] * 6, np.zeros(6, dtype=int), (0,) * 5, "000000"])
def test_accuracy_of_a_code_that_is_not_a_six_tuple_is_a_table_error(code):
    table = LookupTable(entries={(0,) * 6: 50.0}, default=1.0)
    with pytest.raises(TableError, match="invalid architecture code"):
        table.accuracy(code)
    with pytest.raises(TableError, match="invalid architecture code"):
        lookup_fitness(table, code)


def test_table_problem_keeps_a_snapshot_of_the_table():
    table = LookupTable(entries={(0,) * 6: 70.0}, default=12.5)
    problem = table_problem(table)
    entries = table.entries
    entries[(2,) * 6] = 99.0  # a copy: the table is unchanged
    assert table.entries == {(0,) * 6: 70.0}
    with pytest.raises(ValueError):
        table.accuracies[0] = 1.0
    table.default = 99.0
    table.accuracies = np.zeros(CODE_COUNT)
    assert problem.evaluate(np.full(6, -99.0)) == -70.0
    assert problem.evaluate(np.zeros(6)) == -12.5


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


def synthetic_reference(seed: int) -> dict:
    """The code-by-code construction synthetic_table vectorises."""
    rng = make_rng(seed)
    elite = tuple(int(s) for s in rng.integers(0, N_SYMBOLS, N_EDGES))
    base = rng.uniform(0.0, 60.0, CODE_COUNT)
    return {
        code: float(base[idx] + 6.0 * sum(a == b for a, b in zip(code, elite)))
        for idx, code in enumerate(itertools.product(range(N_SYMBOLS), repeat=N_EDGES))
    }


def test_synthetic_table_matches_independent_enumeration():
    table = synthetic_table(seed=99)
    assert table.complete
    assert table.entries == synthetic_reference(99)
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


# Each malformed-line class with the message, after "<path>:", that the
# dict-based parser gave; the array-based one must give the same bytes.
MALFORMED = [
    ("000000,50\n", "1: expected header 'code,accuracy', got '000000,50'"),
    ("# dataset=x\n", " missing 'code,accuracy' header"),
    ("", " missing 'code,accuracy' header"),
    ("code,accuracy\n000000,50,1\n", "2: expected 'code,accuracy', got '000000,50,1'"),
    ("code,accuracy\n000000\n", "2: expected 'code,accuracy', got '000000'"),
    ("code,accuracy\n00000x,10\n", "2: code must be 6 digits 0-4, got '00000x'"),
    ("code,accuracy\n000005,10\n", "2: code must be 6 digits 0-4, got '000005'"),
    ("code,accuracy\n000000,abc\n", "2: accuracy 'abc' is not a number"),
    ("code,accuracy\n000000,101\n", "2: accuracy 101.0 outside [0, 100]"),
    ("code,accuracy\n000000,-0.5\n", "2: accuracy -0.5 outside [0, 100]"),
    ("code,accuracy\n000000,inf\n", "2: accuracy inf outside [0, 100]"),
    ("code,accuracy\n000000,nan\n", "2: accuracy nan outside [0, 100]"),
    ("code,accuracy\n000000,50\n000000,60\n", "3: duplicate code 000000"),
    ("code,accuracy\n 000000 , 50\n000000,60\n", "3: duplicate code 000000"),
]


def test_load_table_error_reporting(tmp_path):
    path = tmp_path / "bad.csv"
    for text, message in MALFORMED:
        path.write_text(text)
        with pytest.raises(TableError) as info:
            load_table(path)
        assert str(info.value) == f"{path}:{message}"


UNREADABLE = {
    "missing.csv": "No such file or directory",
    ".": "Is a directory",
    "latin1.csv": "'utf-8' codec can't decode byte 0xe9 in position 19: invalid continuation byte",
}


@pytest.mark.parametrize("name", ["missing.csv", ".", "latin1.csv"])
def test_load_table_of_an_unreadable_path_is_a_table_error(name, tmp_path):
    (tmp_path / "latin1.csv").write_bytes("code,accuracy\n# caf\xe9\n".encode("latin-1"))
    path = tmp_path / name
    with pytest.raises(TableError, match="cannot read table") as info:
        load_table(path)
    assert str(info.value) == f"{path}: cannot read table: {UNREADABLE[name]}"


# SHA-256 of the bytes save_table wrote for synthetic_table(seed) with the
# dict-based table; the array-based table must write the same bytes.
SAVED_SHA256 = {
    1: "24cc0bd5b36378bc8c4c20d0f64a6007b735be84c5c6e2b3c389337fe7253b10",
    3: "e1473c120614cbea1ea3418deeef47665c09c3ec32a0941c513509f9e660bde8",
    2026: "e48e09f88e9d91b3bbd3a1cff229050c82ecf2557a45e702d6431ee89eabccd2",
}


@pytest.mark.parametrize("seed", sorted(SAVED_SHA256))
def test_saved_synthetic_table_bytes_are_pinned(seed, tmp_path):
    path = tmp_path / "table.csv"
    save_table(synthetic_table(seed), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SAVED_SHA256[seed]


CODES = st.tuples(*[st.integers(0, N_SYMBOLS - 1)] * N_EDGES)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(entries=st.dictionaries(CODES, st.floats(0.0, 100.0), max_size=40),
       dataset=st.sampled_from(["", "cifar10", "a=b c", "caf\xe9"]))
def test_partial_table_round_trip(entries, dataset, tmp_path):
    path = tmp_path / "partial.csv"
    save_table(LookupTable(entries=entries, dataset=dataset, attack="pgd"), path)
    loaded = load_table(path)
    assert loaded.entries == entries
    assert (loaded.dataset, loaded.attack) == (dataset, "pgd")


@pytest.mark.parametrize("field", ["dataset", "attack"])
@pytest.mark.parametrize("value", [
    "a\nb", "a\r\nb", "a\rb", "a\x0bb", "a\x0cb", "a\x1cb", "a\x85b", "a\u2028b", "a\u2029b",
    " pgd", "pgd ", "pgd\n", "\tpgd", "\u3000pgd", None, 5,
])
def test_save_table_refuses_metadata_that_would_not_load_back(field, value, tmp_path):
    table = synthetic_table(1, **{field: value})
    path = tmp_path / "table.csv"
    with pytest.raises(TableError, match=f"^{field} .* would not load back unchanged"):
        save_table(table, path)
    assert not path.exists()


@pytest.mark.parametrize("field", ["dataset", "attack"])
def test_save_table_refuses_a_lone_surrogate_and_keeps_the_file(field, tmp_path):
    # UTF-8 cannot encode a lone surrogate; the check runs before the
    # file is opened, so an existing file keeps its bytes
    path = tmp_path / "table.csv"
    path.write_bytes(b"kept")
    with pytest.raises(TableError, match=f"^{field} 'a\\\\ud800' would not load back unchanged"):
        save_table(synthetic_table(1, **{field: "a\ud800"}), path)
    assert path.read_bytes() == b"kept"


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
