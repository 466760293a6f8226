"""Discrete cell-search adapter: quinary encoding over a tabulated benchmark.

A candidate architecture is a cell with six edges, each carrying one of
five operations, giving 5^6 = 15,625 codes. Continuous optimizers search
the usual [-100, 100]^6 box; a truncation transfer function maps each
coordinate to a symbol, and fitness is a table lookup (negated accuracy,
minimization convention). The space is small enough that a brute-force
enumeration serves as the exact oracle.

Table file format: UTF-8 text, header line ``code,accuracy``, then lines
``dddddd,float`` with six digits 0-4 (e.g. ``340124,61.25``). Lines
starting with '#' are comments; ``# dataset=...`` and ``# attack=...``
comments populate the table metadata.
"""

import functools
import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import Bounds, make_rng
from .problems import Problem

__all__ = [
    "OPERATIONS",
    "N_EDGES",
    "N_SYMBOLS",
    "CODE_COUNT",
    "TableError",
    "LookupTable",
    "transfer",
    "decode",
    "code_to_string",
    "string_to_code",
    "lookup_fitness",
    "brute_force_optimum",
    "load_table",
    "save_table",
    "synthetic_table",
    "table_problem",
]

# Symbol -> operation naming; optimization depends only on the table.
OPERATIONS = ("zeroize", "skip-connect", "conv-1x1", "conv-3x3", "avgpool-3x3")
N_EDGES = 6
N_SYMBOLS = 5
CODE_COUNT = N_SYMBOLS**N_EDGES

_THRESHOLDS = (-60.0, -20.0, 20.0, 60.0)
_THRESHOLD_ARRAY = np.array(_THRESHOLDS)
# Base-5 place values: a code's index in lexicographic (itertools.product) order.
_PLACE = N_SYMBOLS ** np.arange(N_EDGES - 1, -1, -1)


class TableError(ValueError):
    """Malformed, incomplete, or out-of-range lookup table."""


def transfer(x: float) -> int:
    """Truncation transfer: band index of x with strict '<' thresholds.

    0 below -60, then 1, 2, 3 over 40-wide bands, 4 from 60 upward; the
    threshold value itself belongs to the upper band.
    """
    return bisect_right(_THRESHOLDS, x)


def decode(x) -> tuple:
    """Component-wise transfer of a 6-vector into an architecture code."""
    x = np.asarray(x, dtype=float)
    if x.shape != (N_EDGES,):
        raise ValueError(f"decode expects a vector of length {N_EDGES}")
    return tuple(int(s) for s in np.searchsorted(_THRESHOLDS, x, side="right"))


def code_to_string(code) -> str:
    return "".join(str(s) for s in code)


@functools.cache
def _code_of() -> dict:
    """Every valid code string -> its code tuple, built on first use."""
    return dict(
        zip(
            map("".join, itertools.product("01234", repeat=N_EDGES)),
            itertools.product(range(N_SYMBOLS), repeat=N_EDGES),
        )
    )


@functools.cache
def _valid_codes() -> frozenset:
    return frozenset(_code_of().values())


def string_to_code(text: str) -> tuple:
    code = _code_of().get(text)
    if code is None:
        raise TableError(f"code must be {N_EDGES} digits 0-4, got {text!r}")
    return code


@dataclass
class LookupTable:
    """Architecture code -> accuracy percentage in [0, 100].

    ``default`` supplies the accuracy of missing codes for declaredly
    partial tables; a complete table covers all 15,625 codes.
    """

    entries: dict
    dataset: str = ""
    attack: str = ""
    default: Optional[float] = None

    def __post_init__(self):
        for code, acc in self.entries.items():
            _check_code(code)
            _check_accuracy(acc)
        if self.default is not None:
            _check_accuracy(self.default)

    @property
    def complete(self) -> bool:
        return len(self.entries) == CODE_COUNT

    def accuracy(self, code) -> float:
        _check_code(code)
        if code in self.entries:
            return self.entries[code]
        if self.default is not None:
            return self.default
        raise TableError(
            f"code {code_to_string(code)} missing and the table declares no default"
        )


def _check_code(code) -> None:
    if code not in _valid_codes():
        raise TableError(f"invalid architecture code {code!r}")


def _check_accuracy(acc: float) -> None:
    if not (isinstance(acc, (int, float)) and 0.0 <= acc <= 100.0 and not math.isnan(acc)):
        raise TableError(f"accuracy must lie in [0, 100], got {acc!r}")


def lookup_fitness(table: LookupTable, code) -> float:
    """Negated accuracy, so lower is better for the minimizing optimizers."""
    return -table.accuracy(code)


def brute_force_optimum(table: LookupTable) -> tuple:
    """Exact argmax accuracy over all codes; lexicographic tie-break.

    Requires a complete table: the enumeration is the ground truth an
    optimizer's result is measured against.
    """
    if not table.complete:
        raise TableError("brute-force optimum requires a complete table")
    best_code = None
    best_acc = -math.inf
    for code in itertools.product(range(N_SYMBOLS), repeat=N_EDGES):
        acc = table.entries[code]
        if acc > best_acc:
            best_code, best_acc = code, acc
    return best_code, best_acc


def load_table(path) -> LookupTable:
    """Parse the delimited table format; a TableError names the path and line."""
    entries = {}
    meta = {"dataset": "", "attack": ""}
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise TableError(f"{path}: cannot read table: {reason}") from None
    header_seen = False
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                key, _, value = body.partition("=")
                if key.strip() in meta:
                    meta[key.strip()] = value.strip()
            continue
        if not header_seen:
            if line != "code,accuracy":
                raise TableError(
                    f"{path}:{lineno}: expected header 'code,accuracy', got {line!r}"
                )
            header_seen = True
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise TableError(f"{path}:{lineno}: expected 'code,accuracy', got {line!r}")
        try:
            code = string_to_code(parts[0].strip())
        except TableError as exc:
            raise TableError(f"{path}:{lineno}: {exc}") from None
        try:
            acc = float(parts[1])
        except ValueError:
            raise TableError(f"{path}:{lineno}: accuracy {parts[1]!r} is not a number") from None
        if not 0.0 <= acc <= 100.0 or math.isnan(acc):
            raise TableError(f"{path}:{lineno}: accuracy {acc} outside [0, 100]")
        if code in entries:
            raise TableError(f"{path}:{lineno}: duplicate code {parts[0].strip()}")
        entries[code] = acc
    if not header_seen:
        raise TableError(f"{path}: missing 'code,accuracy' header")
    return LookupTable(entries=entries, dataset=meta["dataset"], attack=meta["attack"])


def save_table(table: LookupTable, path) -> None:
    """Write a table in the load format (codes in lexicographic order)."""
    with open(path, "w", encoding="utf-8") as handle:
        if table.dataset:
            handle.write(f"# dataset={table.dataset}\n")
        if table.attack:
            handle.write(f"# attack={table.attack}\n")
        handle.write("code,accuracy\n")
        for code in sorted(table.entries):
            handle.write(f"{code_to_string(code)},{table.entries[code]!r}\n")


def synthetic_table(seed: int, dataset: str = "synthetic", attack: str = "none") -> LookupTable:
    """Seeded rugged landscape over the complete code space.

    Each code gets a random base accuracy plus a locality bonus per symbol
    shared with a hidden elite code, so the surface is noisy but rewards
    moving toward the elite. Accuracies stay within [0, 96].
    """
    rng = make_rng(seed)
    elite = tuple(int(s) for s in rng.integers(0, N_SYMBOLS, N_EDGES))
    base = rng.uniform(0.0, 60.0, CODE_COUNT)
    entries = {}
    for idx, code in enumerate(itertools.product(range(N_SYMBOLS), repeat=N_EDGES)):
        matches = sum(a == b for a, b in zip(code, elite))
        entries[code] = float(base[idx] + 6.0 * matches)
    return LookupTable(entries=entries, dataset=dataset, attack=attack)


def _dense_accuracy(table: LookupTable) -> np.ndarray:
    """Accuracy of every code by its index; the default or NaN where missing."""
    dense = np.full(
        CODE_COUNT, math.nan if table.default is None else table.default, dtype=float
    )
    n = len(table.entries)
    if n:
        codes = np.fromiter(
            itertools.chain.from_iterable(table.entries), dtype=np.int64, count=n * N_EDGES
        )
        dense[codes.reshape(n, N_EDGES) @ _PLACE] = np.fromiter(
            table.entries.values(), dtype=float, count=n
        )
    return dense


def _missing(index: int) -> TableError:
    code = np.unravel_index(index, (N_SYMBOLS,) * N_EDGES)
    return TableError(
        f"code {code_to_string(int(s) for s in code)} missing and the table declares no default"
    )


def table_problem(table: LookupTable) -> Problem:
    """Continuous 6-D problem whose fitness is the decoded table lookup.

    The problem keeps a snapshot of the table: one dense array of the
    negated accuracies of all 15,625 codes, indexed by the base-5 code of
    the transfer bands (``decode``), so an evaluation is one index and no
    tuple or dict lookup. Later edits to ``table`` do not reach it.
    """
    bounds = Bounds.cube(-100.0, 100.0, N_EDGES)
    fitness = -_dense_accuracy(table)

    def evaluate(x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        if x.shape != (N_EDGES,):
            raise ValueError(f"decode expects a vector of length {N_EDGES}")
        index = 0
        for v in x.tolist():
            index = index * N_SYMBOLS + transfer(v)
        f = fitness[index]
        if math.isnan(f):
            raise _missing(index)
        return float(f)

    def rows(X: np.ndarray) -> np.ndarray:
        index = np.searchsorted(_THRESHOLD_ARRAY, X, side="right") @ _PLACE
        out = fitness[index]
        missing = np.isnan(out)
        if missing.any():
            raise _missing(int(index[np.argmax(missing)]))
        return out

    evaluate.batch = rows

    label = ":".join(part for part in (table.dataset, table.attack) if part)
    return Problem(
        name=f"arnas[{label}]" if label else "arnas",
        dim=N_EDGES,
        bounds=bounds,
        evaluate=evaluate,
    )
