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
from typing import Optional

import numpy as np

from .core import Bounds, make_rng
from .problems import Problem, _mark_pure

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
def _string_index() -> dict:
    """Every valid code string -> its index, in index order; built on first use."""
    return {"".join(c): i for i, c in enumerate(itertools.product("01234", repeat=N_EDGES))}


@functools.cache
def _code_index() -> dict:
    """Every valid code tuple -> its index, in index order; built on first use."""
    return {c: i for i, c in enumerate(itertools.product(range(N_SYMBOLS), repeat=N_EDGES))}


def _index(code) -> int:
    try:
        return _code_index()[code]
    except (KeyError, TypeError):
        raise TableError(f"invalid architecture code {code!r}") from None


def _code(index: int) -> tuple:
    return tuple(int(s) for s in np.unravel_index(index, (N_SYMBOLS,) * N_EDGES))


def _checked_accuracy(acc) -> float:
    # NaN fails the range comparison; a bool is an int but not an accuracy.
    if isinstance(acc, bool) or not (isinstance(acc, (int, float)) and 0.0 <= acc <= 100.0):
        raise TableError(f"accuracy must lie in [0, 100], got {acc!r}")
    return float(acc)


class LookupTable:
    """Architecture code -> accuracy percentage in [0, 100].

    ``accuracies`` is one read-only float64 array of all 15,625 codes by
    index, NaN where a code is missing; ``entries`` is a fresh dict of the
    codes present. ``default`` supplies the accuracy of missing codes for
    declaredly partial tables; a complete table covers every code.
    """

    def __init__(self, entries: dict, dataset="", attack="", default: Optional[float] = None):
        accuracies = [math.nan] * CODE_COUNT
        for code, acc in entries.items():
            accuracies[_index(code)] = _checked_accuracy(acc)
        if default is not None:
            _checked_accuracy(default)
        self._set(np.array(accuracies), dataset, attack, default)

    @classmethod
    def _of(cls, accuracies: np.ndarray, dataset: str, attack: str) -> "LookupTable":
        """A table over an array whose values are already checked."""
        return cls.__new__(cls)._set(accuracies, dataset, attack, None)

    def _set(self, accuracies: np.ndarray, dataset, attack, default) -> "LookupTable":
        accuracies.flags.writeable = False
        self.accuracies = accuracies
        self.dataset, self.attack, self.default = dataset, attack, default
        return self

    @property
    def entries(self) -> dict:
        present = ~np.isnan(self.accuracies)
        return dict(zip(itertools.compress(_code_index(), present.tolist()),
                        self.accuracies[present].tolist()))

    @property
    def complete(self) -> bool:
        return not np.isnan(self.accuracies).any()

    def accuracy(self, code) -> float:
        index = _index(code)
        acc = float(self.accuracies[index])
        if not math.isnan(acc):
            return acc
        if self.default is not None:
            return self.default
        raise _missing(index)


def _missing(index: int) -> TableError:
    code = code_to_string(_code(index))
    return TableError(f"code {code} missing and the table declares no default")


def lookup_fitness(table: LookupTable, code) -> float:
    """Negated accuracy, so lower is better for the minimizing optimizers."""
    return -table.accuracy(code)


def brute_force_optimum(table: LookupTable) -> tuple:
    """Exact argmax accuracy over all codes; lexicographic tie-break.

    Requires a complete table: the enumeration is the ground truth an
    optimizer's result is measured against; ``argmax`` keeps the first.
    """
    if not table.complete:
        raise TableError("brute-force optimum requires a complete table")
    index = int(np.argmax(table.accuracies))
    return _code(index), float(table.accuracies[index])


def load_table(path) -> LookupTable:
    """Parse the delimited table format; a TableError names the path and line."""
    codes = _string_index()
    accuracies = [math.nan] * CODE_COUNT
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
        text = parts[0].strip()
        index = codes.get(text)
        if index is None:
            raise TableError(f"{path}:{lineno}: code must be {N_EDGES} digits 0-4, got {text!r}")
        try:
            acc = float(parts[1])
        except ValueError:
            raise TableError(f"{path}:{lineno}: accuracy {parts[1]!r} is not a number") from None
        if not 0.0 <= acc <= 100.0:  # NaN fails the comparison too
            raise TableError(f"{path}:{lineno}: accuracy {acc} outside [0, 100]")
        if accuracies[index] == accuracies[index]:  # only the NaN of a free slot differs
            raise TableError(f"{path}:{lineno}: duplicate code {text}")
        accuracies[index] = acc
    if not header_seen:
        raise TableError(f"{path}: missing 'code,accuracy' header")
    return LookupTable._of(np.array(accuracies), meta["dataset"], meta["attack"])


def save_table(table: LookupTable, path) -> None:
    """Write a table in the load format (codes in lexicographic order).

    Refuses, before opening the file, a dataset or attack that load_table
    would not read back unchanged: more than one line, outer whitespace, or
    a character UTF-8 cannot encode (a lone surrogate).
    """
    meta = {"dataset": table.dataset, "attack": table.attack}
    for field, value in meta.items():
        if value != "" and not (isinstance(value, str) and value.strip() == value
                                and value.splitlines() == [value]
                                and value.encode("utf-8", "replace").decode("utf-8") == value):
            raise TableError(f"{field} {value!r} would not load back unchanged: it must be one "
                             "line of UTF-8 text without leading or trailing whitespace")
    present = ~np.isnan(table.accuracies)
    rows = map("{},{!r}\n".format, itertools.compress(_string_index(), present.tolist()),
               table.accuracies[present].tolist())
    head = "".join(f"# {field}={value}\n" for field, value in meta.items() if value)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(head + "code,accuracy\n" + "".join(rows))


def synthetic_table(seed: int, dataset: str = "synthetic", attack: str = "none") -> LookupTable:
    """Seeded rugged landscape over the complete code space.

    Each code gets a random base accuracy plus a locality bonus per symbol
    shared with a hidden elite code, so the surface is noisy but rewards
    moving toward the elite. Accuracies stay within [0, 96].
    """
    rng = make_rng(seed)
    elite = rng.integers(0, N_SYMBOLS, N_EDGES)
    base = rng.uniform(0.0, 60.0, CODE_COUNT)
    matches = (np.arange(CODE_COUNT)[:, None] // _PLACE % N_SYMBOLS == elite).sum(axis=1)
    return LookupTable._of(base + 6.0 * matches, dataset, attack)


def table_problem(table: LookupTable) -> Problem:
    """Continuous 6-D problem whose fitness is the decoded table lookup.

    The problem keeps a snapshot of the table, so later edits do not reach
    it: the negated accuracies, the default in missing slots, indexed by
    the base-5 code of the transfer bands (``decode``). One evaluation
    indexes a list of Python floats; a batch indexes the array. Only a
    table with a score in every slot, once the default is applied, makes
    a problem that :func:`~battleopt.problems.pure_rows` may batch.
    """
    bounds = Bounds.cube(-100.0, 100.0, N_EDGES)
    fitness = -table.accuracies
    if table.default is not None:
        fitness[np.isnan(fitness)] = -float(table.default)
    scores = fitness.tolist()

    def evaluate(x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        if x.shape != (N_EDGES,):
            raise ValueError(f"decode expects a vector of length {N_EDGES}")
        index = 0
        for v in x.tolist():
            index = index * N_SYMBOLS + transfer(v)
        f = scores[index]
        if math.isnan(f):
            raise _missing(index)
        return f

    def rows(X: np.ndarray) -> np.ndarray:
        index = np.searchsorted(_THRESHOLD_ARRAY, X, side="right") @ _PLACE
        out = fitness[index]
        missing = np.isnan(out)
        if missing.any():
            raise _missing(int(index[np.argmax(missing)]))
        return out

    evaluate.batch = rows
    # A missing score raises; a block evaluated ahead could raise on a row
    # that one evaluation at a time would never reach.
    if not np.isnan(fitness).any():
        _mark_pure(evaluate)

    label = ":".join(part for part in (table.dataset, table.attack) if part)
    return Problem(
        name=f"arnas[{label}]" if label else "arnas",
        dim=N_EDGES,
        bounds=bounds,
        evaluate=evaluate,
    )
