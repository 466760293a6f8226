"""Discrete cell-search adapter: quinary encoding over a tabulated benchmark.

A candidate architecture is a cell with six edges, each carrying one of
five operations, giving 5^6 = 15,625 codes. Continuous optimizers search
the usual [-100, 100]^6 box; a truncation transfer function maps each
coordinate to a symbol, and fitness is a table lookup (negated accuracy,
minimization convention). The space is small enough that a brute-force
enumeration serves as the exact oracle.

Table file format: UTF-8 text (a leading byte-order mark is skipped),
header line ``code,accuracy``, then lines ``dddddd,float`` with six digits
0-4 (e.g. ``340124,61.25``). Lines starting with '#' are comments;
``# dataset=...`` and ``# attack=...`` comments populate the table metadata.
"""

import functools
import itertools
import math
import operator
from bisect import bisect_right

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
    """Malformed or out-of-range lookup table, or one without every code."""


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
    """Architecture code -> accuracy percentage in [0, 100], for every one of the 15,625 codes.

    ``accuracies`` is a read-only property over one read-only float64 array
    of the accuracies by code index; ``entries`` is a fresh dict of every
    code. The constructor and :func:`load_table` refuse input that misses a
    code with one :class:`TableError` naming how many are missing and the first.
    """

    def __init__(self, entries: dict, dataset="", attack=""):
        accuracies = [math.nan] * CODE_COUNT
        for code, acc in entries.items():
            accuracies[_index(code)] = _checked_accuracy(acc)
        self._set(_every_code(accuracies, ""), dataset, attack)

    @classmethod
    def _of(cls, accuracies: np.ndarray, dataset: str, attack: str) -> "LookupTable":
        """A table over an array whose values are already checked."""
        return cls.__new__(cls)._set(accuracies, dataset, attack)

    def _set(self, accuracies: np.ndarray, dataset, attack) -> "LookupTable":
        accuracies.flags.writeable = False
        self._accuracies = accuracies
        self.dataset, self.attack = dataset, attack
        return self

    @property
    def accuracies(self) -> np.ndarray:
        return self._accuracies

    @property
    def entries(self) -> dict:
        return dict(zip(_code_index(), self.accuracies.tolist()))

    def accuracy(self, code) -> float:
        return float(self.accuracies[_index(code)])


def _every_code(accuracies: list, where: str) -> np.ndarray:
    """``accuracies``, NaN in a slot no entry filled, as an array; a TableError if one is NaN."""
    array = np.array(accuracies)
    missing = np.isnan(array)
    if missing.any():
        first = code_to_string(_code(int(missing.argmax())))
        raise TableError(f"{where}{int(missing.sum())} of {CODE_COUNT} codes missing, "
                         f"the first {first}")
    return array


def lookup_fitness(table: LookupTable, code) -> float:
    """Negated accuracy, so lower is better for the minimizing optimizers."""
    return -table.accuracy(code)


def brute_force_optimum(table: LookupTable) -> tuple:
    """Exact argmax accuracy over all codes; lexicographic tie-break.

    The enumeration is the ground truth an optimizer's result is measured
    against; ``argmax`` keeps the first.
    """
    index = int(np.argmax(table.accuracies))
    return _code(index), float(table.accuracies[index])


def load_table(path) -> LookupTable:
    """Parse the delimited table format; a TableError names the path, and a bad line's number.

    save_table's layout (line k is code k, a comma and its accuracy) is read
    in one pass; any other layout, or a bad line, goes through the line loop.
    """
    return _load(path, one_pass=True)


def _load(path, one_pass: bool) -> LookupTable:
    """load_table; with ``one_pass`` false, every line goes through the line loop."""
    codes = _string_index()
    accuracies = [math.nan] * CODE_COUNT
    meta = {"dataset": "", "attack": ""}
    try:
        with open(path, encoding="utf-8-sig") as handle:
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
            if one_pass and (array := _in_index_order(lines[lineno:])) is not None:
                return LookupTable._of(array, meta["dataset"], meta["attack"])
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
    return LookupTable._of(_every_code(accuracies, f"{path}: "), meta["dataset"], meta["attack"])


def _in_index_order(rest: list):
    """The accuracies if line k is ``<code k>,<accuracy>`` for each k, all in [0, 100]; else None."""
    prefixes = map(operator.add, _string_index(), itertools.repeat(","))
    # the prefixes alone prove every code present, valid and unique
    if len(rest) != CODE_COUNT or not all(map(str.startswith, rest, prefixes)):
        return None
    try:
        array = np.fromiter(map(float, map(operator.itemgetter(slice(N_EDGES + 1, None)), rest)),
                            float, CODE_COUNT)
    except ValueError:
        return None
    return array if array.min() >= 0.0 and array.max() <= 100.0 else None


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
    rows = map("{},{!r}\n".format, _string_index(), table.accuracies.tolist())
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
    it: the negated accuracies, indexed by the base-5 code of the transfer
    bands (``decode``). One evaluation indexes a list of Python floats; a
    batch indexes the array. Every code has a score, so no row can fail
    and :func:`~battleopt.problems.pure_rows` may batch the problem.
    """
    bounds = Bounds.cube(-100.0, 100.0, N_EDGES)
    fitness = -table.accuracies
    scores = fitness.tolist()

    def evaluate(x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        if x.shape != (N_EDGES,):
            raise ValueError(f"decode expects a vector of length {N_EDGES}")
        index = 0
        for v in x.tolist():
            index = index * N_SYMBOLS + transfer(v)
        return scores[index]

    def rows(X: np.ndarray) -> np.ndarray:
        return fitness[np.searchsorted(_THRESHOLD_ARRAY, X, side="right") @ _PLACE]

    evaluate.batch = rows
    _mark_pure(evaluate)

    label = ":".join(part for part in (table.dataset, table.attack) if part)
    return Problem(
        name=f"arnas[{label}]" if label else "arnas",
        dim=N_EDGES,
        bounds=bounds,
        evaluate=evaluate,
    )
