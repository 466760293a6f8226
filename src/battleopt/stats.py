"""Population diversity plus the nonparametric comparison toolkit.

The comparison protocol: Mann-Whitney U tests between a reference
algorithm and every competitor, Holm step-down correction per problem,
+/~/- significance marks, and average ranks of per-problem means.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "population_diversity",
    "mann_whitney_u",
    "holm_adjust",
    "ComparisonMatrix",
    "significance_marks",
    "average_rank",
]

# Below this product of sample sizes the exact permutation null is enumerated.
EXACT_ENUMERATION_LIMIT = 64


def population_diversity(pop, bounds) -> float:
    """Normalized mean absolute deviation from the population centroid.

    PD = (1 / (N D)) sum_i sum_j |X_ij - mean_j| / (UB_j - LB_j) over
    ``pop``, an (N, D) position array, which lies in [0, 1] for any
    in-bounds population and is 0 when all members coincide. Anything
    but a 2-D array of at least one row and ``bounds.dim`` columns is a
    ``ValueError`` naming its shape. Both means are the float64 sum over
    the count that ``mean`` computes, integers included, by
    ``np.add.reduce`` without ``mean``'s wrapper.
    """
    shape = np.shape(pop)
    if len(shape) != 2 or shape[0] < 1 or shape[1] != bounds.dim:
        raise ValueError(f"pop must be an (N, {bounds.dim}) array with N >= 1, got shape {shape}")
    centroid = np.add.reduce(pop, 0, np.float64) / shape[0]
    normalized = np.abs(pop - centroid) / bounds.span
    return float(np.add.reduce(normalized, None) / normalized.size)


def _midranks(values) -> np.ndarray:
    """Ranks 1..n of ``values`` as float64, ties sharing their mean rank.

    The average method of ``scipy.stats.rankdata``, bit for bit: -0.0 ties
    with 0.0, infinities rank at the ends, and a NaN anywhere makes every
    rank NaN.
    """
    x = np.asarray(values, dtype=float).ravel()
    if np.isnan(x).any():
        return np.full(x.size, np.nan)
    order = np.argsort(x, kind="stable")
    inverse = np.empty(x.size, dtype=np.intp)
    inverse[order] = np.arange(x.size)
    s = x[order]
    starts = np.concatenate(([True], s[1:] != s[:-1]))
    dense = np.cumsum(starts)[inverse]
    count = np.concatenate((np.flatnonzero(starts), [x.size]))
    return 0.5 * (count[dense] + count[dense - 1] + 1)


def mann_whitney_u(a, b, alternative: str = "two-sided") -> tuple[float, float]:
    """Rank-sum U statistic of the first sample and its p-value.

    Ties get midranks. For n_a * n_b <= 64 the p-value is exact: it counts
    all labelings of the combined sample per rank sum; larger inputs use
    the normal approximation with tie-corrected variance and a 0.5
    continuity correction. ``alternative`` is "two-sided", "less" (first
    sample tends smaller), or "greater". A NaN in either sample is a
    ``ValueError``.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size == 0 or b.size == 0:
        raise ValueError("both samples must be non-empty")
    if alternative not in ("two-sided", "less", "greater"):
        raise ValueError(f"unknown alternative {alternative!r}")
    if np.isnan(a).any() or np.isnan(b).any():
        raise ValueError("samples must not contain NaN; NaN has no rank")
    na, nb = a.size, b.size
    combined = np.concatenate([a, b])
    ranks = _midranks(combined)
    u = float(ranks[:na].sum() - na * (na + 1) / 2.0)

    if na * nb <= EXACT_ENUMERATION_LIMIT:
        p = _exact_p(ranks, na, u, alternative)
    else:
        p = _normal_approx_p(combined, na, nb, u, alternative)
    return u, min(1.0, p)


def _exact_p(ranks: np.ndarray, na: int, u_obs: float, alternative: str) -> float:
    """Exact null distribution of U over all C(n, na) labelings.

    Midranks are multiples of 1/2, so doubled ranks are integers and the
    labelings can be counted per doubled rank sum instead of enumerated:
    ``counts[k, s]`` is the number of k-subsets whose doubled ranks sum to
    s, built one element at a time. Counting the subsets of the smaller
    side keeps the counts small (at most C(16, 8) = 12,870 within
    ``EXACT_ENUMERATION_LIMIT``, far from int64 overflow); the ``a`` sum
    of a labeling is the total minus its ``b`` sum. The test runs in
    doubled integer units, so the labelings that meet it and C(n, na) are
    the integers an enumeration counts, and their ratio the same float.
    """
    n = ranks.size
    doubled = np.rint(2.0 * ranks).astype(np.int64)
    grand = int(doubled.sum())
    k = min(na, n - na)
    counts = np.zeros((k + 1, grand + 1), dtype=np.int64)
    counts[0, 0] = 1
    for r in doubled.tolist():
        # numpy buffers the overlapping operands, so every row reads the
        # counts from before this element: each element joins a subset once
        counts[1:, r:] += counts[:-1, :-r]
    sums = counts[k] if k == na else counts[k][::-1]
    # twice U of every doubled rank sum of ``a``, and twice its mean
    two_u = np.arange(grand + 1) - na * (na + 1)
    two_mu = na * (n - na)
    two_u_obs = round(2.0 * u_obs)
    if alternative == "two-sided":
        hit = np.abs(two_u - two_mu) >= abs(two_u_obs - two_mu)
    elif alternative == "less":
        hit = two_u <= two_u_obs
    else:
        hit = two_u >= two_u_obs
    return int(sums[hit].sum()) / math.comb(n, na)


def _normal_approx_p(
    combined: np.ndarray, na: int, nb: int, u_obs: float, alternative: str
) -> float:
    """Tie-corrected normal approximation with continuity correction."""
    n = na + nb
    mu = na * nb / 2.0
    _, ties = np.unique(combined, return_counts=True)
    tie_term = float(((ties**3 - ties).sum())) / (n * (n - 1))
    var = na * nb / 12.0 * ((n + 1) - tie_term)
    if var <= 0:
        return 1.0
    sd = math.sqrt(var)
    if alternative == "two-sided":
        z = max(0.0, abs(u_obs - mu) - 0.5) / sd
        return math.erfc(z / math.sqrt(2.0))
    if alternative == "greater":
        z = (u_obs - mu - 0.5) / sd
    else:
        z = (mu - u_obs - 0.5) / sd
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def holm_adjust(p_values) -> list[float]:
    """Step-down Holm adjustment, returned in the input order."""
    ps = [float(p) for p in p_values]
    if any(p < 0.0 or p > 1.0 for p in ps):
        raise ValueError("p-values must lie in [0, 1]")
    m = len(ps)
    order = sorted(range(m), key=ps.__getitem__)
    adjusted = [0.0] * m
    running_max = 0.0
    for i, idx in enumerate(order):
        value = min(1.0, (m - i) * ps[idx])
        running_max = max(running_max, value)
        adjusted[idx] = running_max
    return adjusted


@dataclass
class ComparisonMatrix:
    """Per-trial final fitness for every (problem, algorithm) cell."""

    problems: list
    algorithms: list
    samples: dict  # (problem, algorithm) -> 1-D array of trial finals

    def __post_init__(self):
        if len(self.algorithms) < 2:
            raise ValueError("a comparison needs at least two algorithms")
        for prob in self.problems:
            for alg in self.algorithms:
                if (prob, alg) not in self.samples:
                    raise ValueError(f"missing samples for ({prob!r}, {alg!r})")
        self.samples = {
            key: np.asarray(value, dtype=float)
            for key, value in self.samples.items()
        }

    def mean(self, problem, algorithm) -> float:
        return float(self.samples[(problem, algorithm)].mean())

    def std(self, problem, algorithm) -> float:
        return float(self.samples[(problem, algorithm)].std())


def significance_marks(
    matrix: ComparisonMatrix, reference, alpha: float = 0.05
) -> dict:
    """Per-cell mark versus the reference algorithm.

    '+' means the reference is significantly better (lower median) after
    a per-problem Holm correction of the two-sided Mann-Whitney p-values,
    '-' significantly worse, '~' no significant difference.
    """
    if reference not in matrix.algorithms:
        raise ValueError(f"reference {reference!r} is not an algorithm column")
    others = [alg for alg in matrix.algorithms if alg != reference]
    marks = {}
    for prob in matrix.problems:
        ref_sample = matrix.samples[(prob, reference)]
        raw = [
            mann_whitney_u(ref_sample, matrix.samples[(prob, alg)])[1]
            for alg in others
        ]
        adjusted = holm_adjust(raw)
        for alg, p in zip(others, adjusted):
            if p < alpha:
                ref_med = float(np.median(ref_sample))
                other_med = float(np.median(matrix.samples[(prob, alg)]))
                if ref_med < other_med:
                    marks[(prob, alg)] = "+"
                elif ref_med > other_med:
                    marks[(prob, alg)] = "-"
                else:
                    marks[(prob, alg)] = "~"
            else:
                marks[(prob, alg)] = "~"
    return marks


def average_rank(matrix: ComparisonMatrix) -> dict:
    """Mean across problems of the per-problem rank of mean finals.

    Rank 1 is the lowest mean; tied means share midranks.
    """
    totals = {alg: 0.0 for alg in matrix.algorithms}
    for prob in matrix.problems:
        means = [matrix.mean(prob, alg) for alg in matrix.algorithms]
        for alg, rank in zip(matrix.algorithms, _midranks(means)):
            totals[alg] += float(rank)
    return {alg: total / len(matrix.problems) for alg, total in totals.items()}
