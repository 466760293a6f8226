import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from battleopt import (
    Bounds,
    ComparisonMatrix,
    Individual,
    average_rank,
    holm_adjust,
    mann_whitney_u,
    population_diversity,
    significance_marks,
)
from battleopt.core import make_rng
from battleopt.stats import EXACT_ENUMERATION_LIMIT, _midranks


# --- population diversity ----------------------------------------------------


def test_diversity_identical_members_is_zero():
    box = Bounds.cube(-100.0, 100.0, 3)
    pop = [Individual(np.ones(3)) for _ in range(5)]
    assert population_diversity(pop, box) == 0.0


def test_diversity_two_members_at_bounds():
    box = Bounds.cube(-100.0, 100.0, 1)
    pop = [Individual(np.array([-100.0])), Individual(np.array([100.0]))]
    assert population_diversity(pop, box) == pytest.approx(0.5)


def test_diversity_single_member_is_zero():
    box = Bounds.cube(0.0, 1.0, 4)
    assert population_diversity([Individual(np.full(4, 0.3))], box) == 0.0


def test_diversity_accepts_position_matrix():
    box = Bounds.cube(-1.0, 1.0, 2)
    positions = np.array([[-1.0, 0.0], [1.0, 0.0]])
    assert population_diversity(positions, box) == pytest.approx(0.25)


def test_diversity_bounded_fuzz():
    rng = make_rng(123)
    for _ in range(500):
        n = int(rng.integers(1, 12))
        d = int(rng.integers(1, 6))
        box = Bounds.cube(-5.0, 5.0, d)
        positions = rng.uniform(-5.0, 5.0, size=(n, d))
        pd = population_diversity(positions, box)
        assert 0.0 <= pd <= 1.0


# --- midranks ------------------------------------------------------------------

SPECIAL_VALUES = [0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, 5e-324, 1e300]


def assert_scipy_midranks(values):
    """``_midranks`` equals scipy's average-method ranks bit for bit."""
    ours = _midranks(values)
    oracle = rankdata(values, method="average")
    assert ours.dtype == np.float64 and ours.shape == oracle.shape
    np.testing.assert_array_equal(ours.view(np.int64), oracle.view(np.int64))
    return ours


@st.composite
def tie_heavy_values(draw, min_size=0):
    """0-64 values drawn from a pool of at most five, so most of them tie."""
    pool = draw(st.lists(
        st.one_of(st.sampled_from(SPECIAL_VALUES), st.floats(allow_nan=False)),
        min_size=1, max_size=5,
    ))
    return draw(st.lists(st.sampled_from(pool), min_size=min_size, max_size=64))


@given(tie_heavy_values())
@settings(max_examples=300)
@example([])
@example([0.0, -0.0, -0.0, 0.0])
@example([math.inf, -math.inf, math.inf, 1.0, -math.inf])
@example([2.0] * 64)
def test_midranks_match_scipy(values):
    assert_scipy_midranks(np.array(values))


@given(st.lists(st.floats(allow_nan=False), max_size=64))
@settings(max_examples=100)
def test_midranks_of_distinct_values_match_scipy(values):
    assert_scipy_midranks(np.array(values))


@given(tie_heavy_values(min_size=1), st.data())
@settings(max_examples=100)
def test_midranks_with_a_nan_anywhere_are_all_nan(values, data):
    values = np.array(values)
    values[data.draw(st.integers(0, values.size - 1))] = math.nan
    assert np.isnan(assert_scipy_midranks(values)).all()


@given(st.lists(st.sampled_from([0.0, -0.0, 1.0, -math.inf, math.inf]), min_size=2, max_size=6),
       st.integers(1, 4), st.data())
@settings(max_examples=100)
def test_average_rank_of_tied_means_matches_scipy(first, problems, data):
    k = len(first)
    values = st.lists(st.sampled_from([0.0, -0.0, 1.0, -math.inf, math.inf]),
                      min_size=k, max_size=k)
    means = [first] + [data.draw(values) for _ in range(problems - 1)]
    algorithms = [f"a{j}" for j in range(k)]
    samples = {(f"p{i}", alg): [row[j], row[j]]
               for i, row in enumerate(means) for j, alg in enumerate(algorithms)}
    totals = [0.0] * k
    for row in means:
        for j, rank in enumerate(rankdata(row, method="average")):
            totals[j] += float(rank)
    expected = {alg: total / problems for alg, total in zip(algorithms, totals)}
    assert average_rank(_matrix(samples)) == expected


# --- Mann-Whitney ------------------------------------------------------------


def oracle_exact_p(a, b, alternative="two-sided"):
    """Independent enumeration: count pairwise wins per labeling."""
    combined = list(a) + list(b)
    na = len(a)
    mu = na * len(b) / 2.0

    def u_of(sample_a, sample_b):
        u = 0.0
        for x in sample_a:
            for y in sample_b:
                if x > y:
                    u += 1.0
                elif x == y:
                    u += 0.5
        return u

    u_obs = u_of(a, b)
    hits = total = 0
    for idx in itertools.combinations(range(len(combined)), na):
        chosen = [combined[i] for i in idx]
        rest = [combined[i] for i in range(len(combined)) if i not in idx]
        u = u_of(chosen, rest)
        total += 1
        if alternative == "two-sided":
            hits += abs(u - mu) >= abs(u_obs - mu)
        elif alternative == "less":
            hits += u <= u_obs
        else:
            hits += u >= u_obs
    return u_obs, hits / total


def enumerated_exact_p(a, b, alternative="two-sided"):
    """The p-value by walking every labeling of the midranks, in float units."""
    combined = np.concatenate([np.asarray(a, dtype=float), np.asarray(b, dtype=float)])
    ranks = rankdata(combined, method="average")
    na, n = len(a), combined.size
    offset = na * (na + 1) / 2.0
    mu = na * (n - na) / 2.0
    u_obs = float(ranks[:na].sum() - offset)
    total = 0
    hits = 0
    for subset in itertools.combinations(range(n), na):
        u = ranks[list(subset)].sum() - offset
        total += 1
        if alternative == "two-sided":
            hits += abs(u - mu) >= abs(u_obs - mu)
        elif alternative == "less":
            hits += u <= u_obs
        else:
            hits += u >= u_obs
    return hits / total


@st.composite
def exact_path_samples(draw):
    """Integer-valued (tie-heavy) samples with n_a * n_b on the exact path."""
    na = draw(st.integers(1, EXACT_ENUMERATION_LIMIT))
    nb = draw(st.integers(1, EXACT_ENUMERATION_LIMIT // na))
    values = st.integers(0, 5).map(float)
    a = draw(st.lists(values, min_size=na, max_size=na))
    b = draw(st.lists(values, min_size=nb, max_size=nb))
    return a, b


ALTERNATIVES = ("two-sided", "less", "greater")


@given(exact_path_samples(), st.sampled_from(ALTERNATIVES))
@settings(max_examples=100, deadline=None)
@example(([0.0], [float(v % 3) for v in range(64)]), "two-sided")
@example(([1.0], [float(v % 3) for v in range(64)]), "less")
@example(([2.0], [float(v % 3) for v in range(64)]), "greater")
@example(([float(v % 3) for v in range(64)], [1.0]), "two-sided")
@example(([float(v % 3) for v in range(64)], [2.0]), "less")
@example(([float(v % 3) for v in range(64)], [0.0]), "greater")
@example(([0.0, 1, 1, 2, 3, 3, 3, 5], [1.0, 2, 2, 2, 4, 4, 5, 5]), "two-sided")
@example(([0.0, 1, 1, 2, 3, 3, 3, 5], [1.0, 2, 2, 2, 4, 4, 5, 5]), "less")
@example(([0.0, 1, 1, 2, 3, 3, 3, 5], [1.0, 2, 2, 2, 4, 4, 5, 5]), "greater")
@example(([3.0] * 8, [3.0] * 8), "two-sided")
def test_mw_exact_p_is_bit_identical_to_enumeration(samples, alternative):
    a, b = samples
    assert mann_whitney_u(a, b, alternative)[1] == enumerated_exact_p(a, b, alternative)


def test_mw_textbook_example():
    u, p = mann_whitney_u([1.0, 2.0], [3.0, 4.0])
    assert u == 0.0
    assert p == pytest.approx(1.0 / 3.0)


def test_mw_identical_samples():
    _, p = mann_whitney_u([5.0, 5.0, 5.0], [5.0, 5.0, 5.0])
    assert p >= 0.99


def test_mw_u_identity():
    rng = make_rng(2)
    for _ in range(50):
        a = rng.integers(0, 6, size=int(rng.integers(1, 9))).astype(float)
        b = rng.integers(0, 6, size=int(rng.integers(1, 9))).astype(float)
        ua, _ = mann_whitney_u(a, b)
        ub, _ = mann_whitney_u(b, a)
        assert ua + ub == pytest.approx(len(a) * len(b))


def test_mw_rejects_empty():
    with pytest.raises(ValueError):
        mann_whitney_u([], [1.0])
    with pytest.raises(ValueError):
        mann_whitney_u([1.0], [])
    with pytest.raises(ValueError):
        mann_whitney_u([1.0], [2.0], alternative="sideways")


@pytest.mark.parametrize(
    "a, b",
    [
        ([math.nan, 1.0], [2.0, 3.0]),  # 2 x 2: exact path
        ([1.0, 2.0], [3.0, math.nan]),
        ([math.nan] * 9, [math.nan] * 9),  # 9 x 9: normal approximation
        (list(range(9)), [*range(8), math.nan]),
    ],
)
@pytest.mark.parametrize("alternative", ["two-sided", "less", "greater"])
def test_mw_rejects_nan_in_either_sample(a, b, alternative):
    with pytest.raises(ValueError, match="must not contain NaN"):
        mann_whitney_u(a, b, alternative)


def test_mw_exact_matches_oracle_with_ties():
    rng = make_rng(31)
    for _ in range(30):
        na = int(rng.integers(1, 7))
        nb = int(rng.integers(1, 7))
        a = rng.integers(0, 4, na).astype(float)
        b = rng.integers(0, 4, nb).astype(float)
        for alt in ("two-sided", "less", "greater"):
            u, p = mann_whitney_u(a, b, alternative=alt)
            u_o, p_o = oracle_exact_p(list(a), list(b), alt)
            assert u == pytest.approx(u_o)
            assert p == pytest.approx(p_o)


def test_mw_normal_approx_close_to_exact_at_8x8():
    rng = make_rng(17)
    from battleopt.stats import _normal_approx_p

    for _ in range(100):
        a = rng.normal(size=8)
        b = rng.normal(loc=rng.uniform(-1, 1), size=8)
        u, p_exact = mann_whitney_u(a, b)  # 64 <= limit, exact path
        p_norm = _normal_approx_p(np.concatenate([a, b]), 8, 8, u, "two-sided")
        assert abs(p_exact - min(1.0, p_norm)) <= 0.02


# --- Holm ---------------------------------------------------------------------


def test_holm_examples():
    assert holm_adjust([0.5]) == [0.5]
    assert holm_adjust([0.01, 0.04]) == pytest.approx([0.02, 0.04])
    assert holm_adjust([0.03, 0.01, 0.04]) == pytest.approx([0.06, 0.03, 0.06])


def test_holm_rejects_out_of_range():
    with pytest.raises(ValueError):
        holm_adjust([0.5, 1.5])
    with pytest.raises(ValueError):
        holm_adjust([-0.1])


@given(st.lists(st.floats(0, 1), min_size=1, max_size=8))
@settings(max_examples=200)
def test_holm_order_preserving_and_bounded(ps):
    adjusted = holm_adjust(ps)
    assert all(0.0 <= p <= 1.0 for p in adjusted)
    assert all(a >= p for a, p in zip(adjusted, ps))
    order = sorted(range(len(ps)), key=ps.__getitem__)
    ranked = [adjusted[i] for i in order]
    assert all(y >= x for x, y in zip(ranked, ranked[1:]))


# --- marks and ranks ------------------------------------------------------------


def _matrix(samples):
    problems = sorted({p for p, _ in samples})
    algorithms = sorted({a for _, a in samples})
    return ComparisonMatrix(problems=problems, algorithms=algorithms, samples=samples)


def test_marks_identical_column_is_tilde():
    sample = list(range(10))
    m = _matrix({("p1", "ref"): sample, ("p1", "other"): list(sample)})
    marks = significance_marks(m, "ref")
    assert marks[("p1", "other")] == "~"


def test_marks_dominated_column_is_plus():
    ref = np.linspace(0.0, 1.0, 30)
    other = np.linspace(10.0, 11.0, 30)
    m = _matrix({("p1", "ref"): ref, ("p1", "other"): other})
    assert significance_marks(m, "ref")[("p1", "other")] == "+"
    assert significance_marks(m, "other")[("p1", "ref")] == "-"


def test_marks_partition_problem_count():
    rng = make_rng(5)
    samples = {}
    problems = ["p1", "p2", "p3"]
    for prob in problems:
        for alg in ("ref", "a", "b"):
            samples[(prob, alg)] = rng.normal(size=12)
    m = _matrix(samples)
    marks = significance_marks(m, "ref")
    for alg in ("a", "b"):
        assert sum(1 for (p, a) in marks if a == alg) == len(problems)
    assert all(v in "+~-" for v in marks.values())


def test_marks_requires_known_reference():
    m = _matrix({("p1", "x"): [1.0, 2.0], ("p1", "y"): [1.0, 2.0]})
    with pytest.raises(ValueError):
        significance_marks(m, "missing")


def test_average_rank_single_problem():
    m = _matrix(
        {
            ("p1", "a"): [3.0, 3.0],
            ("p1", "b"): [1.0, 1.0],
            ("p1", "c"): [2.0, 2.0],
        }
    )
    ranks = average_rank(m)
    assert ranks == {"a": 3.0, "b": 1.0, "c": 2.0}


def test_average_rank_midrank_for_ties():
    m = _matrix({("p1", "a"): [1.0, 1.0], ("p1", "b"): [1.0, 1.0]})
    ranks = average_rank(m)
    assert ranks == {"a": 1.5, "b": 1.5}


def test_rank_sums_permutation_identity():
    rng = make_rng(9)
    samples = {}
    algorithms = ["a", "b", "c", "d"]
    for prob in ("p1", "p2"):
        for i, alg in enumerate(algorithms):
            samples[(prob, alg)] = rng.normal(loc=i, size=5)
    m = _matrix(samples)
    ranks = average_rank(m)
    k = len(algorithms)
    assert sum(ranks.values()) == pytest.approx(k * (k + 1) / 2)


def test_matrix_validation():
    with pytest.raises(ValueError):
        ComparisonMatrix(problems=["p"], algorithms=["a"], samples={("p", "a"): [1.0]})
    with pytest.raises(ValueError):
        ComparisonMatrix(
            problems=["p"], algorithms=["a", "b"], samples={("p", "a"): [1.0]}
        )
