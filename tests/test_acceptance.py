"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings. Deterministic seeds throughout; the timing criterion
(11) measures wall time at operating points where the linear cost terms
dominate interpreter overhead.
"""

import itertools
import math
import time

import numpy as np
import pytest

import battleopt as bo
from battleopt.core import make_rng
from battleopt.discrete import CODE_COUNT
from battleopt.levy import levy_sample, levy_sigma
from battleopt.mbgo import RADIUS_EPSILON

from conftest import FixedRng, make_individual as ind, row


def _report(number, title, started, detail=""):
    elapsed = time.perf_counter() - started
    print(f"[acceptance] criterion {number:2d} ({title}): PASS in {elapsed:.1f}s {detail}")


# -- criterion 1: operator unit suite ----------------------------------------


def test_criterion_01_operator_units():
    started = time.perf_counter()
    box = bo.Bounds.cube(-100.0, 100.0, 2)

    # clamp: projection, identity inside, boundary fixed points
    np.testing.assert_array_equal(bo.clamp(np.array([150.0, -150.0]), box), [100.0, -100.0])
    np.testing.assert_array_equal(bo.clamp(np.array([0.0, 50.0]), box), [0.0, 50.0])
    np.testing.assert_array_equal(bo.clamp(np.array([-100.0, 100.0]), box), [-100.0, 100.0])

    # init: degenerate bounds rejected, uniform support, determinism
    with pytest.raises(ValueError):
        bo.Bounds(np.zeros(1), np.zeros(1))
    X = bo.init_population(5, bo.Bounds.cube(-100.0, 100.0, 3), make_rng(0))
    assert all(box3 in [-100.0, 100.0] or abs(box3) <= 100.0
               for position in X for box3 in position)
    a = bo.init_population(4, box, make_rng(5))
    b = bo.init_population(4, box, make_rng(5))
    assert all(np.array_equal(x, y) for x, y in zip(a, b))

    # greedy replacement: strict improvement, tie keeps parent, worse rejected
    parent = ind([0.0], 5.0)
    assert bo.greedy_replace(parent, ind([1.0], 3.0)).fitness == 3.0
    assert bo.greedy_replace(parent, ind([1.0], 5.0)) is parent
    assert bo.greedy_replace(parent, ind([1.0], 7.0)) is parent

    # best/worst extraction with index tie-breaks
    best, worst = bo.best_worst([3.0, 1.0, 2.0])
    assert best == 1 and worst == 0
    assert bo.best_worst([1.0, 1.0, 1.0]) == (0, 0)
    assert bo.best_worst([2.0, 9.0]) == (0, 1)

    # safe zone radius: collapsed population, 3-4-5 distance
    radius = bo.safe_zone_radius(row([1.0, 1.0]), row([1.0, 1.0]), FixedRng(uniforms=[0.5]))
    assert radius == RADIUS_EPSILON
    radius = bo.safe_zone_radius(row([0.0, 0.0]), row([3.0, 4.0]), FixedRng(uniforms=[0.5]))
    assert radius == pytest.approx(5.0 + RADIUS_EPSILON, rel=1e-15)

    # membership: center, boundary inclusive, outside
    center, radius = np.zeros(2), 5.0
    assert bo.in_safe_zone(row([0.0, 0.0]), center, radius)
    assert bo.in_safe_zone(row([3.0, 4.0]), center, radius)
    assert not bo.in_safe_zone(row([0.0, 6.0]), center, radius)

    # in-zone move at fixed r
    x_i, x_best = row([1.0, 1.0]), row([2.0, -2.0])
    np.testing.assert_allclose(bo.move_inside(x_i, x_best, FixedRng(uniforms=[0.5])), [1.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(bo.move_inside(x_i, x_best, FixedRng(uniforms=[0.25])), [3.0, -1.0], rtol=1e-12)
    np.testing.assert_allclose(bo.move_inside(x_i, x_best, FixedRng(uniforms=[0.75])), [-1.0, 3.0], rtol=1e-12)

    # out-of-zone move: convex limit and coincident best
    out = bo.move_outside(row([0.0]), row([8.0]), FixedRng(uniforms=[0.999999], normals=[0.0]))
    np.testing.assert_allclose(out, [8.0 * 0.999999], rtol=1e-12)
    out = bo.move_outside(row([3.0]), row([3.0]), FixedRng(uniforms=[0.9], normals=[0.0]))
    np.testing.assert_allclose(out, [3.0], rtol=1e-15)

    # battle direction dispatch
    np.testing.assert_array_equal(bo.battle_dir(row([5.0]), 1.0, row([3.0]), 2.0), [2.0])
    np.testing.assert_array_equal(bo.battle_dir(row([5.0]), 2.0, row([3.0]), 1.0), [-2.0])
    np.testing.assert_array_equal(bo.battle_dir(row([5.0]), 1.0, row([3.0]), 1.0), [-2.0])

    # battle vs stronger: zero direction and coincident positions
    out = bo.battle_vs_stronger(row([1.0, 2.0]), row([4.0, 6.0]), np.zeros(2), FixedRng(uniforms=[0.1, 0.9]))
    np.testing.assert_array_equal(out, [1.0, 6.0])
    out = bo.battle_vs_stronger(row([2.0]), row([2.0]), np.zeros(1), FixedRng(uniforms=[0.7]))
    np.testing.assert_array_equal(out, [2.0])

    # battle vs weaker at fixed r
    direction = np.array([2.0, -2.0])
    np.testing.assert_allclose(bo.battle_vs_weaker(row([1.0, 1.0]), direction, FixedRng(uniforms=[0.25])), [1.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(bo.battle_vs_weaker(row([1.0, 1.0]), direction, FixedRng(uniforms=[0.0])), [3.0, -1.0], rtol=1e-12)
    np.testing.assert_allclose(bo.battle_vs_weaker(row([1.0, 1.0]), direction, FixedRng(uniforms=[0.5])), [-1.0, 3.0], rtol=1e-12)

    # differential mutation fixed-r cases
    np.testing.assert_allclose(
        bo.diff_mutation(row([2.0]), row([2.0]), np.array([2.0]), FixedRng(uniforms=[0.3, 0.9])), [2.0], rtol=1e-15
    )
    np.testing.assert_allclose(
        bo.diff_mutation(row([1.0]), row([4.0]), np.array([9.0]), FixedRng(uniforms=[0.5, 0.5])), [1.0], atol=1e-12
    )
    np.testing.assert_allclose(
        bo.diff_mutation(row([0.0]), row([4.0]), np.array([9.0]), FixedRng(uniforms=[0.25, 0.5])), [4.0], atol=1e-12
    )

    # levy move zero numerator
    out = bo.levy_move(row([5.0, -5.0]), 1.5, FixedRng(normals=[0.0, 0.0, 0.3, 0.4]))
    np.testing.assert_array_equal(out, [5.0, -5.0])

    # transfer boundaries, bit exact, plus the piecewise anchors
    assert bo.transfer(-60.0) == 1 and bo.transfer(-20.0) == 2
    assert bo.transfer(20.0) == 3 and bo.transfer(60.0) == 4
    assert bo.transfer(-100.0) == 0 and bo.transfer(0.0) == 2 and bo.transfer(100.0) == 4
    assert bo.decode(np.zeros(6)) == (2,) * 6
    assert bo.decode(np.array([-100.0, -60.0, -20.0, 20.0, 60.0, 100.0])) == (0, 1, 2, 3, 4, 4)

    # static penalty cases
    assert bo.penalized_fitness(3.0, [-1.0, -5.0]) == 3.0
    assert bo.penalized_fitness(1.0, [0.5, -2.0], w=1e7) == pytest.approx(5_000_001.0)
    assert bo.penalized_fitness(0.0, [0.0]) == 0.0

    # benchmark spot values
    assert bo.evaluate_benchmark("sphere", np.zeros(6)) == 0.0
    assert bo.evaluate_benchmark("rastrigin", np.array([1.0, 0.0])) == pytest.approx(1.0, abs=1e-12)
    assert bo.evaluate_benchmark("bent-cigar", np.array([1.0, 1.0])) == pytest.approx(1.0 + 1e6, rel=1e-15)

    _report(1, "operator units", started)


# -- criterion 2: Levy suite ---------------------------------------------------


def test_criterion_02_levy_suite():
    started = time.perf_counter()
    assert levy_sigma(1.0) == 1.0
    assert abs(levy_sigma(1.5) - 0.6965745025576968) < 1e-9

    steps = levy_sample(1.5, 1_000_000, make_rng(7))
    tail = float(np.mean(np.abs(steps) > 5.0))
    positive = float(np.mean(steps > 0))
    p999 = float(np.quantile(np.abs(steps), 0.999))
    assert tail >= 0.004
    assert 0.49 <= positive <= 0.51
    assert p999 >= 2.0 * 3.29
    _report(2, "levy", started, f"tail={tail:.4f} pos={positive:.4f} p999={p999:.1f}")


# -- criterion 3: monotone traces and box invariance ---------------------------


def _recording_problem(problem):
    visited = []

    def evaluate(x, _inner=problem.evaluate):
        visited.append(np.array(x))
        return _inner(x)

    clone = bo.Problem(
        name=problem.name,
        dim=problem.dim,
        bounds=problem.bounds,
        evaluate=evaluate,
        constraints=problem.constraints,
        known_optimum=problem.known_optimum,
    )
    return clone, visited


RUNNERS = {
    "mbgo": lambda p, c: bo.run_mbgo(p, c),
    "embgo": lambda p, c: bo.run_embgo(p, c),
    "de": lambda p, c: bo.run_de(p, c),
    "random": lambda p, c: bo.run_random_search(p, c),
}


def test_criterion_03_monotonicity_and_box_invariance():
    started = time.perf_counter()
    problems = [
        bo.make_problem("sphere", 6),
        bo.resolve_problem("rastrigin:sr", 6),
        bo.make_problem("ackley", 6),
    ]
    checked = 0
    for problem in problems:
        for name, runner in RUNNERS.items():
            for seed in range(5):
                recorder, visited = _recording_problem(problem)
                config = bo.OptimizerConfig(pop_size=10, budget=800, seed=seed)
                result = runner(recorder, config)
                fits = [f for _, f in result.trace]
                assert all(b <= a for a, b in zip(fits, fits[1:])), (problem.name, name)
                lo, hi = problem.bounds.lower, problem.bounds.upper
                positions = np.array(visited)
                assert np.all(positions >= lo) and np.all(positions <= hi)
                assert len(visited) == result.fes_used == 800
                checked += 1
    _report(3, "monotone+in-bounds", started, f"{checked} runs")


# -- criterion 4: determinism ----------------------------------------------------


def test_criterion_04_determinism():
    started = time.perf_counter()
    problem = bo.resolve_problem("rastrigin:sr", 8)
    for name, runner in RUNNERS.items():
        config = bo.OptimizerConfig(pop_size=12, budget=1200, seed=31)
        first = runner(problem, config).serialize()
        second = runner(problem, config).serialize()
        assert first.encode() == second.encode(), name
    _report(4, "determinism", started)


# -- criterion 5: dominance anchor -------------------------------------------------


def test_criterion_05_dominance_anchor(random_sphere_finals):
    started = time.perf_counter()
    sphere = bo.make_problem("sphere", 10)
    rastrigin = bo.make_problem("rastrigin", 10)

    embgo_sphere, embgo_rast, random_rast = [], [], []
    for seed in range(10):
        config = bo.OptimizerConfig(pop_size=50, budget=20000, seed=seed)
        embgo_sphere.append(bo.run_embgo(sphere, config).final_fitness)
        embgo_rast.append(bo.run_embgo(rastrigin, config).final_fitness)
        random_rast.append(bo.run_random_search(rastrigin, config).final_fitness)

    sphere_margin = np.median(random_sphere_finals) / max(np.median(embgo_sphere), 1e-300)
    assert np.median(embgo_sphere) < np.median(random_sphere_finals)
    assert sphere_margin >= 10.0
    assert np.median(embgo_rast) < np.median(random_rast)
    _report(5, "dominance anchor", started, f"sphere margin {sphere_margin:.1e}")


# -- criterion 6: directional check vs the original ----------------------------------


def test_criterion_06_directional_check():
    # Protocol-faithful reading: population 100 and the seeded
    # shift/rotate stand-in transform on both functions (the comparison
    # protocol never evaluates unshifted functions, whose origin optimum
    # rewards origin-biased movement operators).
    started = time.perf_counter()
    outcomes = {}
    for spec in ("rastrigin:sr", "bent-cigar:sr"):
        problem = bo.resolve_problem(spec, 10)
        embgo_finals, mbgo_finals = [], []
        for seed in range(30):
            config = bo.OptimizerConfig(pop_size=100, budget=20000, seed=seed)
            embgo_finals.append(bo.run_embgo(problem, config).final_fitness)
            mbgo_finals.append(bo.run_mbgo(problem, config).final_fitness)
        _, p_worse = bo.mann_whitney_u(embgo_finals, mbgo_finals, alternative="greater")
        _, p_better = bo.mann_whitney_u(embgo_finals, mbgo_finals, alternative="less")
        outcomes[spec] = (p_worse, p_better)
        assert p_worse >= 0.05, f"significantly worse on {spec} (p={p_worse:.4f})"
    assert any(p_better < 0.05 for _, p_better in outcomes.values()), outcomes
    detail = " ".join(
        f"{spec}: p_worse={pw:.3f} p_better={pb:.2e}" for spec, (pw, pb) in outcomes.items()
    )
    _report(6, "directional", started, detail)


# -- criterion 7: per-iteration evaluation accounting ---------------------------------


def test_criterion_07_fe_accounting():
    started = time.perf_counter()
    n, iters = 20, 4

    problem = bo.make_problem("sphere", 5)
    recorder, visited = _recording_problem(problem)
    result = bo.run_mbgo(recorder, bo.OptimizerConfig(pop_size=n, budget=n + 2 * n * iters, seed=3))
    assert len(visited) == n + 2 * n * iters
    fes = [f for f, _ in result.trace]
    assert all(b - a == 2 * n for a, b in zip(fes, fes[1:]))

    recorder, visited = _recording_problem(problem)
    result = bo.run_embgo(recorder, bo.OptimizerConfig(pop_size=n, budget=n + n * iters, seed=3))
    assert len(visited) == n + n * iters
    fes = [f for f, _ in result.trace]
    assert all(b - a == n for a, b in zip(fes, fes[1:]))
    _report(7, "FE accounting", started)


# -- criterion 8: truss anchor ----------------------------------------------------------


def test_criterion_08_truss_anchor():
    started = time.perf_counter()
    problem = bo.three_bar_truss_problem(penalty_weight=1e7)
    finals = []
    for seed in range(30):
        config = bo.OptimizerConfig(pop_size=100, budget=10000, seed=seed)
        finals.append(bo.run_embgo(problem, config).final_fitness)
    best = min(finals)
    assert 263.89 <= best <= 264.5, best
    _report(8, "truss anchor", started, f"best-of-30 = {best:.6f}")


# -- criterion 9: discrete search oracle equivalence --------------------------------------


def test_criterion_09_arnas_oracle_and_search():
    started = time.perf_counter()
    table = bo.synthetic_table(seed=2026)

    # independent second enumeration (dict scan, no lexicographic generator)
    code, acc = bo.brute_force_optimum(table)
    oracle_acc = max(table.entries.values())
    oracle_code = min(c for c, a in table.entries.items() if a == oracle_acc)
    assert (code, acc) == (oracle_code, oracle_acc)

    accuracies = np.sort(np.array(list(table.entries.values())))[::-1]
    top1_threshold = accuracies[int(0.01 * CODE_COUNT) - 1]
    problem = bo.table_problem(table)
    hits = 0
    for seed in range(10):
        config = bo.OptimizerConfig(pop_size=50, budget=5000, seed=seed)
        result = bo.run_embgo(problem, config)
        hits += (-result.final_fitness) >= top1_threshold
    assert hits >= 8, f"only {hits}/10 seeds reached the top 1%"
    _report(9, "discrete search", started, f"{hits}/10 top-1% hits")


# -- criterion 10: statistics oracle -------------------------------------------------------


def _enumeration_oracle(a, b):
    combined = list(a) + list(b)
    na, nb = len(a), len(b)
    mu = na * nb / 2.0

    def u_of(xs, ys):
        return sum(
            1.0 if x > y else 0.5 if x == y else 0.0 for x in xs for y in ys
        )

    u_obs = u_of(a, b)
    hits = total = 0
    for idx in itertools.combinations(range(na + nb), na):
        chosen = [combined[i] for i in idx]
        rest = [combined[i] for i in range(na + nb) if i not in idx]
        total += 1
        hits += abs(u_of(chosen, rest) - mu) >= abs(u_obs - mu)
    return u_obs, hits / total


def test_criterion_10_statistics_oracle():
    started = time.perf_counter()
    rng = make_rng(77)
    pairs = [(na, nb) for na in range(1, 37) for nb in range(1, 37) if na * nb <= 36]
    for na, nb in pairs:
        a = rng.integers(0, 5, na).astype(float)
        b = rng.integers(0, 5, nb).astype(float)
        u, p = bo.mann_whitney_u(a, b)
        u_oracle, p_oracle = _enumeration_oracle(list(a), list(b))
        assert u == pytest.approx(u_oracle)
        assert p == pytest.approx(p_oracle), (na, nb)

    assert bo.holm_adjust([0.5]) == [0.5]
    assert bo.holm_adjust([0.01, 0.04]) == pytest.approx([0.02, 0.04])
    assert bo.holm_adjust([0.03, 0.01, 0.04]) == pytest.approx([0.06, 0.03, 0.06])

    fuzz_rng = make_rng(11)
    for _ in range(10_000):
        n = int(fuzz_rng.integers(1, 10))
        d = int(fuzz_rng.integers(1, 5))
        box = bo.Bounds.cube(-3.0, 3.0, d)
        positions = fuzz_rng.uniform(-3.0, 3.0, size=(n, d))
        pd = bo.population_diversity(positions, box)
        assert 0.0 <= pd <= 1.0
    _report(10, "statistics oracle", started, f"{len(pairs)} exact MW pairs")


# -- criterion 11: complexity scaling --------------------------------------------------------


def _embgo_seconds(n, dim, iters):
    problem = bo.make_problem("sphere", dim)
    config = bo.OptimizerConfig(pop_size=n, budget=n + n * iters, seed=0)
    t0 = time.perf_counter()
    bo.run_embgo(problem, config)
    return time.perf_counter() - t0


def _span_factor(base, double, pairs=5):
    # Geometric mean per doubling across a 4x span, measured as the median
    # over interleaved base/double pairs so that a machine-speed shift
    # between measurements cannot skew the ratio.
    ratios = []
    for _ in range(pairs):
        ratios.append(
            math.sqrt(_embgo_seconds(*double) / _embgo_seconds(*base))
        )
    ratios.sort()
    return ratios[len(ratios) // 2]


def test_criterion_11_complexity_scaling():
    # Operating points sit where the linear cost term dominates interpreter
    # overhead; the 4x span per axis amortizes cache cliffs that make any
    # single doubling machine-state dependent.
    started = time.perf_counter()
    ratio_n = _span_factor((40, 16, 150), (160, 16, 150))
    ratio_d = _span_factor((64, 2048, 30), (64, 8192, 30))
    assert 1.5 <= ratio_n <= 3.0, f"N-doubling factor {ratio_n:.2f}"
    assert 1.5 <= ratio_d <= 3.0, f"D-doubling factor {ratio_d:.2f}"
    _report(11, "complexity scaling", started, f"2N factor {ratio_n:.2f}, 2D factor {ratio_d:.2f}")
