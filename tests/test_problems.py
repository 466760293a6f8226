import math

import numpy as np
import pytest

from battleopt import (
    ConfigurationError,
    SingularPointError,
    Transform,
    apply_transform,
    benchmark_optimum,
    evaluate_benchmark,
    make_problem,
    penalized_fitness,
    random_orthogonal,
    random_transform,
    resolve_problem,
    three_bar_truss,
    three_bar_truss_problem,
)
from battleopt.core import Bounds, make_rng
from battleopt.problems import BENCHMARK_NAMES

SQRT2 = math.sqrt(2.0)


def test_spot_values():
    assert evaluate_benchmark("sphere", np.zeros(5)) == 0.0
    assert evaluate_benchmark("rastrigin", np.zeros(4)) == 0.0
    assert evaluate_benchmark("rastrigin", np.array([1.0, 0.0])) == pytest.approx(1.0, abs=1e-12)
    assert evaluate_benchmark("bent-cigar", np.array([1.0, 1.0])) == pytest.approx(
        1.0 + 1e6, rel=1e-15
    )


def test_unknown_benchmark_rejected():
    with pytest.raises(KeyError):
        evaluate_benchmark("does-not-exist", np.zeros(3))
    with pytest.raises(KeyError):
        make_problem("does-not-exist", 3)


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_canonical_optimum_is_zero(name):
    for dim in (2, 10):
        problem = make_problem(name, dim)
        optimum = benchmark_optimum(name, dim)
        assert problem.bounds.contains(optimum)
        assert abs(problem.evaluate(optimum)) <= 1e-12


def test_identity_transform_is_identity():
    t = Transform(shift=np.zeros(3), rotation=np.eye(3))
    x = np.array([1.0, -2.0, 3.0])
    np.testing.assert_array_equal(apply_transform(t, x), x)


@pytest.mark.parametrize("offset", [0, 8, 16, 24, 32, 40, 48, 56])
def test_rotation_is_held_64_byte_aligned_with_the_same_bits(offset):
    # gemv over a rotation placed 16 bytes off a 32-byte boundary is slower
    dim = 300
    m = random_orthogonal(dim, make_rng(3))
    raw = np.empty(m.nbytes + 128, dtype=np.uint8)
    start = -raw.ctypes.data % 64 + offset
    placed = raw[start:start + m.nbytes].view(np.float64).reshape(m.shape)
    placed[...] = m
    t = Transform(shift=np.zeros(dim), rotation=placed)
    assert t.rotation.ctypes.data % 64 == 0
    assert t.rotation.tobytes() == m.tobytes()
    x = make_rng(4).uniform(-5.0, 5.0, dim)
    assert apply_transform(t, x).tobytes() == (placed @ x).tobytes()


def test_transform_maps_rows_with_each_vectors_bits():
    t = random_transform(33, Bounds.cube(-100.0, 100.0, 33), make_rng(5))
    X = make_rng(6).uniform(-100.0, 100.0, (7, 33))
    Z = apply_transform(t, X)
    assert Z.shape == X.shape
    assert Z.tobytes() == np.array([apply_transform(t, x) for x in X]).tobytes()
    assert apply_transform(t, X[:0]).shape == (0, 33)
    for bad in (X[:, :32], X[None], X[0, 0]):
        with pytest.raises(ValueError, match="dimensions differ"):
            apply_transform(t, bad)


def test_transform_rejects_non_orthogonal():
    with pytest.raises(ValueError):
        Transform(shift=np.zeros(2), rotation=np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_transform_shift_cancellation_and_norm_preservation():
    rng = make_rng(4)
    bounds = Bounds.cube(-100.0, 100.0, 6)
    t = random_transform(6, bounds, rng)
    # shift maps to the raw origin
    np.testing.assert_allclose(apply_transform(t, t.shift), np.zeros(6), atol=1e-12)
    for _ in range(20):
        v = rng.normal(size=6)
        assert np.linalg.norm(t.rotation @ v) == pytest.approx(
            np.linalg.norm(v), abs=1e-9
        )


def test_random_orthogonal_is_orthogonal():
    for dim in (2, 5, 12):
        m = random_orthogonal(dim, make_rng(dim))
        np.testing.assert_allclose(m.T @ m, np.eye(dim), atol=1e-9)


def test_transformed_problem_optimum_inside_box():
    from scipy.optimize import minimize

    for name in ("sphere", "rosenbrock", "rastrigin"):
        problem = make_problem(name, 8, transform_seed=3)
        # reconstruct the transform from the same seed stream and recover
        # the transformed optimum o + M^T z*
        rng = make_rng(3)
        t = random_transform(8, problem.bounds, rng)
        optimum = t.shift + t.rotation.T @ benchmark_optimum(name, 8)
        assert problem.bounds.contains(optimum)
        assert problem.evaluate(optimum) <= 1e-9
        # local refinement from the optimum cannot go meaningfully below 0
        res = minimize(problem.evaluate, optimum, method="Nelder-Mead")
        assert res.fun >= -1e-9


def test_resolve_problem_grammar():
    assert resolve_problem("sphere", 5).name == "sphere"
    named = resolve_problem("sphere:sr7", 5)
    assert named.name == "sphere:sr7"
    implicit = resolve_problem("sphere:sr", 5)
    assert implicit.name.startswith("sphere:sr")
    # same string, same problem
    a = resolve_problem("sphere:sr", 5)
    x = make_rng(0).uniform(-50, 50, 5)
    assert a.evaluate(x) == implicit.evaluate(x)
    with pytest.raises(ConfigurationError):
        resolve_problem("sphere:xy", 5)


@pytest.mark.parametrize("spec", ["does-not-exist", "does-not-exist:sr", "does-not-exist:sr3"])
def test_resolve_problem_rejects_unknown_names(spec):
    with pytest.raises(ConfigurationError, match="does-not-exist"):
        resolve_problem(spec, 3)


def test_penalized_fitness_cases():
    assert penalized_fitness(3.0, [-1.0, -5.0]) == 3.0
    assert penalized_fitness(1.0, [0.5, -2.0], w=1e7) == pytest.approx(5_000_001.0)
    assert penalized_fitness(0.0, [0.0]) == 0.0
    with pytest.raises(ValueError):
        penalized_fitness(0.0, [0.0], w=0.0)


def test_penalty_never_below_raw_objective():
    rng = make_rng(8)
    for _ in range(200):
        f = float(rng.normal())
        g = rng.normal(size=3)
        assert penalized_fitness(f, g) >= f


def test_truss_values_at_ones():
    f, g = three_bar_truss(np.array([1.0, 1.0]))
    assert f == pytest.approx((2.0 * SQRT2 + 1.0) * 100.0, rel=1e-15)
    assert all(gi < 0 for gi in g)


def test_truss_active_constraint_near_optimum():
    f, g = three_bar_truss(np.array([0.7887, 0.4082]))
    assert f == pytest.approx(263.90, abs=0.05)
    assert abs(g[0]) < 1e-3  # first stress constraint is active
    # feasible point: penalized fitness equals the raw objective
    assert penalized_fitness(f, g) == f


def test_truss_singular_points():
    with pytest.raises(SingularPointError):
        three_bar_truss(np.array([0.0, 0.0]))
    with pytest.raises(SingularPointError):
        three_bar_truss(np.array([0.0, 0.5]))
    problem = three_bar_truss_problem()
    assert problem.evaluate(np.array([0.0, 0.0])) == math.inf


def test_truss_problem_contract():
    problem = three_bar_truss_problem()
    assert problem.dim == 2
    assert len(problem.constraints) == 3
    x = np.array([0.8, 0.5])
    f, g = three_bar_truss(x)
    assert problem.evaluate(x) == penalized_fitness(f, g)
    assert problem.constraints[2](x) == g[2]
