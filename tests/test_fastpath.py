"""The per-candidate fast path gives the bits of the numpy calls it replaces.

Each swap is compared on ``view(np.int64)`` with the expression it stands
for: ``minimum(maximum(...))`` with ``np.clip``, ``sqrt(d . d)`` with
``np.linalg.norm``, ``low + range * random()`` with ``Generator.uniform``,
the ufunc reductions with ``np.sum``/``np.prod``, concatenated slices
with ``np.roll``, and the cached Levy
scale with its formula. An AST guard keeps the wrappers off the
per-candidate path, another keeps ``.choice(`` calls out of the run
loop's modules, whose peers come from ``Draws.distinct``, and a third
keeps member objects out of the run loop, whose state is ``X`` and ``F``.
"""

import ast
import importlib
import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from battleopt import Bounds, clamp, in_safe_zone, levy_sigma, safe_zone_radius
from battleopt.core import make_rng
from battleopt.levy import gamma_fn
from battleopt.mbgo import RADIUS_EPSILON, SafeZone, _distance

from conftest import make_individual as ind

SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, 1.0, -1.0, 5e-324, 1e308]
# Box edges, including edges that touch zero from either side.
EDGES = [(0.0, 1.0), (-0.0, 1.0), (-1.0, 0.0), (-1.0, -0.0), (-100.0, 100.0), (2.0, 3.0)]

finite = st.floats(allow_nan=False, allow_infinity=False)
anything = st.one_of(st.sampled_from(SPECIAL), st.floats())


def bits(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64).view(np.int64)


def float_bits(x: float) -> int:
    return int(np.float64(x).view(np.int64))


@st.composite
def boxed_positions(draw):
    """A box of 1-300 dimensions and a position on its edges, on specials or free.

    Half the dimensions take an edge pair from ``EDGES``, the rest a random
    pair of magnitude 1e-300 to 1e300.
    """
    dim = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def wide(size):
        return rng.standard_normal(size) * 10.0 ** rng.integers(-300, 301, size=size)

    a, b = wide(dim), wide(dim)
    edges = np.array(EDGES)[rng.integers(len(EDGES), size=dim)]
    use_edge = (rng.random(dim) < 0.5) | (a == b)
    lower = np.where(use_edge, edges[:, 0], np.minimum(a, b))
    upper = np.where(use_edge, edges[:, 1], np.maximum(a, b))
    special = np.array(SPECIAL)[rng.integers(len(SPECIAL), size=dim)]
    x = np.choose(rng.integers(4, size=dim), [lower, upper, special, wide(dim)])
    return Bounds(lower, upper), x


@settings(max_examples=300, deadline=None)
@given(case=boxed_positions())
def test_clamp_is_np_clip(case):
    bounds, x = case
    np.testing.assert_array_equal(
        bits(clamp(x, bounds)), bits(np.clip(x, bounds.lower, bounds.upper))
    )
    # an (m, D) block, as DE and PSO clamp a window, row by row: np.clip on
    # the block itself can give +0.0 where its rows give -0.0
    block = np.array([x, x[::-1], -x])
    np.testing.assert_array_equal(
        bits(clamp(block, bounds)),
        bits([np.clip(row, bounds.lower, bounds.upper) for row in block]),
    )


@pytest.mark.parametrize("lo, hi", EDGES)
def test_clamp_is_np_clip_at_the_edges(lo, hi):
    bounds = Bounds([lo], [hi])
    for x in [*SPECIAL, lo, hi]:
        x = np.array([x])
        np.testing.assert_array_equal(
            bits(clamp(x, bounds)), bits(np.clip(x, bounds.lower, bounds.upper))
        )


def test_clamp_keeps_its_shape_check():
    with pytest.raises(ValueError, match="3 components, bounds expect 2"):
        clamp(np.zeros(3), Bounds.cube(0.0, 1.0, 2))
    with pytest.raises(ValueError, match="3 components, bounds expect 2"):
        clamp(np.zeros((4, 3)), Bounds.cube(0.0, 1.0, 2))
    with pytest.raises(ValueError, match="1 components, bounds expect 2"):
        clamp(0.5, Bounds.cube(0.0, 1.0, 2))


@settings(max_examples=200, deadline=None)
@given(
    v=st.lists(anything, min_size=1, max_size=300).map(np.array),
    v_max=st.one_of(st.sampled_from([5e-324, 1.0, 2.0, math.inf]),
                    st.floats(min_value=5e-324, allow_nan=False)),
)
def test_pso_velocity_clamp_is_np_clip_out(v, v_max):
    # the in-place clamp run_pso applies to each window of velocity rows
    expected = v.copy()
    np.clip(expected, -v_max, v_max, out=expected)
    got = v.copy()
    np.minimum(np.maximum(got, -v_max, out=got), v_max, out=got)
    np.testing.assert_array_equal(bits(got), bits(expected))


@settings(max_examples=300, deadline=None)
@given(d=st.lists(anything, min_size=1, max_size=300).map(np.array))
def test_sqrt_dot_is_linalg_norm(d):
    with np.errstate(all="ignore"):
        assert float_bits(math.sqrt(d.dot(d))) == float_bits(np.linalg.norm(d))
        # the safe-zone norm every zone test and radius goes through
        assert float_bits(_distance(d, d[::-1])) == float_bits(np.linalg.norm(d - d[::-1]))


@settings(max_examples=200, deadline=None)
@given(
    best=st.lists(finite, min_size=1, max_size=50),
    worst=st.lists(finite, min_size=1, max_size=50),
    seed=st.integers(0, 2**32 - 1),
)
def test_safe_zone_is_the_uniform_and_norm_formula(best, worst, seed):
    n = min(len(best), len(worst))
    b, w = np.array(best[:n]), np.array(worst[:n])
    reference = make_rng(seed)
    delta = reference.uniform(0.8, 1.2)
    rng = make_rng(seed)
    with np.errstate(over="ignore"):
        radius = (float(np.linalg.norm(b - w)) + RADIUS_EPSILON) * delta
        zone = safe_zone_radius(ind(b, 0.0), ind(w, 1.0), rng)
        inside = float(np.linalg.norm(w - b)) <= zone.radius
        assert in_safe_zone(ind(w, 1.0), SafeZone(b, zone.radius)) is inside
    assert float_bits(zone.radius) == float_bits(radius)
    assert rng.random() == reference.random()


@settings(max_examples=300, deadline=None)
@given(
    low=finite,
    high=finite,
    seed=st.integers(0, 2**32 - 1),
)
def test_low_plus_range_random_is_uniform(low, high, seed):
    # twin-seeded streams: uniform(lo, hi) is one random() draw, scaled
    lo, hi = min(low, high), max(low, high)
    if not math.isfinite(hi - lo):
        return
    by_uniform, by_random = make_rng(seed), make_rng(seed)
    for _ in range(20):
        expected = by_uniform.uniform(lo, hi)
        assert float_bits(lo + (hi - lo) * by_random.random()) == float_bits(expected)
    zone = safe_zone_radius(ind([0.0], 0.0), ind([0.0], 1.0), make_rng(seed), lo, hi)
    expected = make_rng(seed).uniform(lo, hi)
    assert float_bits(zone.radius) == float_bits(RADIUS_EPSILON * expected)


@pytest.mark.parametrize(
    "low, high",
    [(1.2, 0.8), (0.0, -0.0), (1.0, -1e-300), (0.0, math.inf), (-math.inf, 1.0),
     (math.nan, 1.0), (0.8, math.nan), (-1e308, 1e308)],
)
def test_safe_zone_rejects_a_range_as_numpy_does(low, high):
    with pytest.raises(Exception) as numpy_error:
        make_rng(0).uniform(low, high)
    rng = make_rng(0)
    with pytest.raises(numpy_error.type, match=str(numpy_error.value)):
        safe_zone_radius(ind([0.0], 0.0), ind([1.0], 1.0), rng, low, high)
    assert rng.random() == make_rng(0).random()  # no draw was taken


@settings(max_examples=300, deadline=None)
@given(
    v=st.lists(anything, min_size=1, max_size=400).map(np.array),
)
def test_ufunc_reduce_is_sum_and_prod(v):
    with np.errstate(all="ignore"):
        assert float_bits(np.add.reduce(v)) == float_bits(np.sum(v))
        assert float_bits(np.multiply.reduce(v)) == float_bits(np.prod(v))


@settings(max_examples=200, deadline=None)
@given(v=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=400).map(np.array))
def test_ufunc_reduce_of_finite_vectors_is_sum_and_prod(v):
    assert float_bits(np.add.reduce(v * v)) == float_bits(np.sum(v * v))
    c = np.cos(v)
    assert float_bits(np.multiply.reduce(c)) == float_bits(np.prod(c))


@settings(max_examples=100, deadline=None)
@given(v=st.lists(anything, min_size=1, max_size=400).map(np.array))
def test_concatenated_slices_are_np_roll(v):
    np.testing.assert_array_equal(bits(np.concatenate((v[1:], v[:1]))), bits(np.roll(v, -1)))


def uncached_levy_sigma(beta: float) -> float:
    num = gamma_fn(1.0 + beta) * math.sin(math.pi * beta / 2.0)
    den = beta * gamma_fn((1.0 + beta) / 2.0) * 2.0 ** ((beta - 1.0) / 2.0)
    return (num / den) ** (1.0 / beta)


@settings(max_examples=300, deadline=None)
@given(beta=st.one_of(
    st.sampled_from([1.0, 1.5, 5e-324, 1.9999999999999998]),
    st.floats(0.0, 2.0, exclude_min=True, exclude_max=True),
))
def test_cached_levy_sigma_is_the_formula(beta):
    def outcome(sigma, b):
        try:
            return float_bits(sigma(b))
        except ValueError:  # sigma overflows for a tiny beta
            return ValueError

    def formula(b):
        # (num / den) ** (1 / beta) overflows, or 1 / beta itself is inf
        # for a subnormal beta and the power is meaningless
        try:
            sigma = uncached_levy_sigma(b)
        except OverflowError:
            sigma = math.inf
        if math.isinf(sigma) or math.isinf(1.0 / b):
            raise ValueError
        return sigma

    expected = outcome(formula, beta)
    assert outcome(levy_sigma, beta) == expected
    assert outcome(levy_sigma, beta) == expected  # the cached value
    assert outcome(levy_sigma, np.float64(beta)) == expected


def test_levy_sigma_keys_on_the_float_value():
    assert levy_sigma(1) == levy_sigma(1.0) == levy_sigma(np.array(1.0)) == 1.0
    assert levy_sigma(np.array(1.5)) == levy_sigma(1.5)
    for beta in (0.0, 2.0, math.nan, np.array(2.5)):
        with pytest.raises(ValueError):
            levy_sigma(beta)


# --- guard: no numpy Python wrappers on the per-candidate path -------------

GUARDED_MODULES = ("core", "mbgo", "embgo", "levy", "baselines", "problems", "discrete")


def wrapper_calls(tree: ast.AST) -> list:
    """Calls of np.clip, np.linalg.norm, and np.sum/np.prod/np.roll without axis=."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = ast.unparse(node.func)
        has_axis = any(kw.arg == "axis" for kw in node.keywords)
        if name in ("np.clip", "np.linalg.norm") or (
            name in ("np.sum", "np.prod", "np.roll") and not has_axis
        ):
            found.append(f"line {node.lineno}: {ast.unparse(node)}")
    return found


@pytest.mark.parametrize("module", GUARDED_MODULES)
def test_no_numpy_wrappers_on_the_candidate_path(module):
    source = inspect.getsource(importlib.import_module(f"battleopt.{module}"))
    assert wrapper_calls(ast.parse(source)) == []


def test_wrapper_guard_flags_each_wrapper():
    source = (
        "np.clip(x, 0, 1)\nnp.linalg.norm(d)\nnp.sum(v)\nnp.prod(v)\nnp.roll(v, -1)\n"
        "np.sum(X, axis=1)\nnp.prod(X, axis=1)\nnp.roll(X, -1, axis=1)\nnp.add.reduce(v)\n"
    )
    assert [line.split(":")[0] for line in wrapper_calls(ast.parse(source))] == [
        "line 1", "line 2", "line 3", "line 4", "line 5",
    ]


# --- guard: no Generator.choice on the run path ------------------------------

CHOICE_FREE_MODULES = ("core", "mbgo", "embgo", "baselines")


def choice_calls(tree: ast.AST) -> list:
    """Calls of any ``.choice`` attribute, whatever it is called on."""
    return [
        f"line {node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "choice"
    ]


@pytest.mark.parametrize("module", CHOICE_FREE_MODULES)
def test_no_choice_calls_in_the_run_loop_modules(module):
    source = inspect.getsource(importlib.import_module(f"battleopt.{module}"))
    assert choice_calls(ast.parse(source)) == []


def test_choice_guard_flags_every_choice_call():
    source = (
        "rng.choice(9, size=3, replace=False)\nnp.random.choice(5)\n"
        "self._rng.choice(x)\nrng.distinct(9)\n'rng.choice(n)'\n"
    )
    assert [line.split(":")[0] for line in choice_calls(ast.parse(source))] == [
        "line 1", "line 2", "line 3",
    ]


# --- guard: the run loop holds X and F, no member objects --------------------

LOOP_FUNCTIONS = (("mbgo", "battle_game"), ("mbgo", "member_sweep"), ("baselines", "run_de"))


def individual_calls(tree: ast.AST) -> list:
    """The ``Individual(...)`` calls, however the name is reached."""
    return [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "Individual"
    ]


def member_uses(tree: ast.AST) -> list:
    """Reads of ``.fitness``/``.position``, and ``Individual(...)`` calls outside a ``best_worst(...)``."""
    returned = {
        id(inner)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "best_worst"
        for inner in ast.walk(node)
    }
    found = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in ("fitness", "position")
    ]
    found += [node for node in individual_calls(tree) if id(node) not in returned]
    return [f"line {node.lineno}: {ast.unparse(node)}" for node in sorted(found, key=lambda n: n.lineno)]


@pytest.mark.parametrize("module, function", LOOP_FUNCTIONS)
def test_the_run_loop_keeps_no_member_objects(module, function):
    source = inspect.getsource(getattr(importlib.import_module(f"battleopt.{module}"), function))
    tree = ast.parse(source)
    assert member_uses(tree) == []
    # the one Individual is battle_game's returned best, built in its best_worst call
    assert len(individual_calls(tree)) == (function == "battle_game")


def test_member_guard_flags_each_form():
    source = (
        "pop[i].fitness < f\nX[i] = ind.position\nIndividual(x, f)\ncore.Individual(x)\n"
        "ind.fitness = f\nbest_worst([Individual(x, f) for x, f in zip(X, F)])\nF[i] < F[j]\n"
        "'ind.fitness'\n"
    )
    assert [line.split(":")[0] for line in member_uses(ast.parse(source))] == [
        "line 1", "line 2", "line 3", "line 4", "line 5",
    ]
    assert len(individual_calls(ast.parse(source))) == 3
