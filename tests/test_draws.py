"""``Draws`` gives the values and the final state of the Generator calls it stands for.

Twin generators of each numpy bit generator run the same call sequence,
one through ``Generator`` and one through ``Draws``; every value and the
final ``bit_generator.state`` must agree; so must a DE sweep's bulk draws
(``Draws.sweep``) and the per-member calls they stand for. Whole runs of DE, MBGO and
EMBGO are pinned by a digest of the caller's generator state afterwards,
recorded before the battle-game loop took its scalar draws through
``Draws``.
"""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from battleopt import OptimizerConfig, Problem, resolve_problem, run_de, run_embgo, run_mbgo
from battleopt.core import Bounds, Draws, _decode_sweep, make_rng

from conftest import FixedRng, RecordingRng

BIT_GENERATORS = (
    np.random.PCG64, np.random.PCG64DXSM, np.random.MT19937, np.random.Philox, np.random.SFC64,
)
# 1 takes no draw; about a quarter of the draws below 3 * 2**30 are
# rejected and retried; 2**32 keeps every 32-bit draw.
HIGHS = (1, 2, 3, 49, 3 * 2**30, 2**32 - 1, 2**32)
# Floyd's first step draws from [0, n - 3], which takes no draw at n = 3.
NS = (3, 4, 49, 3199, 10001, 50000, 2**32)


def twins(bit_generator, seed):
    return np.random.Generator(bit_generator(seed)), np.random.Generator(bit_generator(seed))


def plain(state):
    """A bit generator state with its array fields as lists, comparable with ==."""
    if isinstance(state, dict):
        return {key: plain(value) for key, value in state.items()}
    if isinstance(state, np.ndarray):
        return state.tolist()
    return state


def assert_same_state(a, b):
    assert plain(a.bit_generator.state) == plain(b.bit_generator.state)


calls = st.lists(
    st.one_of(
        st.tuples(st.just("random"), st.none() | st.integers(1, 5)),
        st.tuples(st.just("integers"), st.sampled_from(HIGHS) | st.integers(1, 2**32)),
        st.tuples(st.just("distinct"), st.sampled_from(NS) | st.integers(3, 2**32)),
        st.tuples(st.just("normal"), st.integers(1, 5)),
        # a Generator call on both twins between the Draws calls
        st.tuples(st.just("between"), st.integers(1, 5)),
    ),
    max_size=60,
)


@settings(max_examples=300, deadline=None)
@given(
    bit_generator=st.sampled_from(BIT_GENERATORS),
    seed=st.integers(0, 2**64 - 1),
    calls=calls,
)
def test_draws_are_the_generator_calls(bit_generator, seed, calls):
    reference, twin = twins(bit_generator, seed)
    draws = Draws(twin)
    for name, arg in calls:
        if name == "random" and arg is None:
            expected, got = reference.random(), draws.random()
        elif name == "random":
            expected, got = reference.random(arg).tolist(), draws.random(arg).tolist()
        elif name == "integers":
            expected, got = int(reference.integers(arg)), draws.integers(arg)
        elif name == "distinct":
            expected = reference.choice(arg, 3, replace=False).tolist()
            got = draws.distinct(arg)
        elif name == "normal":
            expected = reference.normal(0.0, 2.0, arg).tolist()
            got = draws.normal(0.0, 2.0, arg).tolist()
        else:
            expected = reference.integers(7, size=arg).tolist()
            got = twin.integers(7, size=arg).tolist()
        assert got == expected, (name, arg)
    assert_same_state(twin, reference)


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
@pytest.mark.parametrize("high", HIGHS)
def test_integers_is_the_generator_integers(bit_generator, high):
    reference, twin = twins(bit_generator, 12345)
    draws = Draws(twin)
    assert [draws.integers(high) for _ in range(300)] == [
        int(reference.integers(high)) for _ in range(300)
    ]
    assert_same_state(twin, reference)


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
def test_integers_one_takes_no_draw(bit_generator):
    generator, untouched = twins(bit_generator, 7)
    draws = Draws(generator)
    assert [draws.integers(1) for _ in range(10)] == [0] * 10
    assert_same_state(generator, untouched)


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
def test_integers_retries_a_rejected_draw(bit_generator):
    # 300 draws that each kept their first 32 bits would leave the state of
    # 300 unbounded 32-bit draws; a quarter of them are retried here
    generator, unbounded = twins(bit_generator, 3)
    draws = Draws(generator)
    for _ in range(300):
        draws.integers(3 * 2**30)
    unbounded.integers(2**32, size=300)
    assert plain(generator.bit_generator.state) != plain(unbounded.bit_generator.state)


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
@pytest.mark.parametrize("n", NS)
def test_distinct_is_choice_without_replacement(bit_generator, n):
    reference, twin = twins(bit_generator, 2024)
    draws = Draws(twin)
    for _ in range(300):
        got = draws.distinct(n)
        assert got == reference.choice(n, 3, replace=False).tolist()
        assert len(set(got)) == 3 and all(0 <= k < n for k in got)
    assert_same_state(twin, reference)


@pytest.mark.parametrize("high", [0, -1, 2**32 + 1, 2**64])
def test_integers_outside_its_domain_is_a_value_error(high):
    generator, untouched = twins(np.random.PCG64, 0)
    with pytest.raises(ValueError, match=f"high must lie in \\[1, 2\\*\\*32\\], got {high}"):
        Draws(generator).integers(high)
    assert_same_state(generator, untouched)


@pytest.mark.parametrize("n", [-3, 0, 2, 2**32 + 1])
def test_distinct_outside_its_domain_is_a_value_error(n):
    generator, untouched = twins(np.random.PCG64, 0)
    with pytest.raises(ValueError, match=f"n must lie in \\[3, 2\\*\\*32\\], got {n}"):
        Draws(generator).distinct(n)
    assert_same_state(generator, untouched)


def test_a_non_integer_bound_is_a_type_error():
    draws = Draws(make_rng(0))
    with pytest.raises(TypeError):
        draws.integers(3.0)
    with pytest.raises(TypeError):
        draws.distinct(4.5)


def test_numpy_integer_bounds_act_as_ints():
    reference, twin = twins(np.random.PCG64, 9)
    draws = Draws(twin)
    assert draws.integers(np.int64(2**32)) == int(reference.integers(2**32))
    assert draws.distinct(np.uint32(3 * 2**30)) == reference.choice(3 * 2**30, 3, replace=False).tolist()
    assert_same_state(twin, reference)


# --- a DE sweep's draws in bulk -----------------------------------------------


def per_member(draws, m, n, high, size):
    """What Draws.sweep stands for: m rounds of distinct, integers and random(size)."""
    rounds = [(draws.distinct(n), draws.integers(high), draws.random(size).tolist())
              for _ in range(m)]
    return [list(column) for column in zip(*rounds)]


def assert_sweep_is_per_member(bit_generator, seed, m, n, high, size, buffered):
    bulk, twin = twins(bit_generator, seed)
    if buffered:
        # one 32-bit draw leaves the other half of its output buffered
        Draws(bulk).integers(7), Draws(twin).integers(7)
        if bit_generator is not np.random.MT19937:
            assert bulk.bit_generator.state["has_uint32"] == 1
    picks, ints, doubles = Draws(bulk).sweep(m, n, high, size)
    assert (picks.shape, ints.shape, doubles.shape) == ((m, 3), (m,), (m, size))
    assert [picks.tolist(), ints.tolist(), doubles.tolist()] == per_member(
        Draws(twin), m, n, high, size)
    assert_same_state(bulk, twin)


@settings(max_examples=150, deadline=None)
@given(
    bit_generator=st.sampled_from(BIT_GENERATORS),
    seed=st.integers(0, 2**64 - 1),
    pop=st.sampled_from((4, 5, 3200)) | st.integers(4, 3200),
    dim=st.sampled_from((1, 2, 10)) | st.integers(1, 40),
    rounds=st.integers(1, 3200),
    buffered=st.booleans(),
)
def test_a_de_sweep_is_its_per_member_draws(bit_generator, seed, pop, dim, rounds, buffered):
    # DE's sweep over a population of pop: distinct(pop - 1), integers(dim),
    # random(dim) per member, for up to pop members
    assert_sweep_is_per_member(bit_generator, seed, min(rounds, pop), pop - 1, dim, dim, buffered)


@settings(max_examples=60, deadline=None)
@given(
    bit_generator=st.sampled_from(BIT_GENERATORS),
    seed=st.integers(0, 2**64 - 1),
    m=st.integers(1, 60),
    n=st.sampled_from(NS) | st.integers(3, 2**32),
    high=st.sampled_from(HIGHS) | st.integers(1, 2**32),
    size=st.integers(1, 5),
    buffered=st.booleans(),
)
def test_sweep_is_its_per_member_draws_over_its_whole_domain(bit_generator, seed, m, n, high,
                                                              size, buffered):
    assert_sweep_is_per_member(bit_generator, seed, m, n, high, size, buffered)


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
@pytest.mark.parametrize("n, dim", [(3, 1), (3, 4), (4, 1), (49, 1), (49, 10), (3199, 10)])
@pytest.mark.parametrize("buffered", [False, True])
def test_sweep_at_the_smallest_population_and_one_dimension(bit_generator, n, dim, buffered):
    # n = 3: Floyd's first bound is 1 and draws nothing; dim = 1: neither
    # does integers(1), and the buffered half alternates from round to round
    assert_sweep_is_per_member(bit_generator, 5, n + 1, n, dim, dim, buffered)


@pytest.mark.parametrize("seed", [11, 54])
def test_a_sweep_that_numpy_would_retry_is_drawn_per_member(seed):
    # At these seeds one of 3200 rounds' bounded draws is rejected, which
    # only shows after the raw outputs are drawn.
    generator = np.random.Generator(np.random.PCG64(seed))
    start = generator.bit_generator.state
    assert _decode_sweep(generator.bit_generator, start, 3200, 3199, 10, 10) is None
    assert_sweep_is_per_member(np.random.PCG64, seed, 3200, 3199, 10, 10, False)


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
def test_frequent_retries(bit_generator):
    # about a quarter of the draws below 3 * 2**30 are rejected
    for seed in range(5):
        assert_sweep_is_per_member(bit_generator, seed, 40, 3 * 2**30 + 2, 3 * 2**30, 3, seed % 2)


@pytest.mark.parametrize("n, high", [(2, 5), (2**32 + 1, 5), (5, 0), (5, 2**32 + 1)])
def test_sweep_outside_its_domain_is_a_value_error(n, high):
    generator, untouched = twins(np.random.PCG64, 0)
    with pytest.raises(ValueError, match="must lie in"):
        Draws(generator).sweep(4, n, high, 2)
    assert_same_state(generator, untouched)


# --- the battle-game loop ----------------------------------------------------

RUNS = {
    "de": lambda problem, config, rng: run_de(problem, config, rng=rng),
    "mbgo": lambda problem, config, rng: run_mbgo(problem, config, rng=rng),
    "embgo": lambda problem, config, rng: run_embgo(problem, config, rng=rng),
}


@pytest.mark.parametrize("name", sorted(RUNS))
@pytest.mark.parametrize("rng", [object(), FixedRng(uniforms=[0.5] * 100)])
def test_battle_game_rejects_an_rng_without_a_bit_generator(name, rng):
    evaluated = []
    problem = Problem(
        name="spy", dim=2, bounds=Bounds.cube(-1.0, 1.0, 2),
        evaluate=lambda x: evaluated.append(x) or 0.0,
    )
    with pytest.raises(TypeError, match=type(rng).__name__):
        RUNS[name](problem, OptimizerConfig(pop_size=4, budget=20), rng)
    assert evaluated == []


@pytest.mark.parametrize("name", sorted(RUNS))
def test_a_wrapper_that_passes_bit_generator_through_gives_the_same_run(name):
    problem = resolve_problem("rastrigin", 4)
    config = OptimizerConfig(pop_size=6, budget=150, seed=4)
    wrapped = RUNS[name](problem, config, RecordingRng(make_rng(4)))
    assert wrapped.serialize() == RUNS[name](problem, config, make_rng(4)).serialize()


# sha256 over every run below of the serialized result and the caller's
# generator state afterwards, recorded when DE drew its peers with
# rng.choice and the loop's scalar draws went through the Generator.
STATE_DIGEST = "6a86d68c46b3dc1e64f6f760070275b17c80139d95dec3baf95d7ad57a1edc8d"


def state_digest() -> str:
    h = hashlib.sha256()
    for name, run in RUNS.items():
        for spec in ("sphere", "rastrigin:sr"):
            problem = resolve_problem(spec, 5)
            for n, budget in ((4, 64), (7, 157), (30, 181)):
                for bit_generator in BIT_GENERATORS:
                    for seed in (0, 1):
                        rng = np.random.Generator(bit_generator(seed))
                        result = run(problem, OptimizerConfig(n, budget, seed), rng)
                        h.update(result.serialize().encode())
                        state = plain(rng.bit_generator.state)
                        h.update(json.dumps(state, sort_keys=True).encode())
    return h.hexdigest()


def test_runs_leave_the_generator_state_they_always_left():
    assert state_digest() == STATE_DIGEST


if __name__ == "__main__":
    print(state_digest())
