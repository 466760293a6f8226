"""MBGO's and EMBGO's windowed member sweep against the per-member loop it replaced.

``reference_sweep`` is that loop, kept here as the oracle with the passes
``reference_mbgo`` and ``reference_embgo`` gave it, on the loop's
``(F, X, draws, step, left)`` protocol: per member, the public operators'
bodies as they stood before the package routed them through its shared
step functions (safe-zone radius and test, in-zone and out-of-zone moves,
the battle with its enemy draw, differential mutation and the Levy move),
copied here so that the oracle does not check those functions against
themselves, with best and worst from :class:`~battleopt.core.Extremes`,
then a clamp and one ``step``. ``run_mbgo`` and ``run_embgo`` must give
the same ``serialize()``, leave the caller's generator in the same state,
and have their ``evaluate`` see the same points in the same order.

Windows run where ``mbgo._window_cap(N, D)``, min(64, 32 N // D), reaches
12: at N = 50 for D = 10, not for D = 300. The ``counts`` fixture counts
the windows (``Draws.save``), their rewinds (``Draws.restore``) and their
stale members recomputed alone (one-row clamps that follow a block clamp
with no draw between), so that a test can show that it ran them.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from battleopt import (
    Bounds,
    EmbgoParams,
    MbgoParams,
    OptimizerConfig,
    Problem,
    make_problem,
    resolve_problem,
    run_embgo,
    run_mbgo,
    synthetic_table,
    table_problem,
)
from battleopt import core, mbgo
from battleopt.core import Extremes, clamp, init_population, make_rng
from battleopt.levy import levy_sample
from battleopt.mbgo import RADIUS_EPSILON, battle_game

from conftest import decreasing, nonfinite, plateaus, recording, sphere
from test_de_sweep import generator, proxy, recorder


def reference_sweep(bounds, passes):
    def sweep(F, X, draws, step, left):
        ext = Extremes(F)
        for propose in passes(F, X, draws):
            m = min(len(F), left)
            left -= m
            for i in range(m):
                if step(i, clamp(propose(i, X[ext.best], X[ext.worst]), bounds)):
                    ext.replaced(i, F[i])

    return sweep


def in_zone(x, best, worst, rng, params):
    """The safe-zone radius from delta ~ U(delta_low, delta_high), then the inclusive test."""
    delta = params.delta_low + (params.delta_high - params.delta_low) * rng.random()
    radius = (np.linalg.norm(best - worst) + RADIUS_EPSILON) * delta
    return np.linalg.norm(x - best) <= radius


def battle(F, X, i, rng):
    """An enemy other than ``i``, then the stronger- or weaker-enemy step."""
    j = int(rng.integers(len(F) - 1))
    j = j + 1 if j >= i else j
    x, xe = X[i], X[j]
    direction = x - xe if F[i] < F[j] else xe - x
    if F[j] < F[i]:
        r = rng.random(x.size)
        return np.where(r < 0.5, x + direction * r, xe + direction * r)
    return x + direction * math.cos(2.0 * math.pi * rng.random())


def reference_mbgo(problem, config, rng=None, *, params=None, movement_phase=True,
                   battle_phase=True):
    params = params or MbgoParams()

    def passes(F, X, rng):
        def move(i, best, worst):
            x = X[i]
            if in_zone(x, best, worst, rng, params):
                return x + best * math.sin(2.0 * math.pi * rng.random())
            r = rng.random(x.size)
            theta = rng.normal(0.0, 1.0, x.size)
            return np.where(r < 0.5, x + theta, x + (best - x) * r)

        def fight(i, best, worst):
            return battle(F, X, i, rng)

        return [p for p, on in ((move, movement_phase), (fight, battle_phase)) if on]

    return battle_game(problem, config, rng, "mbgo", reference_sweep(problem.bounds, passes))


def reference_embgo(problem, config, rng=None, *, params=None):
    params = params or EmbgoParams()

    def passes(F, X, rng):
        x_mean = X.mean(axis=0)

        def merged(i, best, worst):
            if rng.random() >= 0.5:
                return battle(F, X, i, rng)
            x = X[i]
            if in_zone(x, best, worst, rng, params):
                r1 = rng.random()
                r2 = rng.random() if params.independent_r else r1
                return (x + (best - x) * math.sin(2.0 * math.pi * r1)
                        + (x_mean - x) * math.sin(2.0 * math.pi * r2))
            return x + levy_sample(params.beta, x.size, rng)

        return [merged]

    return battle_game(problem, config, rng, "embgo", reference_sweep(problem.bounds, passes))


RUNNERS = {
    "embgo": (reference_embgo, run_embgo),
    "mbgo": (reference_mbgo, run_mbgo),
    "mbgo-movement": (lambda *a, **k: reference_mbgo(*a, battle_phase=False, **k),
                      lambda *a, **k: run_mbgo(*a, battle_phase=False, **k)),
    "mbgo-battle": (lambda *a, **k: reference_mbgo(*a, movement_phase=False, **k),
                    lambda *a, **k: run_mbgo(*a, movement_phase=False, **k)),
}


def assert_same_run(name, problem, config, make_objective=None, bit_generator=np.random.PCG64,
                    params=None, batch=True, wrap=generator):
    runs = []
    for runner in RUNNERS[name]:
        recorded, seen = recording(problem, make_objective, batch)
        rng = wrap(bit_generator, config.seed)
        result = runner(recorded, config, rng, params=params)
        runs.append((result.serialize(), rng.bit_generator.state, seen))
    (ref_text, ref_state, ref_seen), (text, state, seen) = runs
    assert text == ref_text
    assert repr(state) == repr(ref_state)
    assert len(seen) == len(ref_seen) == config.budget
    assert np.array(seen).tobytes() == np.array(ref_seen).tobytes()


@pytest.fixture
def counts(monkeypatch):
    """Windows (``Draws.save``), their rewinds and stale recomputes, counted.

    A window takes all its draws, then clamps its block, then steps its
    members with no further draw; a member stepped alone takes a draw
    (``Draws.random`` or ``Draws.integers``) before its one-row clamp. So a
    one-row clamp with a block clamp since the last such draw is a stale
    member recomputed alone.
    """
    counted = {"windows": 0, "rewinds": 0, "recomputes": 0}
    after_block = False
    save, restore, inner_clamp = core.Draws.save, core.Draws.restore, mbgo.clamp

    def counted_save(self):
        counted["windows"] += 1
        return save(self)

    def counted_restore(self, state):
        counted["rewinds"] += 1
        return restore(self, state)

    def counted_clamp(position, bounds):
        nonlocal after_block
        if np.ndim(position) == 2:
            after_block = True
        else:
            counted["recomputes"] += after_block
        return inner_clamp(position, bounds)

    def drawing(method):
        def draw(self, *args):
            nonlocal after_block
            after_block = False
            return method(self, *args)

        return draw

    monkeypatch.setattr(core.Draws, "save", counted_save)
    monkeypatch.setattr(core.Draws, "restore", counted_restore)
    monkeypatch.setattr(core.Draws, "random", drawing(core.Draws.random))
    monkeypatch.setattr(core.Draws, "integers", drawing(core.Draws.integers))
    monkeypatch.setattr(mbgo, "clamp", counted_clamp)
    return counted


def params_for(name, **fields):
    return (EmbgoParams if name == "embgo" else MbgoParams)(**fields)


NAMES = sorted(RUNNERS)


def test_the_window_threshold():
    # (N, D): 50 members window at D=10, not at D=300; nor do 64 at D=2048
    shapes = [(2, 3), (50, 10), (50, 100), (50, 300), (112, 300), (113, 300), (64, 2048),
              (3200, 10)]
    caps = [mbgo._window_cap(n, dim) for n, dim in shapes]
    assert caps == [21, 64, 16, 5, 11, 12, 1, 64]
    assert mbgo._WINDOW_MIN == 12


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("n, dim, windows", [(50, 10, True), (50, 300, False), (112, 300, False),
                                             (113, 300, True), (64, 2048, False)])
def test_both_sides_of_the_window_threshold(name, n, dim, windows, counts):
    problem = make_problem("sphere", dim)
    assert_same_run(name, problem, OptimizerConfig(pop_size=n, budget=n * 6 + 5, seed=3))
    if windows:
        assert counts["windows"] > 0
    else:
        assert counts == {"windows": 0, "rewinds": 0, "recomputes": 0}


@pytest.mark.parametrize("name", ["embgo", "mbgo"])
def test_a_population_of_many_windows(name, counts):
    problem = make_problem("sphere", 10)
    assert_same_run(name, problem, OptimizerConfig(pop_size=3200, budget=3200 * 3 + 700, seed=3))
    assert counts["rewinds"] > 0 and counts["recomputes"] > 0


@pytest.mark.parametrize(
    "bit_generator",
    [np.random.PCG64, np.random.PCG64DXSM, np.random.SFC64, np.random.Philox, np.random.MT19937],
)
@pytest.mark.parametrize("name", ["embgo", "mbgo"])
def test_every_bit_generator(name, bit_generator):
    problem = make_problem("ackley", 1)
    assert_same_run(name, problem, OptimizerConfig(pop_size=200, budget=200 * 5 + 17, seed=3),
                    bit_generator=bit_generator)


@pytest.mark.parametrize("name", NAMES)
def test_two_members_the_enemy_is_forced(name):
    problem = make_problem("rastrigin", 3)
    assert_same_run(name, problem, OptimizerConfig(pop_size=2, budget=2 * 80 + 1, seed=5))


@pytest.mark.parametrize("name", NAMES)
def test_one_dimension(name, counts):
    problem = make_problem("ackley", 1)
    assert_same_run(name, problem, OptimizerConfig(pop_size=200, budget=200 * 10, seed=3))
    assert counts["rewinds"] > 0
    assert counts["recomputes"] > 0


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("extra", [1, 13, 100, 199, 233])
def test_budgets_that_end_mid_pass_and_mid_window(name, extra):
    # 200 members at D=2: windows of up to 64; extra 13 cuts the last pass to 13 members
    problem = make_problem("sphere", 2)
    assert_same_run(name, problem, OptimizerConfig(pop_size=200, budget=200 * 4 + extra, seed=8))


@pytest.mark.parametrize("n", [20, 256])
def test_shared_sine_draw(n):
    problem = make_problem("rastrigin", 4)
    assert_same_run("embgo", problem, OptimizerConfig(pop_size=n, budget=n * 8 + 3, seed=2),
                    params=EmbgoParams(independent_r=False))


@pytest.mark.parametrize("name", ["embgo", "mbgo", "mbgo-movement"])
def test_a_small_zone_sends_most_movements_outside(name, counts):
    problem = make_problem("sphere", 4)
    assert_same_run(name, problem, OptimizerConfig(pop_size=256, budget=256 * 8 + 31, seed=3),
                    params=params_for(name, delta_low=0.01, delta_high=0.02))
    assert counts["recomputes"] > 0


@pytest.mark.parametrize("name", ["embgo", "mbgo-movement"])
@pytest.mark.parametrize("n", [20, 256])
def test_the_zone_boundary_is_inclusive(name, n):
    # the radius underflows to 0, so only the best, at distance 0, is in the zone
    problem = Problem("tiny", 3, Bounds.cube(0.0, 1e-6, 3), sphere())
    assert_same_run(name, problem, OptimizerConfig(pop_size=n, budget=n * 4, seed=4),
                    params=params_for(name, delta_low=1e-320, delta_high=2e-320))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("name", ["embgo", "mbgo"])
@pytest.mark.parametrize("low, high", [(-1e300, 1e300), (-1e-300, 1e-300), (0.0, 1e-170)])
def test_distances_that_overflow_or_underflow(name, low, high):
    # the zone test's einsum is not finite or near the subnormal range:
    # in_safe_zone's own test decides
    problem = Problem("extreme", 3, Bounds.cube(low, high, 3), lambda x: float(np.abs(x).sum()))
    assert_same_run(name, problem, OptimizerConfig(pop_size=256, budget=256 * 5 + 7, seed=1))


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("n, dim", [(30, 3), (200, 3), (800, 10)])
def test_every_candidate_is_kept(name, n, dim):
    # each step makes a new best: best and worst change at every member
    problem = make_problem("sphere", dim)
    assert_same_run(name, problem, OptimizerConfig(pop_size=n, budget=n * 4 + 3, seed=8),
                    decreasing)


@pytest.mark.parametrize("name", NAMES)
def test_ties_keep_the_parent(name):
    problem = make_problem("sphere", 2)
    assert_same_run(name, problem, OptimizerConfig(pop_size=200, budget=200 * 6, seed=5),
                    plateaus)


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("n", [12, 200])
def test_nan_and_infinite_objective_values(name, n):
    problem = make_problem("sphere", 3)
    assert_same_run(name, problem, OptimizerConfig(pop_size=n, budget=n * 6, seed=9), nonfinite)


@pytest.mark.parametrize("name", ["embgo", "mbgo"])
def test_a_wrapper_evaluate_without_batch(name):
    problem = make_problem("rosenbrock", 6)
    assert_same_run(name, problem, OptimizerConfig(pop_size=200, budget=200 * 4 + 7, seed=10),
                    batch=False)


@pytest.mark.parametrize("wrap", [proxy, recorder])
@pytest.mark.parametrize("name", ["embgo", "mbgo"])
def test_a_wrapper_rng(name, wrap, counts):
    problem = resolve_problem("rastrigin:sr3", 2)
    assert_same_run(name, problem, OptimizerConfig(pop_size=200, budget=200 * 8 + 4, seed=6),
                    wrap=wrap)
    assert counts["recomputes"] > 0


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(NAMES),
    n=st.one_of(st.integers(2, 20), st.integers(192, 260)),
    # at D=40, 12 to 14 members go one at a time and 15 or more in windows
    dim=st.one_of(st.integers(1, 4), st.just(40)),
    sweeps=st.integers(0, 5),
    extra=st.integers(0, 259),
    seed=st.integers(0, 2**32 - 1),
    zone=st.sampled_from([(0.8, 1.2), (0.01, 0.02), (0.5, 3.0)]),
    objective=st.sampled_from([sphere, decreasing, plateaus, nonfinite]),
    bit_generator=st.sampled_from([np.random.PCG64, np.random.Philox, np.random.MT19937]),
)
def test_random_configurations(name, n, dim, sweeps, extra, seed, zone, objective, bit_generator):
    problem = make_problem("sphere", dim)
    config = OptimizerConfig(pop_size=n, budget=n * (1 + sweeps) + extra % n, seed=seed)
    params = params_for(name, delta_low=zone[0], delta_high=zone[1])
    assert_same_run(name, problem, config, objective, bit_generator, params=params)


def test_every_word_a_battle_run_advances_is_drawn_through_the_hooks():
    """The draw hooks the ``counts`` fixture counts through see every word the generator gives.

    A battle-only MBGO at N = 50 on a table (D = 6) windows, rewinds and
    batches. Past the initial population, each of its members draws one
    32-bit enemy (``Draws.integers(49)``, which numpy would retry with a
    probability below 1e-8) and one double or one per dimension
    (``Draws.random``). A rewind drops the counts since the window's
    ``Draws.save``. PCG64 gives a double from one 64-bit word and two
    32-bit draws from one word, the spare half carried in ``has_uint32``.
    So the words from the state after the initial population to the final
    state, counted by stepping a copy of the generator, are the doubles plus
    the 32-bit draws net of the halves carried in and out. A planner that
    drew around ``Draws.random`` or ``Draws.integers`` would leave words
    uncounted.
    """
    problem = table_problem(synthetic_table(5))
    config = OptimizerConfig(pop_size=50, budget=50 + 2000, seed=4)
    start = make_rng(config.seed)
    init_population(config.pop_size, problem.bounds, start)
    start = start.bit_generator.state
    drawn = {"doubles": 0, "halves": 0}
    saved, windows = [], []
    random, integers = core.Draws.random, core.Draws.integers
    save, restore = core.Draws.save, core.Draws.restore

    def counted_random(self, size=None):
        drawn["doubles"] += 1 if size is None else int(np.prod(size))
        return random(self, size)

    def counted_integers(self, high):
        drawn["halves"] += 1
        return integers(self, high)

    def counted_save(self):
        saved.append(dict(drawn))
        windows.append(1)
        return save(self)

    def counted_restore(self, state):
        drawn.update(saved[-1])
        windows.append(-1)
        return restore(self, state)

    rng = make_rng(config.seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core.Draws, "random", counted_random)
        patch.setattr(core.Draws, "integers", counted_integers)
        patch.setattr(core.Draws, "save", counted_save)
        patch.setattr(core.Draws, "restore", counted_restore)
        run_mbgo(problem, config, rng, movement_phase=False)
    final = rng.bit_generator.state
    assert windows.count(1) > 0 and windows.count(-1) > 0
    walker = np.random.PCG64()
    walker.state = start
    words = 0
    while walker.state["state"] != final["state"]:
        walker.random_raw()
        words += 1
    carried = final["has_uint32"] - start["has_uint32"]
    assert 2 * words == 2 * drawn["doubles"] + drawn["halves"] + carried
    assert drawn["doubles"] > 0 and drawn["halves"] > 0
