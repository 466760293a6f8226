"""Battle-game metaheuristics with baselines, benchmarks, and comparison tools.

The package implements the multiplayer battle game optimizer and its
efficient merged-phase variant, reference optimizers (differential
evolution, particle swarm, random search), continuous and constrained
test problems, a discrete architecture-search adapter, population
diversity instrumentation, and the nonparametric statistics used to
compare algorithms. Runs are deterministic given a configuration and
seed.
"""

from .baselines import DeParams, PsoParams, run_de, run_pso, run_random_search
from .core import (
    Bounds,
    ConfigurationError,
    Extremes,
    Individual,
    MIN_POP_SIZE,
    OptimizerConfig,
    RunResult,
    best_worst,
    clamp,
    greedy_replace,
    init_population,
    make_rng,
    trial_rng,
)
from .discrete import (
    LookupTable,
    TableError,
    brute_force_optimum,
    decode,
    load_table,
    lookup_fitness,
    save_table,
    synthetic_table,
    table_problem,
    transfer,
)
from .embgo import EmbgoParams, diff_mutation, levy_move, run_embgo
from .levy import gamma_fn, levy_sample, levy_sigma
from .mbgo import (
    MbgoParams,
    SafeZone,
    battle_dir,
    battle_vs_stronger,
    battle_vs_weaker,
    in_safe_zone,
    move_inside,
    move_outside,
    run_mbgo,
    safe_zone_radius,
)
from .problems import (
    BENCHMARK_NAMES,
    Problem,
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
from .stats import (
    ComparisonMatrix,
    average_rank,
    holm_adjust,
    mann_whitney_u,
    population_diversity,
    significance_marks,
)

__version__ = "0.1.0"
