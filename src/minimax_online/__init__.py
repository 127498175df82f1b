"""Minimax and potential-based algorithms for unconstrained online linear optimization."""

from .core import (
    GameConfig,
    make_rng,
    norm,
    orthonormal_complement_sample,
    random_unit_vector,
    unit_direction,
)
from .potentials import (
    AdaptiveNormalPotential,
    NormalKnownTPotential,
    PowerPotential,
    QuadraticPotential,
    conjugate_numeric,
    exp_conjugate_upper_bound,
    regret_bound,
)
from .one_round import (
    OneRoundSolution,
    OneRoundSpec,
    classify_regime,
    lower_bound_value,
    solve_orthogonal,
    solve_parallel,
    solve_scalar_grid,
)
from .strategies import PotentialPlayer
from .adversaries import (
    FixedDirection,
    GaussianRandom,
    GreedyVsComparator,
    OrthogonalMinimax,
    ParallelMinimax,
    RademacherLine,
    greedy_vs_comparator_grad,
    orthogonal_minimax_grad,
    parallel_minimax_grad,
)
from .engine import (
    BoundReport,
    RadialBenchmark,
    Trace,
    attach_epsilon,
    comparator_grid,
    duality_witness,
    epsilon_ledger,
    read_trace_json,
    regret,
    run_game,
    run_games,
    verify_bound,
    write_trace_csv,
    write_trace_json,
)
from .oracles import (
    RecursionSpec,
    argmax_at_zero_check,
    conditional_value_recursive,
    gaussian_dominance_check,
    gaussian_expectation,
    one_round_value_full_2d,
    rademacher_smoothing_exact,
)

__version__ = "0.1.0"
