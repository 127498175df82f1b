"""Minimax and potential-based algorithms for unconstrained online linear optimization.

Every name below resolves from the package (``from minimax_online import
run_game``), but its module is imported on first access (PEP 562), so that a
process imports only the modules it uses: a sweep never loads the oracles,
and the oracles never load the engine.
"""

import importlib

# exported name -> the module that defines it
_EXPORTS = {
    **dict.fromkeys(("GameConfig", "make_rng", "norm", "random_unit_vector", "unit_direction"), "core"),
    **dict.fromkeys(("AdaptiveNormalPotential", "NormalKnownTPotential", "PowerPotential", "QuadraticPotential",
                     "exp_conjugate_upper_bound", "regret_bound"), "potentials"),
    **dict.fromkeys(("OneRoundSolution", "OneRoundSpec", "classify_regime", "solve_orthogonal", "solve_parallel",
                     "solve_scalar_grid"), "one_round"),
    "PotentialPlayer": "strategies",
    **dict.fromkeys(("FixedDirection", "GaussianRandom", "GreedyVsComparator", "OrthogonalMinimax",
                     "ParallelMinimax", "RademacherLine"), "adversaries"),
    **dict.fromkeys(("BoundReport", "Trace", "attach_epsilon", "comparator_grid", "epsilon_ledger",
                     "read_trace_json", "regret", "regret_curves", "run_column", "run_game", "run_games",
                     "verify_bound", "write_trace_csv", "write_trace_json"), "engine"),
    **dict.fromkeys(("RecursionSpec", "argmax_at_zero_check", "conditional_value_recursive", "conjugate_numeric",
                     "gaussian_dominance_check", "gaussian_expectation", "rademacher_smoothing_exact"), "oracles"),
}

__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
