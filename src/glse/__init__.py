"""Regularized precoding toolkit: asymptotics, finite-N solvers, sweeps.

Every public name is resolved on first use (PEP 562), so a process loads
only the layers it touches: `from glse import replica` loads no Monte
Carlo harness, finite-N solver, RSB solver or config parser.
"""

import importlib

from .errors import ConfigurationError, ConvergenceError, DomainError

_SUBMODULE = {
    name: module
    for module, names in {
        "finite": ("PrecodeOutput", "glse_convex", "glse_convex_stack",
                   "glse_exhaustive_discrete", "glse_exhaustive_l0",
                   "glse_stationary", "rzf", "tas_random", "tas_strongest"),
        "harness": ("ExperimentRecord", "GridPoint", "SweepConfig",
                    "emit_csv", "fit_equivalent_eta", "load_sweep_config",
                    "run_sweep", "run_trial", "run_trials"),
        "penalties": ("PenaltySpec", "SupportSpec", "decouple",
                      "decouple_grid", "prox", "scalar_objective"),
        "replica": ("RsSolution", "ScenarioSpec", "lemma2_bound",
                    "random_tas_asymptote", "rate_lower_bound",
                    "solve_rs_generic", "solve_rs_scenario", "tune"),
        "rmt": ("ChannelSpec", "empirical_stieltjes", "limiting_stieltjes",
                "r_transform", "sample_channel"),
        "rsb": ("RsbSolution", "solve_rsb1"),
    }.items()
    for name in names
}

__all__ = ["ConfigurationError", "ConvergenceError", "DomainError",
           *_SUBMODULE]

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_SUBMODULE[name]}", __name__)
    return getattr(module, name)


def __dir__():
    return sorted(set(globals()) | set(_SUBMODULE))
