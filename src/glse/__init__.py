"""Regularized precoding toolkit: asymptotics, finite-N solvers, sweeps."""

from .errors import ConfigurationError, ConvergenceError, DomainError
from .finite import (PrecodeOutput, glse_convex, glse_convex_stack,
                     glse_exhaustive_discrete, glse_exhaustive_l0,
                     glse_stationary, rzf, tas_random, tas_strongest)
from .harness import (ExperimentRecord, GridPoint, SweepConfig, emit_csv,
                      fit_equivalent_eta, load_sweep_config, run_sweep,
                      run_trial, run_trials)
from .penalties import (PenaltySpec, SupportSpec, decouple, decouple_grid,
                        prox, scalar_objective)
from .replica import (RsSolution, ScenarioSpec, lemma2_bound,
                      random_tas_asymptote, rate_lower_bound,
                      solve_rs_generic, solve_rs_scenario, tune)
from .rmt import (ChannelSpec, empirical_stieltjes, limiting_stieltjes,
                  r_transform, sample_channel)
from .rsb import RsbSolution, solve_rsb1

__version__ = "0.1.0"
