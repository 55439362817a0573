"""Scalar linear-quadratic mean field games: backward Riccati solvers,
feedback synthesis, population Monte Carlo, and packaged experiments."""

from .errors import (LqmfgError, ModelConfigError, NonSolvableError,
                     SimulationDivergedError, SingularGainError)
from .experiments import (ExperimentTable, epsilon_sweep, nash_gap,
                          riccati_convergence)
from .model import (CoefficientSet, InitialLaw, TimeGrid, TimeProfile,
                    ValidationReport, canonical_fingerprint, load_config,
                    parse_coefficients, parse_grid, parse_initial_law,
                    validate)
from .riccati import (GainSchedule, RiccatiSolution, convexity_margin, gains,
                      solve_finite_N, solve_limit)
from .sim import (PathSet, PopulationConfig, costs_all_agents, simulate,
                  simulate_reps, stream)
from .synthesis import (LAW_KINDS, MeanFieldPath, StrategyLaw, make_law,
                        solve_mean_field)

__version__ = "0.1.0"

__all__ = [
    "CoefficientSet", "ExperimentTable", "GainSchedule", "InitialLaw",
    "LAW_KINDS", "LqmfgError", "MeanFieldPath", "ModelConfigError",
    "NonSolvableError", "PathSet", "PopulationConfig", "RiccatiSolution",
    "SimulationDivergedError", "SingularGainError", "StrategyLaw",
    "TimeGrid", "TimeProfile", "ValidationReport", "canonical_fingerprint",
    "convexity_margin", "costs_all_agents", "epsilon_sweep", "gains",
    "load_config", "make_law", "nash_gap", "parse_coefficients",
    "parse_grid", "parse_initial_law", "riccati_convergence", "simulate",
    "simulate_reps", "solve_finite_N", "solve_limit", "solve_mean_field",
    "stream", "validate",
]
