"""Quanto CDS pricing engine.

Four stochastic factors (recovery rate, CIR foreign rate, exponential
OU default intensity, log-normal FX with jump at default) priced by
backward PDEs discretized with Gaussian RBF-FD stencils and marched
with classical RK4, cross-checked by a 1D Crank-Nicolson benchmark, the
credit-triangle closed form, and a correlated Monte Carlo simulator.
"""
from .grid import Grid4D, GridConfig, ScalarField, build_grid, interpolate
from .model import (BoundaryKind, BoundaryRegime, DegenerateRecoveryError,
                    ModelParams, ParameterError, beta_stationary_params,
                    boundary_regimes, validate_params)
from .oracles import (McConfig, McEstimate, cn_domestic_spread,
                      credit_triangle, mc_leg_estimates, mc_spread)
from .pde import StabilityError, jump_shift, rk4_sweep
from .pricing import (CdsSchedule, LegTerms, QuantoCdsPricer, SpreadReport,
                      domestic_params, domestic_spread, par_spread,
                      quanto_basis, terminal_condition)
from .rbffd import StencilWeights, rbf_fd_weights

__version__ = "0.1.0"

__all__ = [
    "ModelParams", "ParameterError", "DegenerateRecoveryError",
    "BoundaryKind", "BoundaryRegime", "validate_params",
    "boundary_regimes", "beta_stationary_params",
    "GridConfig", "Grid4D", "ScalarField", "build_grid", "interpolate",
    "StencilWeights", "rbf_fd_weights",
    "StabilityError", "jump_shift", "rk4_sweep",
    "CdsSchedule", "LegTerms", "SpreadReport", "QuantoCdsPricer",
    "terminal_condition", "par_spread", "domestic_params",
    "domestic_spread", "quanto_basis",
    "McConfig", "McEstimate", "credit_triangle", "mc_spread",
    "cn_domestic_spread", "mc_leg_estimates",
]
