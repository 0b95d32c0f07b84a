"""Single-ratio fractional optimization by projected proximal gradient.

Minimize f(x)/g(x) over a closed convex set with one projection per
iteration, plus the parametric reference solver, exact simplex/band
projections, a Sharpe-ratio portfolio model, and a moving-window backtest
harness.
"""

from .core import (
    FractionalProblem,
    PgaConfig,
    SolveResult,
    SolveTrace,
    Status,
    default_alpha,
    fixed_point_residual,
    pga_solve,
    pga_solve_shifted,
)
from .dinkelbach import DinkelbachConfig, dinkelbach_solve
from .linalg import dominant_eigenvalue
from .models import (
    Sim1Params,
    Sim2Params,
    build_sim1,
    build_sim2,
    sim1_analytic_solution,
    sim2_gradient_oracle,
    sim2_is_global,
)
from .projections import band_projector, project_simplex
from .sharpe import (
    ReturnsMatrix,
    SharpeModel,
    SrmResult,
    build_sharpe_model,
    returns_matrix,
    sharpe_objective,
    srm_pga,
)
from .backtest import (
    BacktestConfig,
    BacktestReport,
    ReturnsUnit,
    Strategy,
    compute_sharpe,
    compute_wealth,
    load_returns_csv,
    market_strategy_step,
    run_backtest,
)

__version__ = "0.1.0"

__all__ = [
    "BacktestConfig",
    "BacktestReport",
    "DinkelbachConfig",
    "FractionalProblem",
    "PgaConfig",
    "ReturnsMatrix",
    "ReturnsUnit",
    "SharpeModel",
    "Sim1Params",
    "Sim2Params",
    "SolveResult",
    "SolveTrace",
    "SrmResult",
    "Status",
    "Strategy",
    "band_projector",
    "build_sharpe_model",
    "build_sim1",
    "build_sim2",
    "compute_sharpe",
    "compute_wealth",
    "default_alpha",
    "dinkelbach_solve",
    "dominant_eigenvalue",
    "fixed_point_residual",
    "load_returns_csv",
    "market_strategy_step",
    "pga_solve",
    "pga_solve_shifted",
    "project_simplex",
    "returns_matrix",
    "run_backtest",
    "sharpe_objective",
    "sim1_analytic_solution",
    "sim2_gradient_oracle",
    "sim2_is_global",
    "srm_pga",
]
