"""Fractional problem abstraction and the projected proximal gradient solver.

The solver minimizes f(x)/g(x) over a closed convex set by iterating

    x[k+1] = P( x[k] - alpha*grad_f(x[k]) + alpha*(f(x[k])/g(x[k]))*grad_g(x[k]) )

where P is the Euclidean projection onto the feasible set. The step size
must stay below the problem's ``step_bound`` (the reciprocal of the
gradient-Lipschitz constant of the shifted numerator); with that bound the
ratio decreases monotonically along the iterates and the sequence converges
to a fixed point of the update map. That fixed step is the paper's path and
the default of :func:`pga_solve`.

The adaptive mode (``PgaConfig(adaptive=True)``) keeps the update and its
monotone descent but picks the step per iteration: a Barzilai-Borwein
(spectral) trial step, halved until the ratio decreases sufficiently, never
below the admissible fixed step (after Birgin, Martinez & Raydan's spectral
projected gradient and Bot & Csetnek's proximal-gradient methods for
fractional programs). It stops on the step-normalised gradient mapping of
the ratio, which, unlike the relative iterate change, does not shrink with
the step size.

An equivalent "shifted" sweep that subtracts a known lower bound M of the
ratio from the numerator is provided for cross-checking: it produces the
identical iterate sequence but reports nonnegative shifted ratio values.
"""

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import (
    InvalidParameter,
    NumericalBreakdown,
    PositivityViolation,
    ShiftViolation,
)
from .linalg import as_vector

# Adaptive step: first trial step, Armijo constant of the ratio decrease test,
# growth factor used when the last move shows no positive curvature, and the
# cap on trial steps (the safeguard of Birgin, Martinez & Raydan's spectral
# projected gradient).
_FIRST_STEP = 1.0
_SIGMA = 1e-4
_GROWTH = 2.0
_MAX_STEP = 1e30


class Status(enum.Enum):
    CONVERGED = "Converged"
    MAX_ITER_REACHED = "MaxIterReached"


@dataclass(frozen=True)
class FractionalProblem:
    """One instance of min f(x)/g(x) over a closed convex set.

    ``projection`` maps any point to the feasible set; ``step_bound`` is the
    supremum of admissible step sizes (1 / Lipschitz constant of the shifted
    numerator's gradient). ``lip_grad_f`` / ``lip_grad_g`` are the gradient
    Lipschitz constants of f and g on the set; the parametric reference
    solver needs them to pick its inner step size.
    """

    eval_f: Callable[[np.ndarray], float]
    eval_g: Callable[[np.ndarray], float]
    grad_f: Callable[[np.ndarray], np.ndarray]
    grad_g: Callable[[np.ndarray], np.ndarray]
    projection: Callable[[np.ndarray], np.ndarray]
    step_bound: float
    dimension: int
    lip_grad_f: Optional[float] = None
    lip_grad_g: Optional[float] = None

    def __post_init__(self):
        if not self.step_bound > 0:
            raise InvalidParameter(f"step_bound must be positive, got {self.step_bound}")
        if self.dimension < 1:
            raise InvalidParameter(f"dimension must be >= 1, got {self.dimension}")

    def ratio(self, x):
        """f(x)/g(x) with positivity and NaN checks."""
        return self.ratio_and_g(x)[0]

    def ratio_and_g(self, x):
        """(f(x)/g(x), g(x)) with the checks of :meth:`ratio`."""
        gx = float(self.eval_g(x))
        if math.isnan(gx):
            raise NumericalBreakdown("g(x) evaluated to NaN")
        if gx <= 0.0:
            raise PositivityViolation(f"g(x) = {gx} <= 0; the denominator must stay positive")
        fx = float(self.eval_f(x))
        if math.isnan(fx):
            raise NumericalBreakdown("f(x) evaluated to NaN")
        return fx / gx, gx


@dataclass
class PgaConfig:
    """Step rule, stopping rule, and trace switch for one solve.

    ``alpha=None`` selects the default 0.99 * step_bound of the problem.

    Fixed step (``adaptive=False``, the paper's iteration): every step is
    alpha; stop when the relative iterate change
    ||x[k]-x[k-1]|| / ||x[k-1]|| <= tol (absolute change when the previous
    iterate is the zero vector).

    Adaptive step (``adaptive=True``): with d = grad_f - c*grad_g the update
    is x+ = P(x - a*d). The first trial step is a = 1, each later one the
    Barzilai-Borwein step ||s||^2 / s.y (s = x+ - x, y = d+ - d), doubled
    instead when s.y <= 0. A trial is halved until
    c(x+) <= c(x) - 1e-4 * ||x+ - x||^2 / (a*g(x)), but never below alpha,
    where the step is accepted as is, so the ratio still decreases
    monotonically. Stop when the gradient mapping of the ratio
    ||x+ - x|| / (a*g(x)) <= tol.
    """

    alpha: Optional[float] = None
    tol: float = 1e-5
    max_iter: int = 100_000
    record_trace: bool = False
    adaptive: bool = False

    def __post_init__(self):
        if self.alpha is not None and not self.alpha > 0:
            raise InvalidParameter(f"alpha must be positive, got {self.alpha}")
        if not self.tol > 0:
            raise InvalidParameter(f"tol must be positive, got {self.tol}")
        if self.max_iter < 1:
            raise InvalidParameter(f"max_iter must be >= 1, got {self.max_iter}")


@dataclass
class DinkelbachConfig:
    """Outer/inner tolerances and budgets for the parametric reference solver."""

    outer_tol: float = 1e-8
    max_outer: int = 100
    inner_tol: float = 1e-10
    max_inner: int = 100_000
    record_trace: bool = False

    def __post_init__(self):
        for name in ("outer_tol", "max_outer", "inner_tol", "max_inner"):
            if not getattr(self, name) > 0:
                raise InvalidParameter(f"{name} must be positive")


@dataclass
class SolveTrace:
    """Per-iteration history: iterates x[k], ratio values, and step norms.

    ``iterates[i]`` and ``ratios[i]`` are aligned; ``steps[i]`` is the norm
    of the move from iterates[i] to iterates[i+1] (one entry fewer).
    """

    iterates: list = field(default_factory=list)
    ratios: list = field(default_factory=list)
    steps: list = field(default_factory=list)


@dataclass
class SolveResult:
    x_star: np.ndarray
    ratio: float
    iterations: int
    status: Status
    fixed_point_residual: float
    trace: Optional[SolveTrace] = None


def default_alpha(problem, safety=0.99):
    """Step size at the customary safety fraction of the admissible bound."""
    return safety * problem.step_bound


def fixed_point_residual(problem, x, alpha):
    """Distance from x to its own projected-gradient update.

    Zero exactly at fixed points of the iteration map, which are the
    critical points of the constrained ratio.
    """
    if not alpha > 0:
        raise InvalidParameter(f"alpha must be positive, got {alpha}")
    x = as_vector(x)
    c = problem.ratio(x)
    y = problem.projection(x - alpha * problem.grad_f(x) + alpha * c * problem.grad_g(x))
    return float(np.linalg.norm(x - y))


def _resolve_alpha(problem, cfg):
    alpha = cfg.alpha if cfg.alpha is not None else default_alpha(problem)
    if not 0 < alpha < problem.step_bound:
        raise InvalidParameter(
            f"alpha = {alpha} outside the admissible range (0, {problem.step_bound})"
        )
    return alpha


def _check_start(problem, x0):
    x0 = as_vector(x0)
    if x0.shape[0] != problem.dimension:
        raise InvalidParameter(
            f"x0 has length {x0.shape[0]}, problem dimension is {problem.dimension}"
        )
    # infeasible starts are totalized by one projection
    return problem.projection(x0)


def _project_update(projection, step_dir, k):
    # a NaN or Inf anywhere makes the sum non-finite
    if not math.isfinite(float(step_dir.sum())):
        raise NumericalBreakdown(f"non-finite update at iteration {k}")
    return projection(step_dir)


def _backtrack(x, c, d, gx, step, floor, projection, ratio_fn, k):
    """Halve a trial step until the ratio decreases sufficiently.

    Returns (step, x_next, c_next, g_next). Steps are never taken below
    ``floor``, the admissible fixed step; a step clipped to it is accepted
    as is.
    """
    while True:
        if not step > floor:
            step = floor
        x_next = _project_update(projection, x - step * d, k)
        c_next, g_next = ratio_fn(x_next)
        if step == floor:
            return step, x_next, c_next, g_next
        diff = x_next - x
        if c_next <= c - _SIGMA * float(diff @ diff) / (step * gx):
            return step, x_next, c_next, g_next
        step *= 0.5


def _run_pga(problem, x0, cfg, numerator_grad, ratio_fn):
    """Shared iteration loop; numerator_grad/ratio_fn select plain or shifted form.

    ``ratio_fn(x)`` returns the pair (ratio, g(x)), so the adaptive mode
    reuses the denominator it has already evaluated.

    Returns (x, ratio, iterations, status, alpha, trace), where alpha is the
    admissible fixed step: the step of every iteration in fixed mode, the
    floor of the backtracking search in adaptive mode.
    """
    alpha = _resolve_alpha(problem, cfg)
    x = _check_start(problem, x0)
    trace = SolveTrace() if cfg.record_trace else None
    adaptive = cfg.adaptive

    status = Status.MAX_ITER_REACHED
    iterations = cfg.max_iter
    projection = problem.projection
    grad_g = problem.grad_g
    c, gx = ratio_fn(x)
    if adaptive:
        # the update is P(x - step*d); d/g(x) is the gradient of the ratio
        d = numerator_grad(x) - c * grad_g(x)
        step = _FIRST_STEP
    for k in range(1, cfg.max_iter + 1):
        if adaptive:
            step, x_next, c_next, g_next = _backtrack(
                x, c, d, gx, step, alpha, projection, ratio_fn, k
            )
        else:
            step_dir = x - alpha * numerator_grad(x) + (alpha * c) * grad_g(x)
            x_next = _project_update(projection, step_dir, k)
            c_next, g_next = ratio_fn(x_next)
        diff = x_next - x
        move = math.sqrt(float(diff @ diff))
        if trace is not None:
            trace.iterates.append(x)
            trace.ratios.append(c)
            trace.steps.append(move)
        if adaptive:
            # gradient mapping of the ratio, whose own step is step*g(x)
            measure = move / (step * gx)
        else:
            base = math.sqrt(float(x @ x))
            measure = move / base if base > 0.0 else move
        x, c, gx = x_next, c_next, g_next
        if measure <= cfg.tol:
            status = Status.CONVERGED
            iterations = k
            break
        if adaptive:
            d_next = numerator_grad(x) - c * grad_g(x)
            curvature = float(diff @ (d_next - d))
            # Barzilai-Borwein step; grow instead when the move shows no curvature
            step = move * move / curvature if curvature > 0.0 else _GROWTH * step
            step = min(step, _MAX_STEP)
            d = d_next
    if trace is not None:
        trace.iterates.append(x)
        trace.ratios.append(c)
    return x, c, iterations, status, alpha, trace


def pga_solve(problem, x0, cfg=None):
    """Minimize f/g by the projected proximal gradient iteration.

    Parameters
    ----------
    problem : FractionalProblem
    x0 : array_like
        Starting point; projected onto the feasible set before iterating.
    cfg : PgaConfig, optional
        Defaults: fixed step alpha = 0.99 * step_bound, tol = 1e-5,
        max_iter = 1e5.

    Returns
    -------
    SolveResult with the terminal iterate, the ratio value there, the
    iteration count, status, and the fixed-point residual at the terminal
    point, measured at the fixed step alpha in both modes.
    ``result.trace`` is populated when cfg.record_trace is set.
    """
    cfg = cfg or PgaConfig()
    x, c, iterations, status, alpha, trace = _run_pga(
        problem, x0, cfg, problem.grad_f, problem.ratio_and_g
    )
    residual = fixed_point_residual(problem, x, alpha)
    return SolveResult(x, c, iterations, status, residual, trace)


def pga_solve_shifted(problem, shift, x0, cfg=None):
    """Run the iteration on the shifted numerator f - shift*g.

    ``shift`` must be a lower bound of f/g on the feasible set, so that the
    shifted ratio stays nonnegative; a negative shifted ratio (beyond
    -1e-10) raises ShiftViolation. The iterate sequence is algebraically
    identical to :func:`pga_solve`; the reported ratios are the shifted ones.
    """
    cfg = cfg or PgaConfig()
    shift = float(shift)

    def shifted_ratio(x):
        c, gx = problem.ratio_and_g(x)
        c -= shift
        if c < -1e-10:
            raise ShiftViolation(
                f"shifted ratio {c} < 0: {shift} is not a lower bound of f/g"
            )
        return c, gx

    def shifted_grad(x):
        return problem.grad_f(x) - shift * problem.grad_g(x)

    x, c, iterations, status, alpha, trace = _run_pga(
        problem, x0, cfg, shifted_grad, shifted_ratio
    )
    residual = fixed_point_residual(problem, x, alpha)
    return SolveResult(x, c, iterations, status, residual, trace)
