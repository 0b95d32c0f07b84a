"""Parametric reference solver for concave-over-convex ratio problems.

Maximizes -f/g (equivalently minimizes f/g) by alternating between the
convex subproblem min_x f(x) + c*g(x) on the feasible set and the parameter
update c <- -f(x)/g(x). Requires a start with f(x0) <= 0 so the parameter
stays nonnegative and every subproblem stays convex. Used as an independent
cross-check of the proximal gradient path.
"""

import math
from dataclasses import dataclass

from .core import SolveResult, SolveTrace, Status
from .errors import InnerSolverFailure, InvalidParameter, InvalidStart
from .linalg import as_vector, integer, positive


@dataclass(frozen=True)
class DinkelbachConfig:
    """Outer/inner tolerances and budgets for the parametric reference solver."""

    outer_tol: float = 1e-8
    max_outer: int = 100
    inner_tol: float = 1e-10
    max_inner: int = 100_000
    record_trace: bool = False

    def __post_init__(self):
        for name in ("outer_tol", "inner_tol"):
            positive(name, getattr(self, name))
        for name in ("max_outer", "max_inner"):
            integer(name, getattr(self, name))


def _projected_gradient(problem, c, x, step, tol, max_iter):
    """Minimize f + c*g from x by fixed-step projected gradient descent."""
    grad_f, grad_g, project, sqrt = problem.grad_f, problem.grad_g, problem.projection, math.sqrt
    for _ in range(int(max_iter)):
        grad = grad_f(x) + c * grad_g(x)
        x_next = project(x - step * grad)
        diff = x_next - x
        move = sqrt(diff.dot(diff))
        base = sqrt(x.dot(x))
        rel = move / base if base > 0.0 else move
        x = x_next
        if rel <= tol:
            return x
    raise InnerSolverFailure(
        f"subproblem (c = {c}) did not reach tol {tol} within {max_iter} iterations"
    )


def dinkelbach_solve(problem, x0, cfg=None):
    """Solve min f/g by the parametric subtractive scheme.

    The subproblem min f + c*g is solved by projected gradient descent with
    fixed step 0.99/(L_f' + c*L_g'), using the gradient Lipschitz constants
    carried by the problem. Stops when |f(x) + c*g(x)| <= outer_tol, i.e.
    when the parametric value function vanishes.

    Returns a SolveResult; ``ratio`` is f/g at the terminal point (the
    negative of the terminal parameter). The optional trace records the
    outer iterates and their plain ratio values.
    """
    cfg = cfg or DinkelbachConfig()
    if problem.lip_grad_f is None or problem.lip_grad_g is None:
        raise InvalidParameter(
            "dinkelbach_solve needs lip_grad_f and lip_grad_g on the problem"
        )
    x = problem.projection(as_vector(x0, problem.dimension, "x0"))
    # f and g are evaluated once per visited point, with the checks of ratio
    fx, gx = problem._f_and_g(x)
    if fx > 0:
        raise InvalidStart(
            f"f(x0) = {fx} > 0; the parametric scheme needs a start with f(x0) <= 0"
        )
    ratio = fx / gx
    c = -ratio  # c0 >= 0 by the start condition
    trace = SolveTrace() if cfg.record_trace else None
    if trace is not None:
        trace.iterates.append(x)
        trace.ratios.append(ratio)

    status = Status.MAX_ITER_REACHED
    iterations = cfg.max_outer
    for k in range(1, cfg.max_outer + 1):
        denom = problem.lip_grad_f + c * problem.lip_grad_g
        # a linear subproblem (both constants zero) admits any step
        step = 0.99 / denom if denom > 0 else 1.0
        x = _projected_gradient(problem, c, x, step, cfg.inner_tol, cfg.max_inner)
        fx, gx = problem._f_and_g(x)
        value = -fx - c * gx
        ratio = fx / gx
        if trace is not None:
            trace.iterates.append(x)
            trace.ratios.append(ratio)
        if abs(value) <= cfg.outer_tol:
            status = Status.CONVERGED
            iterations = k
            break
        c = -ratio

    return SolveResult(x, ratio, iterations, status, trace)
