"""Fractional problem abstraction and the projected proximal gradient solver.

The solver minimizes f(x)/g(x) over a closed convex set by iterating

    x[k+1] = P( x[k] - a*grad_f(x[k]) + a*(f(x[k])/g(x[k]))*grad_g(x[k]) )

where P is the Euclidean projection onto the feasible set. The fixed step
alpha must stay below the problem's ``step_bound`` (the reciprocal of the
gradient-Lipschitz constant of the shifted numerator); with that bound the
ratio decreases monotonically along the iterates and the sequence converges
to a fixed point of the update map.

The loop checks each trial point with the errors of ``FractionalProblem.ratio``
and raises NumericalBreakdown, naming the iteration, on a NaN or Inf update.

Every iteration runs one step search with one projection, the line search
of Birgin, Martinez & Raydan's SPG2: the point projected at a trial step a
is tried first, then points halfway, a quarter of the way and so on along
the segment from the iterate to it, until the ratio decreases sufficiently.
Once the fraction times a is at most alpha, the point projected at alpha is
accepted as is, the one case of a second projection. The two step rules
differ only in the trial step and the stopping test. The fixed rule (the
paper's path and the default of :func:`pga_solve`) tries alpha itself, so
each step is accepted at once, and stops on the relative iterate change.
The adaptive rule
(``PgaConfig(adaptive=True)``) tries 1/g(x0), the unit step on the ratio,
and then Barzilai-Borwein (spectral) steps (after Birgin, Martinez &
Raydan's spectral projected gradient and Bot & Csetnek's proximal-gradient
methods for fractional programs), and stops on the step-normalised gradient
mapping of the ratio, which, unlike the relative iterate change, does not
shrink with the step size, or where the ratio no longer falls at alpha. So
no part of it changes when f and g scale by a power of two and the step
bound by its reciprocal.

A problem may also supply an exact finish (``FractionalProblem.finish``).
The adaptive rule tries it once for each face the iterate settles on, when
the zero pattern of the iterate has not changed for a few accepted
iterations: the active-set identification that proximal gradient reaches in
finitely many steps (Nutini, Schmidt & Hare), finished by an exact solve on
the identified face as in Bertsekas's projected Newton methods, corrected
face by face where the identified one is not yet optimal. It also
tries the face of the iterate where the stop test fires, unless that face
was offered already: from a start near the optimum the stop can fire before
any face settles, and the stop's tolerance is then the answer's only
accuracy. A returned point is taken only when its ratio is at most the
current one, so the descent stays monotone, and the solve then stops
converged; otherwise the iteration continues from the unchanged iterate (or
stops there, where the stop test fired), and that face is not offered again
within the solve: its answer would be the same, and the ratio it had to beat
only falls.

The paper's analysis subtracts a lower bound M of the ratio from the
numerator, which changes no update: :func:`pga_solve_shifted` reports the
plain sweep bit for bit, with the ratios minus M.
"""

import enum
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .errors import (
    InvalidParameter,
    NumericalBreakdown,
    PositivityViolation,
    ShiftViolation,
)
from .linalg import as_vector, integer, nonnegative, positive

# Adaptive step: Armijo constant of the ratio decrease test, growth factor
# when the last move shows no positive curvature, and the trial step cap
# (the safeguard of Birgin, Martinez & Raydan's spectral projected gradient).
_SIGMA = 1e-4
_GROWTH = 2.0
_MAX_STEP = 1e30
# Exact face finish: accepted iterations with an unchanged zero pattern before
# the one attempt on that face.
_FINISH_LAG = 3


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

    ``finish``, when given, maps a feasible point x to an exact minimiser of
    the ratio, reached by corrections from the face of x (the points with the
    zeros of x), or to None when it has none to offer. Its answer depends
    only on the face of x, so the adaptive step rule asks it once per face.
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
    finish: Optional[Callable[[np.ndarray], Optional[np.ndarray]]] = None

    def __post_init__(self):
        positive("step_bound", self.step_bound)
        integer("dimension", self.dimension)
        for name in ("lip_grad_f", "lip_grad_g"):
            if getattr(self, name) is not None:
                nonnegative(name, getattr(self, name))

    def ratio(self, x):
        """f(x)/g(x) with positivity and NaN checks."""
        fx, gx = self._f_and_g(x)
        return fx / gx

    def _f_and_g(self, x):
        """(f(x), g(x)), each evaluated once, with the checks of :meth:`ratio`."""
        gx = float(self.eval_g(x))
        if math.isnan(gx):
            raise NumericalBreakdown("g(x) evaluated to NaN")
        if gx <= 0.0:
            raise PositivityViolation(f"g(x) = {gx} <= 0; the denominator must stay positive")
        fx = float(self.eval_f(x))
        if math.isnan(fx):
            raise NumericalBreakdown("f(x) evaluated to NaN")
        return fx, gx


@dataclass(frozen=True)
class PgaConfig:
    """Step rule, stopping rule, and trace switch for one solve.

    ``alpha=None`` selects the default 0.99 * step_bound of the problem.

    Both rules project once at a trial step a, with c = f(x)/g(x) and
    D = P(x - a*grad_f + a*c*grad_g) - x, and search the segment to that
    point the same way: x+ = x + t*D for t = 1, 1/2, 1/4, ..., the first
    point where c(x+) <= c(x) - 1e-4 * t * ||D||^2 / (a*g(x)). Once t*a is
    at most alpha, x+ = P(x - alpha*grad_f + alpha*c*grad_g) is accepted as
    is, so the ratio decreases monotonically.

    Fixed step (``adaptive=False``, the paper's iteration): the trial step
    is alpha, so every step is alpha; stop when the relative iterate change
    ||x[k]-x[k-1]|| / ||x[k-1]|| <= tol (absolute change when the previous
    iterate is the zero vector).

    Adaptive step (``adaptive=True``): with d = grad_f - c*grad_g, the first
    trial step is a = 1/g(x0), each later one the Barzilai-Borwein step
    ||s||^2 / s.y (s = x+ - x, y = d+ - d), doubled instead when s.y <= 0.
    Stop when the gradient mapping of the ratio at the projection's step,
    ||D|| / (a*g(x)), read as ||x+ - x|| / (t*a*g(x)), is at most tol; it
    reads 0 where the accepted move rounds to nothing. Also stop at x, not
    taking x+, where x+ is the point projected at alpha and c(x+) >= c(x):
    at an admissible alpha (the default) the ratio falls unless x is
    stationary, so x is stationary to the rounding of f and g. With a
    ``finish``, this second stop waits until the face of x has been offered
    and declined.
    When the problem has a ``finish`` (an exact minimiser reached by
    corrections from the face of x), it is called after an accepted
    iteration once the zero pattern of x has been unchanged for 3 accepted
    iterations, and after the iteration where the stop test fires, at most
    once per zero pattern in a solve. Its point is taken only if its ratio
    is at most c(x); the solve then stops converged, with the iteration
    count of that iteration, and the trace ends with that point. The fixed
    step never calls it.
    """

    alpha: Optional[float] = None
    tol: float = 1e-5
    max_iter: int = 100_000
    record_trace: bool = False
    adaptive: bool = False

    def __post_init__(self):
        if self.alpha is not None:
            positive("alpha", self.alpha)
        positive("tol", self.tol)
        integer("max_iter", self.max_iter)


@dataclass(frozen=True)
class SolveTrace:
    """Per-iteration history: aligned iterates x[k] and ratio values.

    An accepted exact finish is one more point, so that trace holds one
    entry more than the iteration count implies.
    """

    iterates: list = field(default_factory=list)
    ratios: list = field(default_factory=list)


@dataclass(frozen=True)
class SolveResult:
    x_star: np.ndarray
    ratio: float
    iterations: int
    status: Status
    trace: Optional[SolveTrace] = None


def default_alpha(problem):
    """Step size at the customary safety fraction 0.99 of the admissible bound."""
    return 0.99 * problem.step_bound


def fixed_point_residual(problem, x, alpha):
    """Distance from x to its own projected-gradient update.

    Zero exactly at fixed points of the iteration map, which are the
    critical points of the constrained ratio.
    """
    positive("alpha", alpha)
    x = as_vector(x, problem.dimension)
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


def _run_pga(problem, x0, cfg):
    """The solver loop of both step rules."""
    alpha = _resolve_alpha(problem, cfg)
    # infeasible starts are totalized by one projection
    x = problem.projection(as_vector(x0, problem.dimension, "x0"))
    trace = SolveTrace() if cfg.record_trace else None
    adaptive, tol = cfg.adaptive, cfg.tol
    # bound once: on 2-d problems the loop's cost is mostly lookups and calls
    f_and_g, projection = problem._f_and_g, problem.projection
    eval_f, eval_g, grad_f, grad_g = problem.eval_f, problem.eval_g, problem.grad_f, problem.grad_g
    sqrt, isfinite, add_reduce = math.sqrt, math.isfinite, np.add.reduce

    finish = problem.finish if adaptive else None
    # zero pattern of x, and the accepted iterations it has held since it
    # last changed
    zeros = None
    settled = 0
    # zero patterns whose finish was declined: the finish depends only on the
    # face and c only falls, so it would be declined again
    declined = set()

    status = Status.MAX_ITER_REACHED
    iterations = cfg.max_iter
    fx, gx = f_and_g(x)
    c = fx / gx
    step = alpha
    for k in range(1, cfg.max_iter + 1):
        grad_n = grad_f(x)
        grad_d = grad_g(x)
        if adaptive:
            # d/g(x) is the gradient of the ratio; the first trial step 1/g(x)
            # is the unit step on it, each later one the Barzilai-Borwein step
            # of the last move, grown instead when the move shows no curvature
            d_next = grad_n - c * grad_d
            if k == 1:
                step = 1.0 / gx
            else:
                curvature = float(diff.dot(d_next - d))
                step = move * move / curvature if curvature > 0.0 else _GROWTH * step
            step = min(step, _MAX_STEP)
            d = d_next
        # step search (Birgin, Martinez & Raydan's SPG2): project once at the
        # trial step, then halve t along the segment from x to that point
        # until the ratio decreases sufficiently; once t*step is at most
        # alpha, project at alpha and accept that point as is
        if not step > alpha:
            step = alpha
        t = 1.0
        while True:
            if t == 1.0:
                step_dir = x - step * grad_n + (step * c) * grad_d
                # a NaN or Inf anywhere makes the sum (np.add.reduce) non-finite
                if not isfinite(add_reduce(step_dir)):
                    raise NumericalBreakdown(f"non-finite update at iteration {k}")
                x_next = projection(step_dir)
                diff = x_next - x
                dd = diff.dot(diff)
            else:
                x_next = x + t * diff
            # _f_and_g's checks; it is called only to raise its own error
            g_next = float(eval_g(x_next))
            f_next = float(eval_f(x_next)) if g_next > 0.0 else math.nan
            if f_next != f_next:
                f_next, g_next = f_and_g(x_next)
            c_next = f_next / g_next
            if step == alpha or c_next <= c - _SIGMA * t * dd / (step * gx):
                break
            t *= 0.5
            if not t * step > alpha:
                step, t = alpha, 1.0
        if t < 1.0:
            # the accepted move, for the stop test and the next trial step
            diff = x_next - x
            dd = diff.dot(diff)
        move = sqrt(dd)
        if trace is not None:
            trace.iterates.append(x)
            trace.ratios.append(c)
        if adaptive:
            # the gradient mapping of the ratio at the projection's step,
            # ||D||/(step*g(x)), read from the accepted move t*D: it is 0
            # only where that move rounds to nothing and x cannot move
            measure = move / (t * step * gx)
            if step == alpha and not c_next < c and (finish is None or zeros in declined):
                # the ratio falls at the admissible step unless x is
                # stationary; where it does not, and no finish is left to
                # try on this face, x is stationary to the oracle's
                # rounding: stay there and stop
                x_next, c_next, g_next, measure = x, c, gx, 0.0
        else:
            base = sqrt(x.dot(x))
            measure = move / base if base > 0.0 else move
        x, c, gx = x_next, c_next, g_next
        stop = measure <= tol
        if finish is not None:
            zeros_next = (x == 0.0).tobytes()
            settled = settled + 1 if zeros_next == zeros else 0
            zeros = zeros_next
            # offered where the face has settled, and where the stop fires:
            # a stop near the start can come before any face settles
            if (stop or settled == _FINISH_LAG) and zeros not in declined:
                x_fin = finish(x)
                c_fin = None if x_fin is None else problem.ratio(x_fin)
                if c_fin is not None and c_fin <= c:
                    if trace is not None:
                        trace.iterates.append(x)
                        trace.ratios.append(c)
                    x, c = x_fin, c_fin
                    stop = True
                else:
                    declined.add(zeros)
        if stop:
            status = Status.CONVERGED
            iterations = k
            break
    if trace is not None:
        trace.iterates.append(x)
        trace.ratios.append(c)
    return SolveResult(x, c, iterations, status, trace)


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
    iteration count and status. ``result.trace`` is populated when
    cfg.record_trace is set. The fixed-point residual of the answer is
    ``fixed_point_residual(problem, result.x_star, default_alpha(problem))``.
    """
    return _run_pga(problem, x0, cfg or PgaConfig())


def pga_solve_shifted(problem, shift, x0, cfg=None):
    """:func:`pga_solve` reported for the shifted numerator f - shift*g.

    The shifted update is the plain one, so the iterates, iteration count and
    status are :func:`pga_solve`'s bit for bit; the ratios are the plain ones
    minus ``shift``. A non-finite ``shift`` raises InvalidParameter before the
    solve. ``shift`` must be a lower bound of f/g: the descent is monotone, so
    a final shifted ratio below -1e-10 raises ShiftViolation after the solve.
    """
    shift = float(shift)
    if not math.isfinite(shift):
        raise InvalidParameter(f"shift must be finite, got {shift}")
    result = _run_pga(problem, x0, cfg or PgaConfig())
    ratio = result.ratio - shift
    if ratio < -1e-10:
        raise ShiftViolation(f"shifted ratio {ratio} < 0: {shift} is not a lower bound of f/g")
    trace = result.trace
    if trace is not None:
        trace = SolveTrace(trace.iterates, [c - shift for c in trace.ratios])
    return replace(result, ratio=ratio, trace=trace)
