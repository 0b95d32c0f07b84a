"""Closed-form test problems with known global optima.

Two families:

* ``sim1``: minimize p.x / ||x|| over the 2-d probability simplex, the Sharpe
  form with Q = I. The global optimum has a closed form in the signs of p.
* ``sim2``: minimize (x.A.x + a3)/(x.B.x + a6) over the unbounded band
  {|x2| <= a0} with diagonal A, B. Under the parameter conditions
  a1*a5 > a2*a4 and a3*a5 = a2*a6 the global minimizers are exactly the
  segment {x1 = 0, |x2| <= a0} with minimum value a2/a5, and the ratio
  gradient has a closed form used as an oracle for gradient checks.
"""

from dataclasses import dataclass

import numpy as np

from .core import FractionalProblem
from .errors import InvalidParameter
from .linalg import as_vector, positive
from .projections import band_projector
from .sharpe import SharpeModel, sharpe_problem

_COND_RTOL = 1e-12


@dataclass(frozen=True)
class Sim1Params:
    """Direction vector p; hypotheses p1, p2, p1+p2 nonzero and p1 != p2."""

    p: np.ndarray

    def __post_init__(self):
        p = as_vector(self.p, 2, "p")
        if p[0] == 0 or p[1] == 0 or p[0] + p[1] == 0 or p[0] == p[1]:
            raise InvalidParameter(
                "need p1 != 0, p2 != 0, p1 + p2 != 0 and p1 != p2"
            )
        object.__setattr__(self, "p", p)


def build_sim1(params):
    """Problem for min p.x/||x|| on the simplex; step bound 1/(4||p||).

    The Sharpe problem with means -p, Gram term I and unit regularizer, face
    finish included: the adaptive step offers it, the fixed step never does.
    """
    return sharpe_problem(SharpeModel(-params.p, np.eye(2), 1.0, 1.0))


def sim1_analytic_solution(params):
    """Closed-form global minimizer of the simplex ratio problem."""
    p1, p2 = params.p
    if p1 < 0 and p2 < 0:
        return np.array([p1 / (p1 + p2), p2 / (p1 + p2)])
    if p1 > p2:
        return np.array([0.0, 1.0])
    return np.array([1.0, 0.0])


def sim1_shift_bound(params):
    """A valid lower bound of the ratio: -sqrt(2)*||p|| (the ratio is >= -||p||)."""
    return -float(np.linalg.norm(params.p)) * np.sqrt(2.0)


@dataclass(frozen=True)
class Sim2Params:
    """Band half-width a0 > 0 (inf: the whole plane) and six positive, finite a1..a6.

    Requires a1*a5 > a2*a4 and a3*a5 = a2*a6 (within 1e-12 relative); these
    make the minimizer set the whole segment {x1 = 0} inside the band. Stores Python floats.
    """

    a0: float
    a1: float
    a2: float
    a3: float
    a4: float
    a5: float
    a6: float

    def __post_init__(self):
        if not self.a0 > 0:
            raise InvalidParameter(f"a0 must be positive, got {self.a0}")
        for name in ("a1", "a2", "a3", "a4", "a5", "a6"):
            positive(name, getattr(self, name))
        if not self.a1 * self.a5 > self.a2 * self.a4:
            raise InvalidParameter(
                f"need a1*a5 > a2*a4, got {self.a1 * self.a5} <= {self.a2 * self.a4}"
            )
        lhs, rhs = self.a3 * self.a5, self.a2 * self.a6
        if abs(lhs - rhs) > _COND_RTOL * max(abs(lhs), abs(rhs)):
            raise InvalidParameter(f"need a3*a5 = a2*a6, got {lhs} != {rhs}")
        for name in ("a0", "a1", "a2", "a3", "a4", "a5", "a6"):
            object.__setattr__(self, name, float(getattr(self, name)))


def build_sim2(params):
    """Problem for the diagonal-quadratic ratio on the band; step bound 1/(2 max(a1,a2))."""
    a1, a2, a3, a4, a5, a6 = params.a1, params.a2, params.a3, params.a4, params.a5, params.a6
    # the gradient factors 2*a_i, formed once
    d1, d2, d4, d5 = 2.0 * a1, 2.0 * a2, 2.0 * a4, 2.0 * a5

    # diagonal quadratics on Python floats, read from an array by one tolist()
    # (a list is unpacked as is): cheaper than matmuls on 2-vectors, run every
    # solver iteration; sim2_is_global evaluates the same expressions
    def eval_f(x):
        x0, x1 = x.tolist() if isinstance(x, np.ndarray) else x
        return a1 * x0 * x0 + a2 * x1 * x1 + a3

    def eval_g(x):
        x0, x1 = x.tolist() if isinstance(x, np.ndarray) else x
        return a4 * x0 * x0 + a5 * x1 * x1 + a6

    def grad_f(x):
        x0, x1 = x.tolist() if isinstance(x, np.ndarray) else x
        return np.array([d1 * x0, d2 * x1])

    def grad_g(x):
        x0, x1 = x.tolist() if isinstance(x, np.ndarray) else x
        return np.array([d4 * x0, d5 * x1])

    return FractionalProblem(
        eval_f=eval_f,
        eval_g=eval_g,
        grad_f=grad_f,
        grad_g=grad_g,
        projection=band_projector(params.a0),
        step_bound=1.0 / (2.0 * max(a1, a2)),
        dimension=2,
        lip_grad_f=2.0 * max(a1, a2),
        lip_grad_g=2.0 * max(a4, a5),
    )


def sim2_minimum_value(params):
    """Global minimum of the band ratio problem."""
    return params.a2 / params.a5


def sim2_is_global(params, x, tol):
    """True iff x is within tol of the optimal segment and of the minimum value."""
    x = as_vector(x)
    if abs(x[0]) > tol or abs(x[1]) > params.a0 + tol:
        return False
    # build_sim2's f and g, without building the problem
    x0, x1 = float(x[0]), float(x[1])
    f = params.a1 * x0 * x0 + params.a2 * x1 * x1 + params.a3
    g = params.a4 * x0 * x0 + params.a5 * x1 * x1 + params.a6
    return abs(f / g - sim2_minimum_value(params)) <= tol


def sim2_gradient_oracle(params, x):
    """Closed-form gradient of the ratio f/g, independent of the solver path."""
    a = params
    x = as_vector(x)
    g = a.a4 * x[0] ** 2 + a.a5 * x[1] ** 2 + a.a6
    scale = 2.0 / g**2
    return scale * np.array(
        [
            x[0] * ((a.a1 * a.a5 - a.a2 * a.a4) * x[1] ** 2 + (a.a1 * a.a6 - a.a3 * a.a4)),
            x[1] * ((a.a2 * a.a4 - a.a1 * a.a5) * x[0] ** 2 + (a.a2 * a.a6 - a.a3 * a.a5)),
        ]
    )


def random_sim1_params(rng):
    """Random p meeting the hypotheses, magnitudes in [0.2, 3].

    Draws only sign patterns with at least one negative component: those
    keep the numerator nonpositive at the minimizer, the regime where the
    computed critical point carries the global-optimality certificate (with
    both components positive the ratio has two local minima and a descent
    method may legitimately stop at the non-global vertex). Also rejects
    |p1 - p2| or |p1 + p2| below 0.1: the hypotheses only require them
    nonzero, but near-degenerate directions contract arbitrarily slowly.
    """
    sign_patterns = np.array([[-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0]])
    while True:
        signs = sign_patterns[rng.integers(0, 3)]
        p = rng.uniform(0.2, 3.0, size=2) * signs
        if abs(p[0] - p[1]) < 0.1 or abs(p[0] + p[1]) < 0.1:
            continue
        return Sim1Params(p)


def random_sim2_params(rng, a0=100.0):
    """Random positive coefficients meeting both conditions exactly.

    Draws a1, a2, a4, a5, a6, rejects until a1*a5 exceeds a2*a4 with a
    margin of 0.25 (a vanishing gap stalls the contraction toward the
    optimal segment), then sets a3 = a2*a6/a5 so the equality condition
    holds by construction.
    """
    while True:
        a1, a2, a4, a5, a6 = rng.uniform(0.5, 5.0, size=5)
        if a1 * a5 > a2 * a4 + 0.25:
            a3 = a2 * a6 / a5
            return Sim2Params(a0, a1, a2, a3, a4, a5, a6)
