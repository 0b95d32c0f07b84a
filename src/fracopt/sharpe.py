"""Sharpe-ratio maximization over the long-only simplex.

From a T x N matrix of per-period simple returns, build the regularized
Sharpe objective

    S(w) = p.w / sqrt(w.(Q'Q + eps*I).w)

where p is the per-asset mean return and Q the demeaned returns scaled by
1/sqrt(T-1); eps keeps the quadratic form positive definite. Maximizing S
over the simplex is the fractional program min (-p.w)/g(w), solved by the
projected proximal gradient iteration. The paper's guaranteed admissible
step size is eps / (2*N*lambda1*||p||), lambda1 being the largest
eigenvalue of the regularized Gram matrix; it is about 1e-4 at N >= 30, too
small to reach the optimum in a practical number of iterations. ``srm_pga``
therefore runs the adaptive-step iteration by default (Barzilai-Borwein trial
steps, backtracking on the ratio down to the admissible step, stopped on the
step-normalised gradient mapping; see :class:`fracopt.core.PgaConfig`).
Passing ``PgaConfig()`` selects the paper's fixed-step iteration. Both step
rules start where one solve suffices (``srm_pga``): when some mean is
positive, at the tangency portfolio Q^-1 p clipped to the long-only set,
max(Q^-1 p, 0) normalized, when the Sharpe ratio is positive there (Q^-1 p
solves Cornuejols & Tutuncu's QP form without its bound y >= 0); else at
max(p, 0)/diag(Q) normalized, the long-only optimum with Q replaced by its
diagonal, where the Sharpe ratio is positive; else at the vertex of the
largest p_i/sqrt(Q_ii). A positive ratio at the start certifies the answer.

The problem built by :func:`sharpe_problem` carries an exact face finish,
which the adaptive iteration tries once for each support of the weights that
settles, and on the support where its stop test fires. On the support S it
solves Q_SS z = p_S, the tangency portfolio of that face, and offers
w = z/sum(z) when z > 0 and every off-support multiplier of the QP form
min y.Q.y s.t. p.y = 1, y >= 0 is nonnegative; those are the KKT conditions
of the long-only optimum (z > 0 gives p.z = z.Q_SS.z > 0), so the offered
point is the maximiser. The answer depends on the support alone, not on
where the weights sit on it.

Each dense product is formed once. ``build_sharpe_model`` demeans, scales
and regularizes the Gram matrix in place and hands it to the power
iteration without a copy. The oracle's ``eval_g`` keeps Q.w and
g = sqrt(w.(Q.w)) with the bytes of w, and ``grad_g`` reuses them when its
point has those bytes, so a solver iteration pays one product with Q per
trial point. ``sharpe_objective`` evaluates S(w) through that same oracle.
"""

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import FractionalProblem, PgaConfig, SolveResult, pga_solve
from .errors import (
    DegenerateModel,
    DimensionError,
    InsufficientData,
    InvalidParameter,
    NoConvergence,
    NumericalBreakdown,
)
from .linalg import as_vector, dominant_eigenvalue, positive
from .projections import project_simplex

_EIG_TOL = 1e-8
# srm_pga's default; a frozen config is safe to share between calls
_ADAPTIVE = PgaConfig(adaptive=True)


@dataclass(frozen=True)
class ReturnsMatrix:
    """T x N decimal simple returns, asset labels (default A1..AN), optional period labels."""

    values: np.ndarray
    asset_labels: Optional[tuple] = None
    period_labels: Optional[tuple] = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2:
            raise DimensionError(f"returns must be 2-d, got ndim={v.ndim}")
        if v.shape[0] < 2:
            raise InsufficientData(f"need at least 2 periods, got {v.shape[0]}")
        if v.shape[1] < 1:
            raise DimensionError("need at least one asset column")
        if not np.all(np.isfinite(v)):
            raise InvalidParameter("returns must be finite")
        object.__setattr__(self, "values", v)
        if self.asset_labels is None:
            object.__setattr__(self, "asset_labels", [f"A{j + 1}" for j in range(v.shape[1])])
        object.__setattr__(self, "asset_labels", tuple(self.asset_labels))
        if len(self.asset_labels) != v.shape[1]:
            raise InvalidParameter(
                f"{len(self.asset_labels)} asset labels for {v.shape[1]} columns"
            )
        if self.period_labels is not None:
            object.__setattr__(self, "period_labels", tuple(self.period_labels))
            if len(self.period_labels) != v.shape[0]:
                raise InvalidParameter(
                    f"{len(self.period_labels)} period labels for {v.shape[0]} rows"
                )

    @property
    def n_assets(self):
        return self.values.shape[1]


returns_matrix = ReturnsMatrix


@dataclass(frozen=True)
class SharpeModel:
    """Assembled objective data and the step bound eps_hat / (2*N*lambda1*||p||) it derives.

    DimensionError unless p is (N,) and q_eps (N, N); InvalidParameter unless lambda1 is
    positive and finite; DegenerateModel when every mean is zero or the bound is not.
    """

    p: np.ndarray
    q_eps: np.ndarray
    eps_hat: float
    lambda1: float
    step_bound: float = field(init=False)

    def __post_init__(self):
        if self.p.ndim != 1 or self.q_eps.shape != (self.p.size,) * 2:
            raise DimensionError(f"p of shape {self.p.shape} with q_eps {self.q_eps.shape}")
        positive("lambda1", self.lambda1)
        p_norm = math.sqrt(np.vdot(self.p, self.p))  # np.linalg.norm's sum, never warning
        if p_norm == 0.0 and not self.p.any():
            raise DegenerateModel("all-zero mean returns: step bound undefined")
        denominator = 2.0 * self.n_assets * self.lambda1 * p_norm
        step_bound = self.eps_hat / denominator if denominator > 0.0 else math.inf
        if not 0.0 < step_bound < math.inf:
            raise DegenerateModel(f"step bound {step_bound} is not positive and finite")
        object.__setattr__(self, "step_bound", step_bound)

    @property
    def n_assets(self):
        return self.p.shape[0]

    @property
    def lip_grad_g(self):
        """Gradient Lipschitz constant of g on the simplex."""
        return 2.0 * self.lambda1 * np.sqrt(self.n_assets / self.eps_hat)


def build_sharpe_model(r, eps_hat=1e-4):
    """Assemble the Sharpe objective from a returns matrix.

    p is the column mean of the returns; the demeaned, 1/sqrt(T-1)-scaled
    matrix forms the Gram term; eps_hat*I regularizes it. Both steps work in
    place on arrays the build allocates, with the rounding of the direct
    formula. lambda1 comes from the power iteration, or from
    ``np.linalg.eigvalsh`` when the top eigenvalues lie too close for 1,000
    sweeps to settle (low-volatility returns, where Q_eps is close to
    eps_hat*I). Raises DegenerateModel when the mean, the Gram matrix or lambda1
    leaves the float range, when fewer than N+1 rows leave the Gram matrix
    singular and eps_hat is lost to rounding beside lambda1 (so w.Q.w can
    round below zero), or when :class:`SharpeModel` finds no step bound.
    """
    positive("eps_hat", eps_hat)
    values = r.values
    t, n = values.shape
    with np.errstate(over="ignore", invalid="ignore"):
        p = values.mean(axis=0)
        q = values - p
        q /= np.sqrt(t - 1.0)
        q_eps = q.T @ q
        q_eps.flat[:: n + 1] += eps_hat
    try:  # an overflow above leaves q_eps non-finite, which the power iteration rejects
        lambda1 = dominant_eigenvalue(q_eps, tol=_EIG_TOL, max_iter=1_000)
    except InvalidParameter as exc:
        raise DegenerateModel(f"the returns leave the float range: {exc}") from None
    except NoConvergence:  # top eigenvalues too close to separate: ask LAPACK
        lambda1 = float(np.linalg.eigvalsh(q_eps)[-1])
    if t - 1 < n and eps_hat <= n * lambda1 * 2.0**-52:
        raise DegenerateModel(
            f"{t} x {n} returns give a singular Gram matrix, and eps_hat {eps_hat} is "
            f"within rounding of lambda1 {lambda1}: w.Q.w can round below zero"
        )
    return SharpeModel(p, q_eps, eps_hat, lambda1)


def sharpe_objective(model, w):
    """S(w) = p.w / sqrt(w.Q_eps.w); scale-invariant in w, undefined at w = 0.

    Computed by the oracle of :func:`sharpe_problem`, so at ``srm_pga``'s
    weights it equals the reported ``sharpe`` exactly.
    """
    w = as_vector(w, model.n_assets, "w")
    if not w.any():
        raise InvalidParameter("the Sharpe ratio is undefined at w = 0")
    return -sharpe_problem(model).ratio(w)


def sharpe_problem(model):
    """The fractional program whose minimizer maximizes the Sharpe objective.

    ``eval_g`` raises NumericalBreakdown where w.Q_eps.w is not positive (w = 0).
    ``grad_g`` at the point ``eval_g`` saw last reuses its Q.w; the point is
    matched by content, so an array changed in place since is computed anew.
    """
    p = model.p
    q_eps = model.q_eps
    neg_p = -p
    # the bytes of the last point eval_g saw, with its Q.w and g: the solver
    # asks grad_g at the trial point it last evaluated, which then costs no
    # second product with Q
    last = (None, None, None)

    # ndarray.dot: the association and rounding of @ at half its call cost on small arrays
    def eval_f(w):
        return -float(p.dot(w))

    def eval_g(w):
        nonlocal last
        qw = q_eps.dot(w)
        variance = w.dot(qw)
        if not variance > 0.0:
            raise NumericalBreakdown(f"w.Q.w = {variance}: the denominator is undefined at w")
        g = math.sqrt(variance)
        last = (w.tobytes(), qw, g)
        return g

    def grad_f(w):
        return neg_p

    def grad_g(w):
        key, qw, g = last
        if w.tobytes() != key:
            qw = q_eps.dot(w)
            g = math.sqrt(w.dot(qw))
        return qw / g

    def finish(w):
        # the tangency portfolio of the face: z solves Q_SS z = p_S, and the
        # face optimum z/sum(z) is the global one when z > 0 and every
        # off-support multiplier of the QP form, a positive multiple of
        # (Q z - p) there, is nonnegative
        idx = np.flatnonzero(w)
        # one column block Q[:, S] gives Q_SS and Q_off,S, each the C-ordered
        # matrix an np.ix_ gather would make, so their products round alike
        cols = q_eps.take(idx, axis=1)
        try:
            z = np.linalg.solve(cols.take(idx, axis=0), p[idx])
        except np.linalg.LinAlgError:  # Q_SS is singular in float64: nothing to offer
            return None
        if not np.all(z > 0.0):
            return None
        off = np.flatnonzero(w == 0.0)
        if not np.all(cols.take(off, axis=0) @ z >= p[off]):
            return None
        w_fin = np.zeros_like(w)
        w_fin[idx] = z / z.sum()
        return w_fin

    return FractionalProblem(
        eval_f=eval_f,
        eval_g=eval_g,
        grad_f=grad_f,
        grad_g=grad_g,
        projection=project_simplex,
        step_bound=model.step_bound,
        dimension=model.n_assets,
        lip_grad_f=0.0,
        lip_grad_g=model.lip_grad_g,
        finish=finish,
    )


@dataclass(frozen=True)
class SrmResult:
    """Optimized weights plus the achieved Sharpe value and optimality flag.

    ``global_certificate`` is the sign test p.w* >= 0, under which the
    terminal point is a global maximizer. When every mean is below zero the
    weights are still the maximizer (a vertex), yet the flag is False.
    """

    weights: np.ndarray
    sharpe: float
    global_certificate: bool
    result: SolveResult


def _start(model):
    """The start of :func:`srm_pga`, each tier certified by p.w > 0 where some mean is positive.

    The clipped tangency portfolio max(Q^-1 p, 0) normalized, when Q is invertible in
    float64, its mass is positive and finite and p.w > 0 there; else max(p, 0)/diag(Q)
    normalized; else the vertex of the largest p_i/sqrt(Q_ii).
    """
    p = model.p
    # a zero pivot, a zero variance (a model built without eps_hat) or weights
    # beyond the float range only move the start down a tier; the oracle
    # rejects a vertex it cannot evaluate
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        try:
            x0 = np.maximum(np.linalg.solve(model.q_eps, p), 0.0)
        except np.linalg.LinAlgError:  # Q_eps is singular in float64
            x0 = np.zeros(p.size)
        total = x0.sum()
        if 0.0 < total < math.inf:
            x0 /= total
            if p @ x0 > 0.0:
                return x0
        d = np.diag(model.q_eps)
        x0 = np.maximum(p, 0.0) / d
        total = x0.sum()
        if 0.0 < total < math.inf:
            x0 /= total
        else:  # no positive mean, or weights beyond the float range
            x0 = np.zeros(p.size)
            x0[np.argmax(p / np.sqrt(d))] = 1.0
    return x0


def srm_pga(model, cfg=None):
    """Run the proximal gradient iteration on a Sharpe model.

    The default config is ``PgaConfig(adaptive=True)``: Barzilai-Borwein
    trial steps with monotone backtracking on the ratio, never below 0.99 of
    the admissible bound, until the step-normalised gradient mapping is at
    most tol 1e-5, for at most 1e5 iterations. ``PgaConfig()`` gives the
    paper's fixed step at 0.99 of the admissible bound with the
    relative-change stop.

    Either step rule solves once, from a start where the Sharpe ratio is
    positive whenever some mean is positive. The first choice is the
    tangency portfolio Q^-1 p, which solves the QP form min y.Q.y s.t.
    p.y = 1 without its bound y >= 0, clipped to the long-only set: w
    proportional to max(Q^-1 p, 0), at the cost of one LU solve. It is taken
    when Q is invertible in float64, the clipped weights have positive,
    finite mass and p.w > 0 there; clipping can make p.w negative, so that
    last test is what certifies it. Where Q^-1 p is long-only it is the
    optimum itself, and elsewhere it usually lies on or near the optimal
    face. Otherwise the start is w proportional to max(p, 0)/diag(Q), the
    KKT point of the QP form with Q replaced by its diagonal, where p.w is a
    positive multiple of the sum of p_i**2/Q_ii over p_i > 0. From either
    start the monotone descent ends certified with p.w > 0, at the global
    maximizer, and a diagonal Q is solved after one iteration. When no mean
    is positive it starts from the vertex of the largest p_i/sqrt(Q_ii), the
    maximizer of the then quasiconvex ratio, and stops after one iteration.

    In adaptive mode the solve usually ends on the exact face finish of
    :func:`sharpe_problem`: once the support of the weights has held for 3
    accepted iterations, and at the iterate where the stop test fires, the
    face optimum is computed in closed form, once per support, and taken
    when its KKT conditions hold and its Sharpe ratio is no lower. The
    status is then CONVERGED and the weights are exact to rounding.
    """
    result = pga_solve(sharpe_problem(model), _start(model), cfg or _ADAPTIVE)
    w = result.x_star
    return SrmResult(w, -result.ratio, bool(model.p @ w >= -1e-12), result)
