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
rules start where ``_start``'s one rule puts them, at a positive Sharpe ratio
whenever some mean is positive, which certifies the answer.

The problem built by :func:`sharpe_problem` carries an exact finish, which
the adaptive iteration tries once for each support of the weights that
settles, and on the support where its stop test fires. From the support S it
solves Q_SS z = p_S, the tangency portfolio of that face, and offers
w = z/sum(z) when z > 0 and every off-support multiplier (Q z - p)_i is
nonnegative; those are the KKT conditions of the long-only optimum (z > 0
gives p.z = z.Q_SS.z > 0), so the offered point is the maximiser. Where they
fail, primal-dual active-set corrections (Hintermueller, Ito & Kunisch) drop
the support's assets with z <= 0, take in the off-support assets with a
negative multiplier and solve again, for at most 50 rounds. The answer
depends on the support alone, not on where the weights sit on it.

Each dense product is formed once. ``build_sharpe_model`` demeans, scales
and regularizes the Gram matrix in place and hands it to
``dominant_eigenvalue`` without a copy. The oracle's ``eval_g`` keeps Q.w and
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
    NumericalBreakdown,
)
from .linalg import as_vector, dominant_eigenvalue, finite, positive
from .projections import project_simplex

# rounds of active-set corrections before the face finish gives up
_CORRECTIONS = 50
_EPS_HAT = 1e-4  # the default eps_hat, also BacktestConfig's and the command line's
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
        finite("returns", v)
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


returns_matrix = ReturnsMatrix


@dataclass(frozen=True)
class SharpeModel:
    """Assembled objective data and the step bound eps_hat / (2*N*lambda1*||p||) it derives.

    DimensionError unless p is (N,) and q_eps (N, N); InvalidParameter unless eps_hat and
    lambda1 are positive and finite; DegenerateModel when every mean is zero or the bound is not.
    """

    p: np.ndarray
    q_eps: np.ndarray
    eps_hat: float
    lambda1: float
    step_bound: float = field(init=False)

    def __post_init__(self):
        if self.p.ndim != 1 or self.q_eps.shape != (self.p.size,) * 2:
            raise DimensionError(f"p of shape {self.p.shape} with q_eps {self.q_eps.shape}")
        positive("eps_hat", self.eps_hat)
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


def build_sharpe_model(r, eps_hat=_EPS_HAT):
    """Assemble the Sharpe objective from a returns matrix.

    p is the column mean of the returns; the demeaned, 1/sqrt(T-1)-scaled
    matrix forms the Gram term; eps_hat*I regularizes it. Both steps work in
    place on arrays the build allocates, with the rounding of the direct
    formula. lambda1 is :func:`fracopt.linalg.dominant_eigenvalue`'s answer.
    Raises DegenerateModel when the mean, the Gram matrix or lambda1
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
    try:  # an overflow above leaves q_eps non-finite, which dominant_eigenvalue rejects
        lambda1 = dominant_eigenvalue(q_eps)
    except InvalidParameter as exc:
        raise DegenerateModel(f"the returns leave the float range: {exc}") from None
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
    ``finish`` maps w to the long-only maximiser that :func:`_active_set_optimum`
    reaches by active-set corrections from the support of w, or to None.
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
        return _active_set_optimum(q_eps, p, w != 0.0)

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


def _active_set_optimum(q_eps, p, free):
    """The long-only Sharpe maximiser reached by active-set corrections from a support.

    ``free`` is a boolean mask of the starting support S, read but not
    written. Each round solves Q_SS z = p_S, the tangency portfolio of the
    face, and tests the KKT signs of min z.Q.z/2 - p.z s.t. z >= 0, whose
    solution is a positive multiple of the maximiser when some mean is
    positive: z > 0 on S, and a nonnegative multiplier (Q z - p)_i off S.
    Where they hold, the answer is z/sum(z). Otherwise the next support drops
    the assets of S with z <= 0 and takes in those off S whose multiplier is
    negative (or NaN): the primal-dual active-set step of Hintermueller, Ito &
    Kunisch. None when the support empties, Q_SS is singular in float64, or
    the signs fail for 50 rounds. A round's arithmetic depends only on its
    support, so starts whose corrections reach the same support get the same
    bytes.
    """
    free = free.copy()
    for _ in range(_CORRECTIONS):
        idx = np.flatnonzero(free)
        if idx.size == 0:
            return None
        # one column block Q[:, S] gives Q_SS and Q_off,S, each the C-ordered
        # matrix an np.ix_ gather would make, so their products round alike
        cols = q_eps.take(idx, axis=1)
        try:
            z = np.linalg.solve(cols.take(idx, axis=0), p[idx])
        except np.linalg.LinAlgError:  # Q_SS is singular in float64: nothing to offer
            return None
        off = np.flatnonzero(~free)
        keep = z > 0.0
        stay_out = cols.take(off, axis=0) @ z >= p[off]
        if keep.all() and stay_out.all():
            w = np.zeros(p.size)
            w[idx] = z / z.sum()
            return w
        free[idx[~keep]] = False
        free[off[~stay_out]] = True
    return None


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
    """The start of :func:`srm_pga`: the first tier that passes one test, else a vertex.

    The tiers are the tangency portfolio Q^-1 p clipped to the long-only set (Q^-1 p
    solves Cornuejols & Tutuncu's QP form min y.Q.y s.t. p.y = 1 without its bound y >= 0;
    no tier when Q is singular in float64), then max(p, 0)/diag(Q), the KKT point of that
    QP with Q replaced by its diagonal. A tier passes when its mass is positive and finite
    and, normalized, p.w > 0; clipping can make p.w negative, so that test is what
    certifies the start. Else the vertex of the largest p_i/sqrt(Q_ii), the maximizer of
    the then quasiconvex ratio when no mean is positive.
    """
    p = model.p
    d = np.diag(model.q_eps)
    # a zero pivot, a zero variance (a model built without eps_hat) or weights
    # beyond the float range only move the start down a tier; the oracle
    # rejects a vertex it cannot evaluate
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        try:
            tiers = [np.maximum(np.linalg.solve(model.q_eps, p), 0.0)]
        except np.linalg.LinAlgError:  # Q_eps is singular in float64
            tiers = []
        for x0 in tiers + [np.maximum(p, 0.0) / d]:
            total = x0.sum()
            if 0.0 < total < math.inf:
                x0 /= total
                if p @ x0 > 0.0:
                    return x0
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

    Either step rule solves once, from the start of :func:`_start` (one LU
    solve): where Q^-1 p is long-only the start is the optimum itself, and
    elsewhere it usually lies on or near the optimal face. From a start with
    p.w > 0 the monotone descent ends certified with p.w > 0, at the global
    maximizer, and a diagonal Q is solved after one iteration. When no mean
    is positive the start is the maximizing vertex, and the solve stops after
    one iteration.

    In adaptive mode the solve usually ends on the exact finish of
    :func:`sharpe_problem`: once the support of the weights has held for 3
    accepted iterations, and at the iterate where the stop test fires, the
    maximiser is computed by active-set corrections from that support, once
    per support, and taken when they reach one whose KKT conditions hold and
    its Sharpe ratio is no lower. The status is then CONVERGED and the
    weights are exact to rounding.
    """
    result = pga_solve(sharpe_problem(model), _start(model), cfg or _ADAPTIVE)
    w = result.x_star
    return SrmResult(w, -result.ratio, bool(model.p @ w >= -1e-12), result)
