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
Passing ``PgaConfig()`` selects the paper's fixed-step iteration. An
adaptive solve that ends without a global certificate is run again from the
vertex of the largest positive mean, where it is certified.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import FractionalProblem, PgaConfig, SolveResult, pga_solve
from .errors import DegenerateModel, DimensionError, InsufficientData, InvalidParameter
from .linalg import dominant_eigenvalue

_EIG_TOL = 1e-8


@dataclass(frozen=True)
class ReturnsMatrix:
    """T x N decimal simple returns with asset labels and optional period labels."""

    values: np.ndarray
    asset_labels: tuple
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
    def n_periods(self):
        return self.values.shape[0]

    @property
    def n_assets(self):
        return self.values.shape[1]


def returns_matrix(values, asset_labels=None, period_labels=None):
    """Build a ReturnsMatrix, defaulting labels to A1..AN."""
    v = np.asarray(values, dtype=float)
    if asset_labels is None and v.ndim == 2:
        asset_labels = [f"A{j + 1}" for j in range(v.shape[1])]
    return ReturnsMatrix(v, asset_labels, period_labels)


@dataclass(frozen=True)
class SharpeModel:
    """Assembled objective data: mean vector, regularized Gram matrix, step bound."""

    p: np.ndarray
    q_eps: np.ndarray
    eps_hat: float
    lambda1: float
    step_bound: float

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
    matrix forms the Gram term; eps_hat*I regularizes it. Raises
    DegenerateModel when every asset has zero mean return (the step bound
    is undefined there).
    """
    if not eps_hat > 0:
        raise InvalidParameter(f"eps_hat must be positive, got {eps_hat}")
    values = r.values
    t, n = values.shape
    p = values.mean(axis=0)
    q = (values - p) / np.sqrt(t - 1.0)
    q_eps = q.T @ q + eps_hat * np.eye(n)
    lambda1 = dominant_eigenvalue(q_eps, tol=_EIG_TOL)
    p_norm = float(np.linalg.norm(p))
    if p_norm == 0.0:
        raise DegenerateModel("all-zero mean returns: step bound undefined")
    step_bound = eps_hat / (2.0 * n * lambda1 * p_norm)
    return SharpeModel(p, q_eps, eps_hat, lambda1, step_bound)


def sharpe_objective(model, w):
    """S(w) = p.w / sqrt(w.Q_eps.w); scale-invariant in w."""
    w = np.asarray(w, dtype=float)
    return float(model.p @ w) / float(np.sqrt(w @ model.q_eps @ w))


def sharpe_problem(model):
    """The fractional program whose minimizer maximizes the Sharpe objective."""
    p = model.p
    q_eps = model.q_eps

    def eval_f(w):
        return -float(p @ w)

    def eval_g(w):
        return float(np.sqrt(w @ q_eps @ w))

    def grad_f(w):
        return -p

    def grad_g(w):
        return q_eps @ w / eval_g(w)

    from .projections import project_simplex

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
    )


@dataclass
class SrmResult:
    """Optimized weights plus the achieved Sharpe value and optimality flag.

    ``global_certificate`` is True when p.w* >= 0 at the terminal point,
    the condition under which the computed critical point is a global
    maximizer of the Sharpe objective.
    """

    weights: np.ndarray
    sharpe: float
    global_certificate: bool
    result: SolveResult


def srm_pga(model, cfg=None):
    """Run the proximal gradient iteration on a Sharpe model.

    Starts from equal weights. The default config is
    ``PgaConfig(adaptive=True)``: Barzilai-Borwein trial steps with monotone
    backtracking on the ratio, never below 0.99 of the admissible bound, until
    the step-normalised gradient mapping is at most tol 1e-5, for at most 1e5
    iterations. ``PgaConfig()`` gives the paper's fixed step at 0.99 of the
    admissible bound with the relative-change stop.

    In adaptive mode, when the solve ends without a global certificate while
    some asset has a positive mean, it is run again from the vertex of the
    asset with the largest mean. The ratio is negative there and the descent
    is monotone, so that solve ends with p.w > 0, certified; its result
    replaces the first one.
    """
    n = model.n_assets
    cfg = cfg or PgaConfig(adaptive=True)
    problem = sharpe_problem(model)
    p = model.p
    result = pga_solve(problem, np.full(n, 1.0 / n), cfg)
    if cfg.adaptive and p @ result.x_star < -1e-12 and p.max() > 0.0:
        result = pga_solve(problem, np.eye(n)[np.argmax(p)], cfg)
    w = result.x_star
    certificate = bool(p @ w >= -1e-12)
    return SrmResult(w, -result.ratio, certificate, result)
