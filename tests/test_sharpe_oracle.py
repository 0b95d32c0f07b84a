"""srm_pga at its defaults against an independent long-only max-Sharpe optimum.

Maximizing p.w / sqrt(w.Q.w) over the simplex, when some asset has a
positive mean, is the convex QP

    min y.Q.y   s.t.   p.y = 1,  y >= 0,      w = y / sum(y)

(the standard Sharpe-to-QP reformulation). The reference solves it with
scipy's SLSQP, re-solves the equality-constrained QP exactly on the support
SLSQP found, and is accepted only when the KKT residual of the result is at
most 1e-9.
"""

import numpy as np
import pytest

scipy_optimize = pytest.importorskip("scipy.optimize")

from fracopt.sharpe import build_sharpe_model, returns_matrix, sharpe_objective, srm_pga  # noqa: E402

KKT_TOL = 1e-9
GAP_TOL = 1e-9


def kkt_residual(q, p, y):
    """Scaled KKT residual of y for min y.Q.y s.t. p.y = 1, y >= 0.

    The multiplier of the equality constraint is fitted on the support by
    least squares; the bound multipliers are what remains of the gradient.
    """
    grad = 2.0 * q @ y
    support = y > 0.0
    lam = float(grad[support] @ p[support]) / float(p[support] @ p[support])
    mu = grad - lam * p
    scale = max(1.0, float(np.abs(grad).max()), abs(lam) * float(np.abs(p).max()))
    return max(
        float(np.abs(mu[support]).max()) / scale,  # stationarity on the support
        float(np.maximum(-mu[~support], 0.0).max(initial=0.0)) / scale,  # dual feasibility
        float(np.maximum(-y, 0.0).max()),  # primal feasibility
        abs(float(p @ y) - 1.0),
    )


def support_solve(q, p, support):
    """Exact minimizer of y.Q.y s.t. p.y = 1 with y zero off the support."""
    y = np.zeros(p.size)
    qs = q[np.ix_(support, support)]
    z = np.linalg.solve(qs, p[support])
    y[support] = z / float(p[support] @ z)
    return y


def max_sharpe_reference(q, p):
    """Verified long-only max-Sharpe weights, or a failed test."""
    assert p.max() > 0.0, "no asset has a positive mean: the QP form is infeasible"
    y0 = np.zeros(p.size)
    y0[np.argmax(p)] = 1.0 / p.max()
    sol = scipy_optimize.minimize(
        lambda y: float(y @ q @ y),
        y0,
        jac=lambda y: 2.0 * q @ y,
        constraints=[{"type": "eq", "fun": lambda y: float(p @ y) - 1.0, "jac": lambda y: p}],
        bounds=[(0.0, None)] * p.size,
        method="SLSQP",
        options={"ftol": 1e-15, "maxiter": 1000},
    )
    y = np.maximum(sol.x, 0.0)
    candidates = [y]
    support = y > 1e-8 * y.max()
    if p[support].max() > 0.0:
        candidates.append(support_solve(q, p, support))
    y = min(candidates, key=lambda c: kkt_residual(q, p, c))
    residual = kkt_residual(q, p, y)
    assert residual <= KKT_TOL, f"reference KKT residual {residual:.3g} > {KKT_TOL}"
    return y / y.sum()


def factor_panel(n, seed):
    """Seeded returns of n assets driven by three common factors, T = max(120, 2n)."""
    rng = np.random.default_rng([seed, n])
    mu = rng.uniform(-0.002, 0.010, n)
    loadings = rng.normal(0.0, 1.0, (n, 3)) * rng.uniform(0.005, 0.02, 3)
    vol = rng.uniform(0.01, 0.03, n)
    t = max(120, 2 * n)
    return mu + rng.normal(size=(t, 3)) @ loadings.T + rng.normal(size=(t, n)) * vol


@pytest.mark.parametrize("n", [8, 30, 60])
@pytest.mark.parametrize("seed", [17, 29])
def test_srm_pga_matches_the_qp_optimum(n, seed):
    model = build_sharpe_model(returns_matrix(factor_panel(n, seed)))
    best = sharpe_objective(model, max_sharpe_reference(model.q_eps, model.p))
    res = srm_pga(model)
    assert res.global_certificate
    gap = (best - res.sharpe) / abs(best)
    assert abs(gap) <= GAP_TOL, f"relative Sharpe gap {gap:.3g} at N={n}"


def test_reference_rejects_a_non_optimal_point():
    model = build_sharpe_model(returns_matrix(factor_panel(8, 17)))
    p, q = model.p, model.q_eps
    y = np.full(p.size, 1.0 / p.sum())  # feasible, but not the minimizer
    assert kkt_residual(q, p, y) > KKT_TOL
