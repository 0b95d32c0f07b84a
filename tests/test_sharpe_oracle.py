"""srm_pga at its defaults against an independent long-only max-Sharpe optimum.

Maximizing p.w / sqrt(w.Q.w) over the simplex, when some asset has a
positive mean, is the convex QP

    min y.Q.y   s.t.   p.y = 1,  y >= 0,      w = y / sum(y)

(the standard Sharpe-to-QP reformulation). The reference solves it with
scipy's SLSQP, re-solves the equality-constrained QP exactly on the support
SLSQP found, and is accepted only when the KKT residual of the result is at
most 1e-9.
"""

import dataclasses
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

scipy_optimize = pytest.importorskip("scipy.optimize")

from fracopt.core import PgaConfig, Status, pga_solve  # noqa: E402
from fracopt.linalg import dominant_eigenvalue  # noqa: E402
from fracopt.sharpe import (  # noqa: E402
    build_sharpe_model,
    returns_matrix,
    sharpe_objective,
    sharpe_problem,
    srm_pga,
)

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


@pytest.mark.parametrize("n", [8, 30, 60, 100])
@pytest.mark.parametrize("seed", [17, 29])
def test_srm_pga_matches_the_qp_optimum(n, seed):
    model = build_sharpe_model(returns_matrix(factor_panel(n, seed)))
    best = sharpe_objective(model, max_sharpe_reference(model.q_eps, model.p))
    res = srm_pga(model)
    assert res.global_certificate
    gap = (best - res.sharpe) / abs(best)
    assert abs(gap) <= GAP_TOL, f"relative Sharpe gap {gap:.3g} at N={n}"


@pytest.mark.parametrize("n", [8, 30, 60, 100])
@pytest.mark.parametrize("seed", [17, 29])
def test_exact_finish_ends_at_a_kkt_point_in_fewer_iterations(n, seed):
    model = build_sharpe_model(returns_matrix(factor_panel(n, seed)))
    res = srm_pga(model)
    y = res.weights / float(model.p @ res.weights)
    assert kkt_residual(model.q_eps, model.p, y) <= 1e-12
    without = dataclasses.replace(sharpe_problem(model), finish=None)
    plain = pga_solve(without, np.full(n, 1.0 / n), PgaConfig(adaptive=True))
    assert res.result.iterations < plain.iterations


@pytest.mark.parametrize("seed", [1, 26, 32, 48])
def test_srm_pga_solves_low_volatility_returns(seed):
    # the Gram term is about 1e-7 beside eps_hat = 1e-4, so the top
    # eigenvalues of Q_eps lie too close for 10,000 sweeps of the power
    # iteration to separate them; lambda1 is LAPACK's instead
    values = np.random.default_rng(seed).normal(0.005, 0.04, (60, 8)) * 0.01
    model = build_sharpe_model(returns_matrix(values))
    lapack = np.linalg.eigvalsh(model.q_eps)[-1]
    assert dominant_eigenvalue(model.q_eps, tol=1e-8, max_iter=10_000) == lapack
    assert model.lambda1 == lapack
    best = sharpe_objective(model, max_sharpe_reference(model.q_eps, model.p))
    res = srm_pga(model)
    assert res.result.status is Status.CONVERGED
    assert res.global_certificate
    gap = (best - res.sharpe) / abs(best)
    assert abs(gap) <= GAP_TOL, f"relative Sharpe gap {gap:.3g}"


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_srm_pga_solves_returns_at_a_small_scale(seed):
    # at 1e-4 the ratio gradient is small beside the absolute stopping tol, so
    # the stop fires after one iteration; the face finish offered there makes
    # that answer exact
    values = np.random.default_rng(seed).normal(0.3, 1.0, (60, 8)) * 1e-4
    model = build_sharpe_model(returns_matrix(values))
    best = sharpe_objective(model, max_sharpe_reference(model.q_eps, model.p))
    res = srm_pga(model)
    assert res.result.status is Status.CONVERGED
    assert res.global_certificate
    gap = (best - res.sharpe) / abs(best)
    assert abs(gap) <= 1e-12, f"relative Sharpe gap {gap:.3g}"


def test_reference_rejects_a_non_optimal_point():
    model = build_sharpe_model(returns_matrix(factor_panel(8, 17)))
    p, q = model.p, model.q_eps
    y = np.full(p.size, 1.0 / p.sum())  # feasible, but not the minimizer
    assert kkt_residual(q, p, y) > KKT_TOL


def bench_reference():
    """The benchmark's verified optimum (bench/reference.py), which imports no fracopt."""
    path = Path(__file__).resolve().parents[1] / "bench" / "reference.py"
    spec = importlib.util.spec_from_file_location("bench_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def reference_sharpe(reference, model):
    """The reference optimum of the model, taken on it rescaled to unit size.

    p * 2**-a and Q_eps * 2**-b with b even are exact outside the subnormal
    range, keep the argmax and scale the Sharpe ratio by 2**(b/2 - a).
    """
    a = math.frexp(float(np.linalg.norm(model.p)))[1]
    b = 2 * (math.frexp(float(model.q_eps.diagonal().max()))[1] // 2)
    best = reference.max_sharpe(np.ldexp(model.p, -a), np.ldexp(model.q_eps, -b))[1]
    return math.ldexp(best, a - b // 2)


def mixed_sign_returns(seed):
    return np.random.default_rng([seed, 12]).normal(0.05, 1.0, (60, 8))


# seeds of mixed_sign_returns whose first iteration passed the stop test short
# of the optimum, reported converged and certified, while the first trial step
# was 1 at every scale
MIXED_SIGN_SEEDS = {
    5: (30, 149, 339),
    20: (30, 133, 149, 295, 320, 339),
    100: (30, 133, 149, 295, 320, 339),
}


@pytest.mark.parametrize("k", [5, *range(17, 25), 100])
def test_srm_pga_converges_on_returns_at_large_scales(k):
    # the stop test and every trial step scale with the returns, so large
    # returns solve like unit ones
    panels = [np.random.default_rng(seed).normal(0.3, 1.0, (60, 8)) for seed in range(20)]
    panels += [mixed_sign_returns(seed) for seed in MIXED_SIGN_SEEDS.get(k, ())]
    reference = bench_reference()
    for i, values in enumerate(panels):
        model = build_sharpe_model(returns_matrix(values * 10.0**k))
        res = srm_pga(model)
        assert res.result.status is Status.CONVERGED, i
        best = reference_sharpe(reference, model)
        assert abs(best - res.sharpe) <= 1e-12 * abs(best), i


@pytest.mark.parametrize("k", [-30, -8, 8, 17, 40, 60, 100])
def test_srm_pga_is_invariant_under_power_of_two_scaling(k):
    # returns * 2**k with eps_hat * 4**k scale f and g by 2**k and the step
    # bound by 2**-k; the adaptive rule's first trial step 1/g(x0) scales with
    # them, so every step, stop and face finish is the unscaled one
    for seed in range(40):
        values = mixed_sign_returns(seed)
        base = srm_pga(build_sharpe_model(returns_matrix(values)))
        scaled = build_sharpe_model(
            returns_matrix(np.ldexp(values, k)), eps_hat=math.ldexp(1e-4, 2 * k)
        )
        res = srm_pga(scaled)
        assert np.array_equal(res.weights, base.weights), seed
        assert res.result.iterations == base.result.iterations, seed
        assert res.global_certificate and base.global_certificate, seed
