import dataclasses
import math
import warnings

import numpy as np
import pytest

from conftest import central_diff_grad, random_simplex_point
from fracopt.core import PgaConfig, default_alpha, fixed_point_residual
from fracopt.errors import (
    DegenerateModel,
    DimensionError,
    InsufficientData,
    InvalidParameter,
    NumericalBreakdown,
)
from fracopt.linalg import dominant_eigenvalue
from fracopt.sharpe import (
    ReturnsMatrix,
    SharpeModel,
    build_sharpe_model,
    returns_matrix,
    sharpe_objective,
    sharpe_problem,
    srm_pga,
)


def constant_returns(means, periods):
    return returns_matrix(np.tile(np.asarray(means, dtype=float), (periods, 1)))


def random_model(rng, t=None, n=None, eps=1e-4):
    t = t or int(rng.integers(3, 61))
    n = n or int(rng.integers(2, 26))
    values = rng.normal(0.005, 0.04, size=(t, n))
    return build_sharpe_model(returns_matrix(values), eps)


class TestReturnsMatrix:
    def test_too_few_periods(self):
        with pytest.raises(InsufficientData):
            returns_matrix([[0.1, 0.2]])

    def test_label_count_mismatch(self):
        with pytest.raises(InvalidParameter):
            ReturnsMatrix(np.zeros((3, 2)), ("A",))

    def test_period_label_mismatch(self):
        with pytest.raises(InvalidParameter):
            ReturnsMatrix(np.zeros((3, 2)), ("A", "B"), ("p1",))
        with pytest.raises(InvalidParameter, match="^2 period labels for 3 rows$"):
            ReturnsMatrix(np.zeros((3, 2)), None, ("a", "b"))

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidParameter):
            returns_matrix([[0.1, np.nan], [0.0, 0.0]])

    def test_asset_labels_default(self):
        r = ReturnsMatrix(np.zeros((3, 4)))
        assert r.asset_labels == ("A1", "A2", "A3", "A4")
        assert r.period_labels is None
        assert returns_matrix is ReturnsMatrix

    def test_wrong_rank(self):
        with pytest.raises(DimensionError):
            ReturnsMatrix(np.zeros(4), ("A",))


class TestBuildModel:
    def test_constant_columns_zero_gram(self):
        model = build_sharpe_model(constant_returns([0.1, 0.2], 3), 1e-4)
        assert np.allclose(model.p, [0.1, 0.2])
        assert np.allclose(model.q_eps, 1e-4 * np.eye(2), atol=1e-12)
        assert model.lambda1 == pytest.approx(1e-4, rel=1e-6)

    def test_two_period_demeaning(self):
        model = build_sharpe_model(returns_matrix([[0.1, 0.3], [0.3, 0.1]]), 0.01)
        assert np.allclose(model.p, [0.2, 0.2])
        gram = model.q_eps - 0.01 * np.eye(2)
        assert np.allclose(gram, [[0.02, -0.02], [-0.02, 0.02]], atol=1e-15)
        # eigenvalues of the regularized matrix are 0.05 and 0.01
        assert model.lambda1 == pytest.approx(0.05, rel=1e-7)
        expected_bound = 0.01 / (2 * 2 * model.lambda1 * np.linalg.norm(model.p))
        assert model.step_bound == pytest.approx(expected_bound, rel=1e-12)

    def test_denominator_floor_on_simplex(self):
        rng = np.random.default_rng(73)
        for _ in range(10):
            model = random_model(rng)
            problem = sharpe_problem(model)
            floor = np.sqrt(model.eps_hat / model.n_assets)
            for _ in range(20):
                w = random_simplex_point(rng, model.n_assets)
                assert problem.eval_g(w) >= floor - 1e-12

    def test_gram_matches_the_direct_formula_bit_for_bit(self):
        rng = np.random.default_rng(67)
        for _ in range(30):
            t, n = int(rng.integers(2, 40)), int(rng.integers(1, 30))
            values = rng.normal(0.005, 0.04, (t, n))
            model = build_sharpe_model(returns_matrix(values), 1e-4)
            q = (values - values.mean(axis=0)) / np.sqrt(t - 1.0)
            expected = q.T @ q + 1e-4 * np.eye(n)
            assert model.q_eps.tobytes() == expected.tobytes()

    def test_lambda1_from_lapack_past_the_sweep_budget(self):
        # low-volatility returns leave the top eigenvalues of Q_eps so close
        # that the power iteration settles only after 2,629 sweeps here, on a
        # value other than LAPACK's; within its budget of 1,000 sweeps
        # dominant_eigenvalue answers with LAPACK's. 40 assets take the
        # sweep: up to 32, LAPACK answers without one
        values = np.random.default_rng(0).normal(0.005, 0.04, (80, 40)) * 0.01
        model = build_sharpe_model(returns_matrix(values))
        lapack = float(np.linalg.eigvalsh(model.q_eps)[-1])
        assert dominant_eigenvalue(model.q_eps) == lapack
        assert model.lambda1 == lapack

    def test_lambda1_costs_one_call_and_one_lapack_solve(self, monkeypatch):
        # the build leaves the LAPACK fallback to dominant_eigenvalue: one call
        # of each on a low-volatility panel, whose sweeps do not settle within
        # the budget (40 assets take the sweep; up to 32, LAPACK answers at once)
        calls = {"dominant_eigenvalue": 0, "eigvalsh": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            "fracopt.sharpe.dominant_eigenvalue", counted("dominant_eigenvalue", dominant_eigenvalue)
        )
        monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", np.linalg.eigvalsh))
        values = np.random.default_rng(0).normal(0.005, 0.04, (80, 40)) * 0.01
        build_sharpe_model(returns_matrix(values))
        assert calls == {"dominant_eigenvalue": 1, "eigvalsh": 1}

    def test_lambda1_from_the_power_iteration_within_the_sweep_budget(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            model = random_model(rng)
            assert model.lambda1 == dominant_eigenvalue(model.q_eps)

    def test_zero_mean_degenerate(self):
        with pytest.raises(DegenerateModel):
            build_sharpe_model(returns_matrix([[0.1], [-0.1]]), 1e-4)

    def test_step_bound_is_derived(self):
        rng = np.random.default_rng(71)
        for n in (1, 2, 8, 30):
            p = rng.normal(0.005, 0.04, n)
            q = np.eye(n)
            eps, lam = 1e-4, float(rng.uniform(0.5, 2.0))
            model = SharpeModel(p, q, eps, lam)
            assert model.step_bound == eps / (2.0 * n * lam * float(np.linalg.norm(p)))
        fields = [f.name for f in dataclasses.fields(SharpeModel) if f.init]
        assert fields == ["p", "q_eps", "eps_hat", "lambda1"]
        with pytest.raises(TypeError):
            SharpeModel(p, q, eps, lam, 1.0)
        values = rng.normal(0.005, 0.04, (40, 10))
        model = build_sharpe_model(returns_matrix(values), 1e-4)
        p_norm = float(np.linalg.norm(model.p))
        assert model.step_bound == 1e-4 / (2.0 * 10 * model.lambda1 * p_norm)

    def test_zero_mean_model_degenerate(self):
        with pytest.raises(DegenerateModel, match="all-zero mean returns"):
            SharpeModel(np.zeros(2), np.eye(2), 1e-4, 1.0)

    def test_non_positive_eigenvalue_rejected(self):
        for lam in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(InvalidParameter, match="lambda1 must be positive and finite"):
                SharpeModel(np.array([0.1, 0.2]), np.eye(2), 1e-4, lam)

    def test_overflowing_step_bound_degenerate(self):
        # at 1e150 the product 2*N*lambda1*||p|| overflows and the bound is 0
        values = np.random.default_rng(0).normal(0.0, 1e150, (10, 3))
        with pytest.raises(DegenerateModel, match="step bound 0.0 is not positive and finite"):
            build_sharpe_model(returns_matrix(values), 1e-4)

    def test_overflowing_gram_degenerate_without_warning(self):
        # at 1e155 the Gram product q.T @ q overflows: a data error, not a
        # RuntimeWarning followed by a complaint about non-finite matrix entries
        values = np.random.default_rng(0).normal(0.3, 1.0, (10, 3)) * 1e155
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DegenerateModel, match="float range"):
                build_sharpe_model(returns_matrix(values), 1e-4)

    def test_overflowing_mean_degenerate_without_warning(self):
        values = np.array([[1.5e308, 0.1], [1.5e308, 0.2], [1.0e308, 0.3]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DegenerateModel, match="float range"):
                build_sharpe_model(returns_matrix(values), 1e-4)

    def test_singular_gram_lost_to_rounding_degenerate(self):
        # two rows of five assets at 1e7: Q is singular, and eps_hat = 1e-4 is
        # below the rounding of w.Q.w beside lambda1 ~ 1e15, so a solve could
        # meet w.Q.w < 0; the same window at unit scale keeps eps_hat visible
        values = np.random.default_rng(3).normal(0.3, 1.0, (6, 5))
        with pytest.raises(DegenerateModel, match=r"2 x 5 returns .* eps_hat 0.0001"):
            build_sharpe_model(returns_matrix(values[:2] * 1e7), 1e-4)
        assert srm_pga(build_sharpe_model(returns_matrix(values[:2]), 1e-4)).global_certificate
        # with N+1 rows the Gram matrix is not singular, and the build goes on
        build_sharpe_model(returns_matrix(values * 1e7), 1e-4)

    def test_mismatched_shapes_rejected_on_construction(self):
        with pytest.raises(DimensionError):
            SharpeModel(np.array([0.1, 0.2]), np.eye(3), 1e-4, 1.0)
        with pytest.raises(DimensionError):
            SharpeModel(np.array([[0.1, 0.2]]), np.eye(2), 1e-4, 1.0)

    def test_underflowing_norm_is_not_all_zero_means(self):
        # the means are nonzero, but ||p|| underflows to 0.0
        with pytest.raises(DegenerateModel, match="step bound inf is not positive"):
            SharpeModel(np.array([1e-320, 2e-320]), np.eye(2), 1e-4, 1.0)

    def test_underflowing_denominator_degenerate(self):
        # ||p|| = 1e-150 is positive, but 2*N*lambda1*||p|| underflows to 0.0
        with pytest.raises(DegenerateModel, match="step bound inf is not positive"):
            SharpeModel(np.array([1e-150]), np.array([[1e-200]]), 1e-4, 1e-200)

    def test_overflowing_norm_degenerate_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DegenerateModel, match="step bound 0.0 is not positive"):
                SharpeModel(np.full(3, 1e154), np.eye(3), 1e-4, 1.0)

    @pytest.mark.parametrize("eps", [-1.0, 0.0, math.nan, math.inf])
    def test_bad_eps_is_a_parameter_error_on_construction(self, eps):
        # like a bad lambda1, not a DegenerateModel (a data error)
        with pytest.raises(InvalidParameter, match="eps_hat must be positive and finite"):
            SharpeModel(np.array([0.1, 0.2]), np.eye(2), eps, 1.0)

    def test_bad_eps(self):
        with pytest.raises(InvalidParameter):
            build_sharpe_model(constant_returns([0.1, 0.2], 3), 0.0)

    def test_non_finite_eps_rejected(self):
        with pytest.raises(InvalidParameter, match="eps_hat"):
            build_sharpe_model(constant_returns([0.1, 0.2], 3), float("inf"))


class TestObjective:
    def test_zero_gram_closed_form(self):
        model = build_sharpe_model(constant_returns([0.1, 0.2], 4), 1e-4)
        rng = np.random.default_rng(79)
        for _ in range(20):
            w = rng.uniform(0.01, 1.0, size=2)
            expected = (model.p @ w) / (np.sqrt(1e-4) * np.linalg.norm(w))
            assert sharpe_objective(model, w) == pytest.approx(expected, rel=1e-9)

    def test_hand_computed_value(self):
        model = build_sharpe_model(returns_matrix([[0.1, 0.3], [0.3, 0.1]]), 0.01)
        # w'Q_eps w = 0.005 by direct 2x2 arithmetic, S = 0.2/sqrt(0.005)
        assert sharpe_objective(model, [0.5, 0.5]) == pytest.approx(
            2.8284271247461903, abs=1e-12
        )

    def test_scale_invariance(self):
        rng = np.random.default_rng(83)
        model = random_model(rng, t=12, n=5)
        w = random_simplex_point(rng, 5)
        base = sharpe_objective(model, w)
        for lam in (0.5, 2.0, 10.0):
            assert sharpe_objective(model, lam * w) == pytest.approx(base, rel=1e-12)

    def test_zero_weights_rejected(self):
        model = build_sharpe_model(constant_returns([0.1, 0.2], 4), 1e-4)
        with pytest.raises(InvalidParameter, match="w = 0"):
            sharpe_objective(model, [0.0, 0.0])

    def test_wrong_weight_dimension(self):
        model = build_sharpe_model(constant_returns([0.1, 0.2], 4), 1e-4)
        with pytest.raises(InvalidParameter, match="w has length 3"):
            sharpe_objective(model, [0.2, 0.3, 0.5])

    def test_objective_is_the_reported_sharpe_exactly(self):
        # one spelling of S(w): the objective goes through the solver's oracle
        rng = np.random.default_rng(71)
        for _ in range(20):
            model = random_model(rng)
            res = srm_pga(model)
            assert sharpe_objective(model, res.weights) == res.sharpe

    def test_problem_denominator_undefined_at_origin(self):
        # w.Q_eps.w = 0 at the origin: eval_g refuses it itself instead of
        # returning 0 for the ratio to reject
        for n in (2, 5):
            problem = sharpe_problem(random_model(np.random.default_rng(n), t=12, n=n))
            with pytest.raises(NumericalBreakdown):
                problem.eval_g(np.zeros(n))

    def test_problem_denominator_undefined_where_q_vanishes(self):
        problem = sharpe_problem(SharpeModel(np.array([0.1, 0.2]), np.zeros((2, 2)), 1e-4, 1.0))
        with pytest.raises(NumericalBreakdown, match=r"^w\.Q\.w = 0\.0: "):
            problem.eval_g(np.array([0.5, 0.5]))


class TestSrmPga:
    def test_reduces_to_vertex_problem(self):
        # constant columns, unit regularizer: argmax is all-in on the
        # higher-mean asset, the known vertex optimum of the 2-d ratio
        model = build_sharpe_model(constant_returns([-0.2, 0.1], 5), 1.0)
        res = srm_pga(model)
        assert np.allclose(res.weights, [0.0, 1.0], atol=1e-6)

    def test_scaling_preserves_argmax(self):
        for s in (0.5, 1.0, 3.0):
            model = build_sharpe_model(constant_returns([-0.2 * s, 0.1 * s], 5), 1.0)
            res = srm_pga(model)
            assert np.allclose(res.weights, [0.0, 1.0], atol=1e-6)

    def test_identical_means_fixed_point(self):
        # p proportional to the all-ones vector and Q_eps = eps*I: equal
        # weights are a critical point, the optimum for c > 0 (Sharpe
        # c*sqrt(3/eps)) but the worst portfolio for c < 0, where every
        # vertex reaches c/sqrt(eps) = -2.0; the same holds for columns that
        # are cyclic shifts of one losing series of variance s2: Q_eps is
        # circulant, and every vertex reaches c/sqrt(s2 + eps)
        v = np.random.default_rng(0).normal(0.0, 0.03, 30)
        rolled = np.column_stack([np.roll(v, k) for k in range(4)]) - v.mean() - 0.01
        cases = [(constant_returns([c, c, c], 4), c, 0.0) for c in (0.02, -0.02)]
        cases.append((returns_matrix(rolled), -0.01, v.var(ddof=1)))
        for returns, c, s2 in cases:
            model = build_sharpe_model(returns, 1e-4)
            res = srm_pga(model)
            problem = sharpe_problem(model)
            residual = fixed_point_residual(problem, res.weights, default_alpha(problem))
            assert residual <= 1e-5
            assert res.global_certificate == (c >= 0)
            if c < 0:
                assert np.count_nonzero(res.weights) == 1
                assert res.weights.max() == 1.0
                assert res.result.iterations == 1
                assert res.sharpe == pytest.approx(c / math.sqrt(s2 + 1e-4), rel=1e-9)

    def test_single_asset(self):
        model = build_sharpe_model(constant_returns([0.01], 3), 1e-4)
        res = srm_pga(model)
        assert np.allclose(res.weights, [1.0])
        assert res.result.iterations == 1

    def test_sharpe_value_is_negated_ratio(self):
        rng = np.random.default_rng(89)
        model = random_model(rng, t=20, n=4)
        res = srm_pga(model)
        assert res.sharpe == pytest.approx(-res.result.ratio, rel=1e-12)
        assert res.sharpe == pytest.approx(sharpe_objective(model, res.weights), rel=1e-9)

    def test_random_model_suite_invariants(self):
        rng = np.random.default_rng(97)
        for _ in range(50):
            model = random_model(rng)
            res = srm_pga(model, PgaConfig(record_trace=True))
            w = res.weights
            assert np.all(w >= 0.0)
            assert abs(w.sum() - 1.0) <= 1e-10
            assert np.all(np.diff(res.result.trace.ratios) <= 1e-12)
            # certificate exactly when the achieved objective is nonnegative
            if res.sharpe >= 0.0:
                assert res.global_certificate
            if not res.global_certificate:
                assert res.sharpe < 1e-10


class TestGradients:
    def test_denominator_gradient_finite_differences(self):
        rng = np.random.default_rng(101)
        model = random_model(rng, t=15, n=6)
        problem = sharpe_problem(model)
        for _ in range(100):
            w = random_simplex_point(rng, 6)
            fd = central_diff_grad(problem.eval_g, w)
            assert np.linalg.norm(problem.grad_g(w) - fd) <= 1e-5 * max(
                1.0, np.linalg.norm(fd)
            )

    def test_denominator_gradient_reads_the_point_not_the_array(self):
        # grad_g reuses the Q.w of eval_g only at the point eval_g saw, even
        # when the same array now holds another point
        rng = np.random.default_rng(107)
        model = random_model(rng, t=15, n=6)
        problem = sharpe_problem(model)
        for _ in range(20):
            w = random_simplex_point(rng, 6)
            problem.eval_g(w)
            w[:] = random_simplex_point(rng, 6)
            assert np.array_equal(problem.grad_g(w), sharpe_problem(model).grad_g(w))

    def test_denominator_gradient_at_an_unevaluated_point(self):
        rng = np.random.default_rng(109)
        model = random_model(rng, t=15, n=6)
        problem = sharpe_problem(model)
        problem.eval_g(random_simplex_point(rng, 6))
        for _ in range(20):
            w = random_simplex_point(rng, 6)
            qw = model.q_eps.dot(w)
            assert np.array_equal(problem.grad_g(w), qw / math.sqrt(w.dot(qw)))
            # and at the point eval_g saw last
            problem.eval_g(w)
            assert np.array_equal(problem.grad_g(w.copy()), qw / math.sqrt(w.dot(qw)))

    def test_denominator_gradient_lipschitz_bound(self):
        rng = np.random.default_rng(103)
        model = random_model(rng, t=15, n=6)
        problem = sharpe_problem(model)
        bound = model.lip_grad_g
        for _ in range(100):
            x = random_simplex_point(rng, 6)
            y = random_simplex_point(rng, 6)
            lhs = np.linalg.norm(problem.grad_g(x) - problem.grad_g(y))
            assert lhs <= bound * np.linalg.norm(x - y) + 1e-12
