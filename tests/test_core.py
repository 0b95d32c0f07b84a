import math

import numpy as np
import pytest

from conftest import central_diff_grad, random_simplex_point
from fracopt.core import (
    FractionalProblem,
    PgaConfig,
    Status,
    default_alpha,
    fixed_point_residual,
    pga_solve,
    pga_solve_shifted,
)
from fracopt.errors import (
    InvalidParameter,
    NumericalBreakdown,
    PositivityViolation,
    ShiftViolation,
)
from fracopt.models import (
    Sim1Params,
    Sim2Params,
    build_sim1,
    build_sim2,
    sim1_shift_bound,
)

SIM1_A = Sim1Params(np.array([2.0, -1.0]))
SIM1_B = Sim1Params(np.array([-2.0, -1.0]))
SIM2_BENCH = Sim2Params(100.0, 4.0, 2.0, 3.0, 3.0, 2.0, 3.0)


def identity_problem(eval_f, eval_g, grad_f, grad_g, dim=2, step_bound=1.0):
    return FractionalProblem(
        eval_f=eval_f,
        eval_g=eval_g,
        grad_f=grad_f,
        grad_g=grad_g,
        projection=lambda x: x,
        step_bound=step_bound,
        dimension=dim,
    )


def breaking_problem(k, fault, bad_g=-0.5):
    """min -x1 over g = 1 on the plane, whose oracle breaks from iteration k on.

    Each iteration moves x1 up by its step and no stop test fires, under either
    step rule. grad_f is asked once per iteration, so its call count is the
    iteration number. From iteration k on, ``fault`` names what breaks: "g"
    makes g equal ``bad_g``, "f" makes f NaN, and "update" makes grad_f
    infinite at iteration k itself.
    """
    calls = [0]

    def grad_f(x):
        calls[0] += 1
        return np.array([-math.inf if fault == "update" and calls[0] == k else -1.0, 0.0])

    def eval_g(x):
        return bad_g if fault == "g" and calls[0] >= k else 1.0

    def eval_f(x):
        return math.nan if fault == "f" and calls[0] >= k else -float(x[0])

    problem = identity_problem(eval_f, eval_g, grad_f, lambda x: np.zeros(2))
    return problem, calls


class TestPgaTrajectories:
    def test_first_iterates_linear_over_norm(self):
        result = pga_solve(build_sim1(SIM1_A), [0.5, 0.5], PgaConfig(record_trace=True))
        iterates = result.trace.iterates
        assert np.allclose(iterates[1], [0.3340, 0.6660], atol=5e-4)
        assert np.allclose(iterates[4], [0.0, 1.0], atol=5e-4)
        assert result.status is Status.CONVERGED
        assert 4 <= result.iterations <= 6

    def test_fixed_point_start_stops_immediately(self):
        result = pga_solve(build_sim1(SIM1_A), [0.0, 1.0])
        assert result.iterations == 1
        assert np.allclose(result.x_star, [0.0, 1.0], atol=1e-15)

    def test_first_iterate_quadratic_band(self):
        result = pga_solve(
            build_sim2(SIM2_BENCH), [50.0, 50.0], PgaConfig(tol=1e-7, record_trace=True)
        )
        assert np.allclose(result.trace.iterates[1], [45.0482, 54.9488], atol=5e-4)
        assert np.allclose(result.x_star, [0.0, 72.7701], atol=5e-4)
        assert result.status is Status.CONVERGED

    def test_infeasible_start_projected_first(self):
        result = pga_solve(build_sim1(SIM1_A), [5.0, -3.0], PgaConfig(record_trace=True))
        for x in result.trace.iterates:
            assert np.all(x >= 0.0)
            assert abs(x.sum() - 1.0) <= 1e-12
        assert np.allclose(result.x_star, [0.0, 1.0], atol=1e-6)

    def test_band_iterates_feasible(self):
        result = pga_solve(
            build_sim2(SIM2_BENCH), [95.0, 95.0], PgaConfig(tol=1e-7, record_trace=True)
        )
        for x in result.trace.iterates:
            assert abs(x[1]) <= 100.0 + 1e-12

    def test_descent_from_random_starts(self):
        rng = np.random.default_rng(41)
        problems = [build_sim1(SIM1_A), build_sim1(SIM1_B)]
        for problem in problems:
            for _ in range(5):
                x0 = random_simplex_point(rng, 2)
                res = pga_solve(problem, x0, PgaConfig(record_trace=True))
                diffs = np.diff(res.trace.ratios)
                assert np.all(diffs <= 1e-12)
        problem = build_sim2(SIM2_BENCH)
        for _ in range(5):
            x0 = rng.uniform(-100.0, 100.0, size=2)
            res = pga_solve(problem, x0, PgaConfig(tol=1e-7, record_trace=True))
            assert np.all(np.diff(res.trace.ratios) <= 1e-12)

    def test_step_vanishes_at_convergence(self):
        cfg = PgaConfig(tol=1e-6, record_trace=True)
        res = pga_solve(build_sim1(SIM1_B), [0.5, 0.5], cfg)
        assert res.status is Status.CONVERGED
        last_step = np.linalg.norm(res.trace.iterates[-1] - res.trace.iterates[-2])
        prev_norm = np.linalg.norm(res.trace.iterates[-2])
        assert last_step <= cfg.tol * prev_norm

    def test_trace_off_by_default(self):
        assert pga_solve(build_sim1(SIM1_A), [0.5, 0.5]).trace is None

    def test_zero_norm_previous_iterate_fallback(self):
        # stationary start at the origin: relative rule must fall back to absolute
        problem = identity_problem(
            eval_f=lambda x: float(x @ x) + 1.0,
            eval_g=lambda x: 1.0,
            grad_f=lambda x: 2.0 * x,
            grad_g=lambda x: np.zeros_like(x),
        )
        result = pga_solve(problem, [0.0, 0.0], PgaConfig(alpha=0.1))
        assert result.iterations == 1
        assert result.status is Status.CONVERGED


class TestShiftedForm:
    @pytest.mark.parametrize(
        "problem,shift,x0,tol_run",
        [
            (build_sim1(SIM1_B), sim1_shift_bound(SIM1_B), [0.5, 0.5], 1e-30),
            (build_sim2(SIM2_BENCH), 1.0, [50.0, 50.0], 1e-30),
            (build_sim2(SIM2_BENCH), 0.0, [95.0, -95.0], 1e-30),
        ],
        ids=["linear-norm", "quadratic-shift-1", "quadratic-shift-0"],
    )
    def test_identical_iterates_over_50_steps(self, problem, shift, x0, tol_run):
        cfg = PgaConfig(tol=tol_run, max_iter=50, record_trace=True)
        plain = pga_solve(problem, x0, cfg)
        shifted = pga_solve_shifted(problem, shift, x0, cfg)
        assert len(plain.trace.iterates) == len(shifted.trace.iterates)
        for a, b in zip(plain.trace.iterates, shifted.trace.iterates):
            assert np.allclose(a, b, atol=1e-10)

    def test_shifted_ratios_nonnegative(self):
        res = pga_solve_shifted(
            build_sim2(SIM2_BENCH), 1.0, [50.0, 50.0], PgaConfig(tol=1e-7, record_trace=True)
        )
        assert all(c >= -1e-10 for c in res.trace.ratios)

    def test_invalid_shift_raises(self):
        # the ratio dips below zero on this problem, so 0 is not a lower bound
        with pytest.raises(ShiftViolation):
            pga_solve_shifted(build_sim1(SIM1_A), 0.0, [0.5, 0.5])
        with pytest.raises(ShiftViolation):
            pga_solve_shifted(build_sim1(SIM1_A), 0.0, [0.5, 0.5], PgaConfig(record_trace=True))

    @pytest.mark.parametrize("shift", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_shift_rejected(self, shift):
        with pytest.raises(InvalidParameter, match="shift must be finite"):
            pga_solve_shifted(build_sim1(SIM1_B), shift, [0.5, 0.5])

    @pytest.mark.parametrize("adaptive", [False, True], ids=["fixed", "adaptive"])
    @pytest.mark.parametrize(
        "problem,shift,x0",
        [
            (build_sim1(SIM1_B), sim1_shift_bound(SIM1_B), [0.5, 0.5]),
            (build_sim2(SIM2_BENCH), 1.0, [50.0, 50.0]),
        ],
        ids=["sim1", "sim2"],
    )
    def test_plain_sweep_bit_for_bit(self, problem, shift, x0, adaptive):
        cfg = PgaConfig(tol=1e-30, max_iter=50, record_trace=True, adaptive=adaptive)
        plain = pga_solve(problem, x0, cfg)
        shifted = pga_solve_shifted(problem, shift, x0, cfg)
        assert shifted.iterations == plain.iterations
        assert shifted.status is plain.status
        assert len(shifted.trace.iterates) == len(plain.trace.iterates)
        for a, b in zip(plain.trace.iterates, shifted.trace.iterates):
            assert np.array_equal(a, b)
        assert shifted.trace.ratios == [c - shift for c in plain.trace.ratios]
        assert shifted.ratio == plain.ratio - shift

    def test_zero_shift_nonnegative_numerator_trivial(self):
        cfg = PgaConfig(tol=1e-7, record_trace=True)
        plain = pga_solve(build_sim2(SIM2_BENCH), [50.0, 50.0], cfg)
        shifted = pga_solve_shifted(build_sim2(SIM2_BENCH), 0.0, [50.0, 50.0], cfg)
        assert np.allclose(plain.x_star, shifted.x_star, atol=1e-12)
        assert plain.ratio == pytest.approx(shifted.ratio, abs=1e-12)


class TestFixedPointResidual:
    def test_zero_at_optimum(self):
        problem = build_sim1(SIM1_A)
        for frac in (0.1, 0.5, 0.99):
            alpha = frac * problem.step_bound
            assert fixed_point_residual(problem, [0.0, 1.0], alpha) <= 1e-15

    def test_matches_first_step_length(self):
        # residual at the start equals the distance to the first iterate
        problem = build_sim1(SIM1_A)
        alpha = default_alpha(problem)
        res = fixed_point_residual(problem, [0.5, 0.5], alpha)
        # frozen: 1.5 * alpha * sqrt(2) with alpha = 0.99/(4*sqrt(5))
        assert res == pytest.approx(0.2348, abs=5e-4)

    def test_small_at_band_terminal_point(self):
        problem = build_sim2(SIM2_BENCH)
        assert fixed_point_residual(problem, [0.0, 72.7701], 0.99 / 8.0) <= 1e-4

    def test_bad_alpha(self):
        with pytest.raises(InvalidParameter):
            fixed_point_residual(build_sim1(SIM1_A), [0.5, 0.5], 0.0)
        with pytest.raises(InvalidParameter):
            fixed_point_residual(build_sim2(SIM2_BENCH), [50.0, 50.0], float("inf"))

    def test_wrong_point_dimension(self):
        with pytest.raises(InvalidParameter, match="x has length 3"):
            fixed_point_residual(build_sim1(SIM1_A), [0.2, 0.3, 0.5], 0.1)

    def test_reported_on_result(self):
        problem = build_sim1(SIM1_B)
        res = pga_solve(problem, [0.5, 0.5], PgaConfig(tol=1e-8))
        assert fixed_point_residual(problem, res.x_star, default_alpha(problem)) <= 1e-6


class TestErrorPaths:
    def test_positivity_violation(self):
        problem = identity_problem(
            eval_f=lambda x: 1.0,
            eval_g=lambda x: float(x[0]),
            grad_f=lambda x: np.zeros_like(x),
            grad_g=lambda x: np.array([1.0, 0.0]),
        )
        with pytest.raises(PositivityViolation):
            pga_solve(problem, [-1.0, 0.0])

    def test_nan_breakdown(self):
        problem = identity_problem(
            eval_f=lambda x: float("nan"),
            eval_g=lambda x: 1.0,
            grad_f=lambda x: np.zeros_like(x),
            grad_g=lambda x: np.zeros_like(x),
        )
        with pytest.raises(NumericalBreakdown):
            pga_solve(problem, [0.0, 0.0])

    @pytest.mark.parametrize("adaptive", [False, True], ids=["fixed", "adaptive"])
    @pytest.mark.parametrize("k", [2, 5])
    @pytest.mark.parametrize(
        "fault, bad_g, error, message",
        [
            ("g", -0.5, PositivityViolation, "g(x) = -0.5 <= 0; the denominator must stay positive"),
            ("g", 0.0, PositivityViolation, "g(x) = 0.0 <= 0; the denominator must stay positive"),
            ("g", math.nan, NumericalBreakdown, "g(x) evaluated to NaN"),
            ("f", -0.5, NumericalBreakdown, "f(x) evaluated to NaN"),
            ("update", -0.5, NumericalBreakdown, "non-finite update at iteration {k}"),
        ],
        ids=["g-negative", "g-zero", "g-nan", "f-nan", "update-inf"],
    )
    def test_mid_solve_breakdown(self, adaptive, k, fault, bad_g, error, message):
        # the checks inside the loop raise the error and message of the checks
        # at the start, in the iteration where the oracle breaks
        problem, calls = breaking_problem(k, fault, bad_g)
        with pytest.raises(error) as info:
            pga_solve(problem, [1.0, 0.0], PgaConfig(adaptive=adaptive))
        assert str(info.value) == message.format(k=k)
        assert calls[0] == k

    @pytest.mark.parametrize("adaptive", [False, True], ids=["fixed", "adaptive"])
    def test_breaking_problem_runs_on_without_a_fault(self, adaptive):
        # without its fault the problem runs to max_iter, one grad_f call an iteration
        problem, calls = breaking_problem(2, None)
        result = pga_solve(problem, [1.0, 0.0], PgaConfig(adaptive=adaptive, max_iter=8))
        assert result.status is Status.MAX_ITER_REACHED and result.iterations == 8
        assert calls[0] == 8 and result.x_star[0] > 8.0

    def test_alpha_above_bound_rejected(self):
        problem = build_sim1(SIM1_A)
        with pytest.raises(InvalidParameter):
            pga_solve(problem, [0.5, 0.5], PgaConfig(alpha=problem.step_bound))

    def test_config_validation(self):
        with pytest.raises(InvalidParameter):
            PgaConfig(tol=0.0)
        with pytest.raises(InvalidParameter):
            PgaConfig(max_iter=0)
        with pytest.raises(InvalidParameter):
            PgaConfig(alpha=-1.0)

    def test_non_finite_tol_rejected(self):
        # an infinite tol would stop every solve after its first iteration
        with pytest.raises(InvalidParameter, match="tol"):
            PgaConfig(tol=float("inf"))

    def test_infinite_step_and_alpha_rejected_at_construction(self):
        with pytest.raises(InvalidParameter, match="step_bound must be positive and finite"):
            identity_problem(None, None, None, None, step_bound=float("inf"))
        with pytest.raises(InvalidParameter, match="alpha must be positive and finite"):
            PgaConfig(alpha=float("inf"))

    def test_dimension_must_be_a_positive_integer(self):
        for dim in (2.5, float("nan"), 2.0, 0):
            with pytest.raises(InvalidParameter):
                identity_problem(None, None, None, None, dim=dim)
        assert identity_problem(None, None, None, None, dim=np.int64(2)).dimension == 2

    def test_wrong_start_dimension(self):
        with pytest.raises(InvalidParameter):
            pga_solve(build_sim1(SIM1_A), [0.5, 0.25, 0.25])

    def test_boolean_counts_rejected(self):
        # True would otherwise run a one-iteration solve without a word
        with pytest.raises(InvalidParameter, match="max_iter must be an integer"):
            PgaConfig(max_iter=True)
        with pytest.raises(InvalidParameter, match="dimension must be an integer"):
            identity_problem(None, None, None, None, dim=True)

    def test_max_iter_must_be_integral(self):
        with pytest.raises(InvalidParameter):
            PgaConfig(max_iter=10.5)
        cfg = PgaConfig(tol=1e-30, max_iter=np.int64(3))
        assert pga_solve(build_sim1(SIM1_B), [0.5, 0.5], cfg).iterations == 3

    def test_max_iter_reached_status(self):
        res = pga_solve(build_sim1(SIM1_B), [0.5, 0.5], PgaConfig(tol=1e-30, max_iter=10))
        assert res.status is Status.MAX_ITER_REACHED
        assert res.iterations == 10


class TestGradientConsistency:
    def test_linear_over_norm_gradients(self):
        rng = np.random.default_rng(43)
        problem = build_sim1(SIM1_B)
        for _ in range(100):
            x = random_simplex_point(rng, 2)
            for grad, func in ((problem.grad_f, problem.eval_f), (problem.grad_g, problem.eval_g)):
                g = grad(x)
                fd = central_diff_grad(func, x)
                assert np.linalg.norm(g - fd) <= 1e-5 * max(1.0, np.linalg.norm(fd))
