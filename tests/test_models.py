import numpy as np
import pytest

from conftest import central_diff_grad, random_simplex_point
from fracopt.core import PgaConfig, default_alpha, fixed_point_residual, pga_solve
from fracopt.errors import InvalidParameter, NumericalBreakdown
from fracopt.models import (
    Sim1Params,
    Sim2Params,
    build_sim1,
    build_sim2,
    random_sim1_params,
    random_sim2_params,
    sim1_analytic_solution,
    sim2_gradient_oracle,
    sim2_is_global,
    sim2_minimum_value,
)

BENCH_SIM2 = Sim2Params(100.0, 4.0, 2.0, 3.0, 3.0, 2.0, 3.0)


class TestSim1:
    def test_parameter_hypotheses(self):
        for bad in ([0.0, 1.0], [1.0, 0.0], [1.0, -1.0], [1.0, 1.0]):
            with pytest.raises(InvalidParameter):
                Sim1Params(np.array(bad))
        Sim1Params(np.array([2.0, -1.0]))  # valid

    def test_evaluations(self):
        problem = build_sim1(Sim1Params(np.array([2.0, -1.0])))
        x = np.array([0.5, 0.5])
        assert problem.eval_f(x) == pytest.approx(0.5)
        assert problem.eval_g(x) == pytest.approx(np.sqrt(0.5))

    def test_step_bound(self):
        params = Sim1Params(np.array([2.0, -1.0]))
        assert build_sim1(params).step_bound == pytest.approx(1.0 / (4.0 * np.sqrt(5.0)))
        # the Sharpe bound eps/(2*N*lambda1*||p||) at eps = lambda1 = 1, N = 2, bit for bit
        rng = np.random.default_rng(29)
        for params in [params] + [random_sim1_params(rng) for _ in range(20)]:
            expected = 1.0 / (4.0 * float(np.linalg.norm(params.p)))
            assert build_sim1(params).step_bound == expected

    def test_negative_orthant_interior_solution(self):
        assert np.allclose(
            sim1_analytic_solution(Sim1Params(np.array([-2.0, -1.0]))), [2 / 3, 1 / 3]
        )
        assert np.allclose(
            sim1_analytic_solution(Sim1Params(np.array([-1.0, -2.0]))), [1 / 3, 2 / 3]
        )

    def test_vertex_solutions(self):
        assert np.allclose(sim1_analytic_solution(Sim1Params(np.array([2.0, -1.0]))), [0, 1])
        assert np.allclose(sim1_analytic_solution(Sim1Params(np.array([-1.0, 2.0]))), [1, 0])

    def test_sign_structure(self):
        # both components negative: the ratio is nonpositive on the simplex
        problem = build_sim1(Sim1Params(np.array([-2.0, -1.0])))
        rng = np.random.default_rng(5)
        for _ in range(50):
            assert problem.eval_f(random_simplex_point(rng, 2)) <= 0.0

    def test_origin_guard(self):
        problem = build_sim1(Sim1Params(np.array([2.0, -1.0])))
        with pytest.raises(NumericalBreakdown):
            problem.eval_g(np.zeros(2))

    def test_objective_matches_single_variable_form(self):
        # along the simplex the ratio reduces to a function of the first coordinate
        p1, p2 = -2.0, -1.0
        problem = build_sim1(Sim1Params(np.array([p1, p2])))
        for t in np.linspace(0.0, 1.0, 1000):
            x = np.array([t, 1.0 - t])
            phi = ((p1 - p2) * t + p2) / np.sqrt(2.0 * t * t - 2.0 * t + 1.0)
            assert abs(problem.ratio(x) - phi) <= 1e-12

    def test_solver_reaches_analytic_solution(self):
        rng = np.random.default_rng(47)
        cfg = PgaConfig(tol=1e-8)
        for params in [Sim1Params(np.array([2.0, -1.0])), Sim1Params(np.array([-2.0, -1.0]))]:
            problem = build_sim1(params)
            target = sim1_analytic_solution(params)
            for _ in range(100):
                res = pga_solve(problem, random_simplex_point(rng, 2), cfg)
                assert np.linalg.norm(res.x_star - target) <= 1e-3

    def test_solver_reaches_analytic_solution_random_directions(self):
        rng = np.random.default_rng(49)
        cfg = PgaConfig(tol=1e-8)
        for _ in range(20):
            params = random_sim1_params(rng)
            res = pga_solve(build_sim1(params), random_simplex_point(rng, 2), cfg)
            target = sim1_analytic_solution(params)
            assert np.linalg.norm(res.x_star - target) <= 1e-3

    def test_random_params_valid(self):
        rng = np.random.default_rng(53)
        for _ in range(50):
            params = random_sim1_params(rng)
            p = params.p
            assert p[0] != 0 and p[1] != 0 and p[0] + p[1] != 0 and p[0] != p[1]
            assert min(p) < 0  # certified regime only

    def test_uncertified_regime_can_stop_at_local_vertex(self):
        # both components positive: the numerator never goes nonpositive, the
        # global certificate does not apply, and a start in the basin of the
        # higher vertex legitimately converges there (a true critical point)
        params = Sim1Params(np.array([0.5551, 1.0656]))
        problem = build_sim1(params)
        res = pga_solve(problem, [0.1, 0.9], PgaConfig(tol=1e-9))
        assert np.allclose(res.x_star, [0.0, 1.0], atol=1e-6)  # local, not global
        assert fixed_point_residual(problem, res.x_star, default_alpha(problem)) <= 1e-8
        assert np.allclose(sim1_analytic_solution(params), [1.0, 0.0])
        # from the other basin the same problem reaches the global vertex
        res2 = pga_solve(problem, [0.9, 0.1], PgaConfig(tol=1e-9))
        assert np.allclose(res2.x_star, [1.0, 0.0], atol=1e-6)


class TestSim2:
    def test_benchmark_parameters_accepted(self):
        assert BENCH_SIM2.a1 * BENCH_SIM2.a5 > BENCH_SIM2.a2 * BENCH_SIM2.a4

    def test_product_condition_rejected(self):
        with pytest.raises(InvalidParameter):
            Sim2Params(100.0, 1.0, 2.0, 3.0, 3.0, 1.0, 3.0)  # 1*1 < 2*3

    def test_equality_condition_rejected(self):
        with pytest.raises(InvalidParameter):
            Sim2Params(100.0, 4.0, 2.0, 3.1, 3.0, 2.0, 3.0)  # 3.1*2 != 2*3

    def test_positivity_required(self):
        with pytest.raises(InvalidParameter):
            Sim2Params(0.0, 4.0, 2.0, 3.0, 3.0, 2.0, 3.0)
        with pytest.raises(InvalidParameter):
            Sim2Params(100.0, -4.0, 2.0, -3.0, 3.0, 2.0, 3.0)

    def test_coefficients_stored_as_python_floats(self):
        params = Sim2Params(np.float64(100.0), *np.array([4.0, 2.0, 3.0, 3.0, 2.0, 3.0]))
        for name in ("a0", "a1", "a2", "a3", "a4", "a5", "a6"):
            assert type(getattr(params, name)) is float
        assert params == BENCH_SIM2
        assert type(Sim2Params(100, 4, 2, 3, 3, 2, 3).a1) is float

    def test_infinite_coefficients_rejected(self):
        valid = [4.0, 2.0, 3.0, 3.0, 2.0, 3.0]
        for i in range(6):
            coefficients = list(valid)
            coefficients[i] = float("inf")
            with pytest.raises(InvalidParameter, match=f"a{i + 1} must be positive and finite"):
                Sim2Params(100.0, *coefficients)

    def test_infinite_half_width_solves(self):
        # the band is then the whole plane; from (50, 50) a band of
        # half-width 100 never binds, so both solves take the same iterates
        unbounded = Sim2Params(float("inf"), 4.0, 2.0, 3.0, 3.0, 2.0, 3.0)
        cfg = PgaConfig(tol=1e-9, record_trace=True)
        res = pga_solve(build_sim2(unbounded), [50.0, 50.0], cfg)
        ref = pga_solve(build_sim2(BENCH_SIM2), [50.0, 50.0], cfg)
        assert res.x_star.tobytes() == ref.x_star.tobytes()
        assert res.iterations == ref.iterations and res.status is ref.status
        assert sim2_is_global(unbounded, res.x_star, 1e-4)

    def test_evaluations(self):
        problem = build_sim2(BENCH_SIM2)
        x = np.array([50.0, 50.0])
        assert problem.eval_f(x) == pytest.approx(15003.0)
        assert problem.eval_g(x) == pytest.approx(12503.0)

    def test_is_global(self):
        assert sim2_is_global(BENCH_SIM2, [0.0, 72.7701], 1e-4)
        assert sim2_is_global(BENCH_SIM2, [0.0, 100.0], 1e-4)
        assert not sim2_is_global(BENCH_SIM2, [0.1972, 100.0], 1e-4)
        assert not sim2_is_global(BENCH_SIM2, [0.0, 100.2], 1e-4)

    def test_gradient_oracle_vanishes_on_optimal_segment(self):
        for t in (-100.0, -3.0, 0.0, 42.0, 100.0):
            assert np.allclose(sim2_gradient_oracle(BENCH_SIM2, [0.0, t]), [0.0, 0.0])

    def test_gradient_oracle_sign_off_segment(self):
        grad = sim2_gradient_oracle(BENCH_SIM2, [1.0, 0.0])
        assert grad[0] > 0.0  # a1*a6 > a3*a4 pushes the first coordinate back

    def test_gradient_oracle_matches_finite_differences(self):
        rng = np.random.default_rng(59)
        problem = build_sim2(BENCH_SIM2)
        for _ in range(100):
            x = rng.uniform(-50.0, 50.0, size=2)
            fd = central_diff_grad(problem.ratio, x)
            oracle = sim2_gradient_oracle(BENCH_SIM2, x)
            assert np.linalg.norm(oracle - fd) <= 1e-5 * max(1.0, np.linalg.norm(fd))

    def test_objective_bounds(self):
        problem = build_sim2(BENCH_SIM2)
        lo = sim2_minimum_value(BENCH_SIM2)
        hi = BENCH_SIM2.a1 / BENCH_SIM2.a4
        rng = np.random.default_rng(61)
        x1 = rng.uniform(-500.0, 500.0, size=10_000)
        x2 = rng.uniform(-100.0, 100.0, size=10_000)
        for a, b in zip(x1, x2):
            r = problem.ratio(np.array([a, b]))
            assert lo - 1e-12 <= r < hi

    def test_solver_reaches_optimal_segment(self):
        problem = build_sim2(BENCH_SIM2)
        cfg = PgaConfig(tol=1e-8)
        starts = [[50.0, 50.0], [50.0, -50.0], [95.0, 95.0], [95.0, -95.0]]
        rng = np.random.default_rng(67)
        starts += [rng.uniform(-150.0, 150.0, size=2) for _ in range(50)]
        for x0 in starts:
            res = pga_solve(problem, x0, cfg)
            assert sim2_is_global(BENCH_SIM2, res.x_star, 1e-3)

    def test_random_params_valid(self):
        rng = np.random.default_rng(71)
        for _ in range(50):
            params = random_sim2_params(rng)
            assert params.a1 * params.a5 > params.a2 * params.a4
            rel = abs(params.a3 * params.a5 - params.a2 * params.a6)
            assert rel <= 1e-12 * max(params.a3 * params.a5, params.a2 * params.a6)
