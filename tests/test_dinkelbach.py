import dataclasses

import numpy as np
import pytest

from fracopt.core import FractionalProblem, PgaConfig, Status, pga_solve
from fracopt.dinkelbach import DinkelbachConfig, dinkelbach_solve
from fracopt.errors import InnerSolverFailure, InvalidParameter, InvalidStart
from fracopt.models import Sim1Params, build_sim1
from fracopt.projections import project_simplex

SIM1_A = Sim1Params(np.array([2.0, -1.0]))
SIM1_B = Sim1Params(np.array([-2.0, -1.0]))


class TestParametricSolver:
    def test_converges_to_known_minimum(self):
        res = dinkelbach_solve(build_sim1(SIM1_B), [0.5, 0.5])
        assert res.status is Status.CONVERGED
        # minimum value is -sqrt(5), attained at (2/3, 1/3)
        assert res.ratio == pytest.approx(-np.sqrt(5.0), abs=1e-6)
        assert np.allclose(res.x_star, [2.0 / 3.0, 1.0 / 3.0], atol=1e-5)

    def test_start_at_optimum_stops_immediately(self):
        res = dinkelbach_solve(build_sim1(SIM1_B), [2.0 / 3.0, 1.0 / 3.0])
        assert res.status is Status.CONVERGED
        assert res.iterations == 1
        assert res.ratio == pytest.approx(-np.sqrt(5.0), abs=1e-8)

    def test_vertex_optimum_nonpositive_start(self):
        # f((0,1)) = -1 <= 0 qualifies; the optimum is the start itself
        res = dinkelbach_solve(build_sim1(SIM1_A), [0.0, 1.0])
        assert res.status is Status.CONVERGED
        assert res.iterations == 1
        assert res.ratio == pytest.approx(-1.0, abs=1e-10)
        assert np.allclose(res.x_star, [0.0, 1.0], atol=1e-8)

    def test_positive_start_rejected(self):
        # f((0.5, 0.5)) = 0.5 > 0 breaks the sign precondition
        with pytest.raises(InvalidStart):
            dinkelbach_solve(build_sim1(SIM1_A), [0.5, 0.5])

    def test_parameter_sequence_monotone(self):
        cfg = DinkelbachConfig(record_trace=True)
        res = dinkelbach_solve(build_sim1(SIM1_B), [0.5, 0.5], cfg)
        params = [-r for r in res.trace.ratios]  # c_k = -f/g at outer iterates
        assert all(b >= a - 1e-12 for a, b in zip(params, params[1:]))

    def test_value_function_nonnegative_decreasing(self):
        cfg = DinkelbachConfig(record_trace=True)
        res = dinkelbach_solve(build_sim1(SIM1_B), [0.5, 0.5], cfg)
        problem = build_sim1(SIM1_B)
        iters = res.trace.iterates
        params = [-r for r in res.trace.ratios]
        values = [
            -problem.eval_f(iters[k + 1]) - params[k] * problem.eval_g(iters[k + 1])
            for k in range(len(iters) - 1)
        ]
        assert all(v >= -1e-9 for v in values)
        assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))

    def test_inner_budget_exhaustion(self):
        cfg = DinkelbachConfig(inner_tol=1e-16, max_inner=2)
        with pytest.raises(InnerSolverFailure):
            dinkelbach_solve(build_sim1(SIM1_B), [0.5, 0.5], cfg)

    def test_missing_lipschitz_metadata(self):
        bare = FractionalProblem(
            eval_f=lambda x: -float(x[0]),
            eval_g=lambda x: 1.0,
            grad_f=lambda x: np.array([-1.0, 0.0]),
            grad_g=lambda x: np.zeros(2),
            projection=project_simplex,
            step_bound=1.0,
            dimension=2,
        )
        with pytest.raises(InvalidParameter):
            dinkelbach_solve(bare, [0.5, 0.5])

    def test_lipschitz_constants_nonnegative_and_finite(self):
        # an infinite lip_grad_g makes every inner step zero, so the first
        # outer test passes at the start: (1, 0) with ratio -2 reported as
        # converged, where the optimum is (2/3, 1/3) with ratio -sqrt(5)
        problem = build_sim1(SIM1_B)
        assert problem.lip_grad_f == 0.0  # a linear numerator is valid
        for name in ("lip_grad_f", "lip_grad_g"):
            for bad in (float("inf"), float("nan"), -1.0):
                with pytest.raises(InvalidParameter, match=f"{name} must be nonnegative"):
                    dataclasses.replace(problem, **{name: bad})

    def test_config_validation(self):
        with pytest.raises(InvalidParameter):
            DinkelbachConfig(outer_tol=0.0)
        with pytest.raises(InvalidParameter):
            DinkelbachConfig(max_inner=0)

    def test_non_finite_tolerances_rejected(self):
        for name in ("outer_tol", "inner_tol"):
            with pytest.raises(InvalidParameter, match=name):
                DinkelbachConfig(**{name: float("inf")})

    @pytest.mark.parametrize("record_trace", [False, True])
    def test_each_visited_point_evaluated_once(self, record_trace):
        problem = build_sim1(SIM1_B)
        calls = {"f": 0, "g": 0}

        def counted(fn, key):
            def wrapped(x):
                calls[key] += 1
                return fn(x)

            return wrapped

        counting = dataclasses.replace(
            problem, eval_f=counted(problem.eval_f, "f"), eval_g=counted(problem.eval_g, "g")
        )
        res = dinkelbach_solve(counting, [1.0, 0.0], DinkelbachConfig(record_trace=record_trace))
        assert res.iterations == 4
        # the start and one point per outer step
        assert calls == {"f": res.iterations + 1, "g": res.iterations + 1}

    def test_count_fields_must_be_integral(self):
        with pytest.raises(InvalidParameter):
            DinkelbachConfig(max_outer=10.5)
        assert DinkelbachConfig(max_outer=np.int64(5)).max_outer == 5

    def test_boolean_counts_rejected(self):
        for name in ("max_outer", "max_inner"):
            with pytest.raises(InvalidParameter, match=f"{name} must be an integer"):
                DinkelbachConfig(**{name: True})

    def test_wrong_start_dimension(self):
        with pytest.raises(InvalidParameter):
            dinkelbach_solve(build_sim1(SIM1_A), [0.2, 0.3, 0.5])

    def test_agrees_with_proximal_gradient(self):
        problem = build_sim1(SIM1_B)
        prox = pga_solve(problem, [0.5, 0.5], PgaConfig(tol=1e-9))
        param = dinkelbach_solve(problem, [0.5, 0.5])
        assert abs(prox.ratio - param.ratio) <= 1e-5
