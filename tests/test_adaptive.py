"""Adaptive-step PGA: spectral trial steps with monotone ratio backtracking.

The fixed-step iteration is the paper's path and stays bit-identical; the
adaptive mode must keep the paper's monotone descent and feasibility, and
stop only where the step-normalised gradient mapping is small.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracopt.core import (
    FractionalProblem,
    PgaConfig,
    Status,
    default_alpha,
    fixed_point_residual,
    pga_solve,
    pga_solve_shifted,
)
from fracopt.errors import NumericalBreakdown
from fracopt.models import (
    Sim1Params,
    Sim2Params,
    build_sim1,
    build_sim2,
    sim1_analytic_solution,
    sim1_shift_bound,
    sim2_is_global,
)
from fracopt.projections import project_simplex
from fracopt.sharpe import build_sharpe_model, returns_matrix, sharpe_problem, srm_pga

SIM1_A = Sim1Params(np.array([2.0, -1.0]))
SIM1_B = Sim1Params(np.array([-2.0, -1.0]))
SIM2_BENCH = Sim2Params(100.0, 4.0, 2.0, 3.0, 3.0, 2.0, 3.0)


def trace_digest(trace):
    """SHA-256 over the raw bytes of the iterate and ratio histories."""
    h = hashlib.sha256(np.asarray(trace.iterates, dtype=float).tobytes())
    h.update(np.asarray(trace.ratios, dtype=float).tobytes())
    return h.hexdigest()


class TestFixedStepUnchanged:
    # frozen from the fixed-step loop before the adaptive mode existed
    @pytest.mark.parametrize(
        "problem,x0,iterations,digest,x_star",
        [
            (
                build_sim1(SIM1_A),
                [0.5, 0.5],
                5,
                "cd3315c51250ebbf6be23f38a8007ea0ae6c15c9a9a41ab48a23c9a9c544fbe4",
                ("0x0.0p+0", "0x1.0000000000000p+0"),
            ),
            (
                build_sim2(SIM2_BENCH),
                [50.0, 50.0],
                38,
                "b55d7fb0fee2a9445892a345696fa9fa61a9d41e16a199080ebe09fc7c8f6ecc",
                ("0x1.12eb61fa778b5p-9", "0x1.2314933a345b0p+6"),
            ),
        ],
        ids=["sim1-A", "sim2-bench"],
    )
    def test_default_config_iterates_bit_identical(self, problem, x0, iterations, digest, x_star):
        res = pga_solve(problem, x0, PgaConfig(record_trace=True))
        assert res.status is Status.CONVERGED
        assert res.iterations == iterations
        assert tuple(float(v).hex() for v in res.x_star) == x_star
        assert trace_digest(res.trace) == digest


class TestAdaptiveMode:
    def test_srm_pga_defaults_to_adaptive(self):
        rng = np.random.default_rng(3)
        model = build_sharpe_model(returns_matrix(rng.normal(0.005, 0.04, (40, 10))))
        default = srm_pga(model)
        adaptive = srm_pga(model, PgaConfig(adaptive=True))
        assert default.result.iterations == adaptive.result.iterations
        assert np.array_equal(default.weights, adaptive.weights)
        fixed = srm_pga(model, PgaConfig())
        assert default.result.iterations < fixed.result.iterations

    def test_sim1_reaches_analytic_optimum(self):
        for prm in (SIM1_A, SIM1_B):
            res = pga_solve(build_sim1(prm), [0.5, 0.5], PgaConfig(adaptive=True, tol=1e-9))
            assert res.status is Status.CONVERGED
            assert np.allclose(res.x_star, sim1_analytic_solution(prm), atol=1e-7)

    def test_sim2_reaches_global_optimum(self):
        cfg = PgaConfig(adaptive=True, tol=1e-9, record_trace=True)
        for x0 in ([50.0, 50.0], [95.0, -95.0], [-3.0, 1.0]):
            res = pga_solve(build_sim2(SIM2_BENCH), x0, cfg)
            assert res.status is Status.CONVERGED
            assert sim2_is_global(SIM2_BENCH, res.x_star, 1e-4)
            assert np.all(np.diff(res.trace.ratios) <= 1e-12)
            assert all(abs(x[1]) <= 100.0 for x in res.trace.iterates)

    def test_residual_measured_at_the_admissible_step(self):
        problem = build_sim2(SIM2_BENCH)
        res = pga_solve(problem, [50.0, 50.0], PgaConfig(adaptive=True))
        expected = fixed_point_residual(problem, res.x_star, default_alpha(problem))
        assert res.fixed_point_residual == expected

    def test_stops_on_gradient_mapping_not_relative_change(self):
        # the fixed step is ~1e-4 here, so the relative-change rule fires early
        rng = np.random.default_rng(5)
        model = build_sharpe_model(returns_matrix(rng.normal(0.005, 0.04, (60, 30))))
        problem = sharpe_problem(model)
        alpha = default_alpha(problem)

        def mapping(x):
            return fixed_point_residual(problem, x, alpha) / (alpha * problem.eval_g(x))

        fixed = srm_pga(model, PgaConfig())
        adaptive = srm_pga(model)
        assert adaptive.result.status is Status.CONVERGED
        assert mapping(adaptive.weights) <= 1e-5
        assert mapping(fixed.weights) > mapping(adaptive.weights)
        assert adaptive.sharpe >= fixed.sharpe

    def test_shifted_sweep_follows_the_plain_one(self):
        problem = build_sim1(SIM1_B)
        shift = sim1_shift_bound(SIM1_B)
        cfg = PgaConfig(adaptive=True, tol=1e-9, record_trace=True)
        plain = pga_solve(problem, [0.5, 0.5], cfg)
        shifted = pga_solve_shifted(problem, shift, [0.5, 0.5], cfg)
        assert plain.iterations == shifted.iterations
        for a, b in zip(plain.trace.iterates, shifted.trace.iterates):
            assert np.allclose(a, b, atol=1e-10)
        assert shifted.ratio == pytest.approx(plain.ratio - shift, abs=1e-12)

    def test_max_iter_reached(self):
        res = pga_solve(build_sim1(SIM1_B), [0.5, 0.5], PgaConfig(adaptive=True, max_iter=1))
        assert res.status is Status.MAX_ITER_REACHED
        assert res.iterations == 1

    def test_fixed_point_start_stops_immediately(self):
        res = pga_solve(build_sim1(SIM1_A), [0.0, 1.0], PgaConfig(adaptive=True))
        assert res.status is Status.CONVERGED
        assert res.iterations == 1

    def test_uncertified_start_is_solved_again_from_the_best_vertex(self):
        # one asset has a positive window mean, but the equal-weight mean is
        # negative and the first adaptive solve stops at a local critical
        # point with p.w < 0; the fixed step happens to reach the global one
        values = np.random.default_rng(23).normal(-0.01, 0.04, (23, 11))
        model = build_sharpe_model(returns_matrix(values))
        assert (model.p > 0).sum() == 1
        problem = sharpe_problem(model)
        first = pga_solve(problem, np.full(11, 1.0 / 11), PgaConfig(adaptive=True))
        assert model.p @ first.x_star < 0.0
        res = srm_pga(model)
        fixed = srm_pga(model, PgaConfig())
        assert res.result.status is Status.CONVERGED
        assert res.global_certificate
        assert res.sharpe > 0.0
        assert res.sharpe >= fixed.sharpe - 1e-9

    def test_nan_gradient_breaks_down(self):
        problem = FractionalProblem(
            eval_f=lambda x: 1.0,
            eval_g=lambda x: 1.0,
            grad_f=lambda x: np.full_like(x, np.nan),
            grad_g=lambda x: np.zeros_like(x),
            projection=project_simplex,
            step_bound=1.0,
            dimension=2,
        )
        with pytest.raises(NumericalBreakdown):
            pga_solve(problem, [0.5, 0.5], PgaConfig(adaptive=True))


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 12),
    t=st.integers(5, 30),
    mean=st.floats(-0.01, 0.02),
    seed=st.integers(0, 2**32 - 1),
)
def test_adaptive_sharpe_properties(n, t, mean, seed):
    values = np.random.default_rng(seed).normal(mean, 0.04, (t, n))
    model = build_sharpe_model(returns_matrix(values))
    res = srm_pga(model, PgaConfig(adaptive=True, record_trace=True))
    w = res.weights
    assert np.all(w >= -1e-10)
    assert abs(w.sum() - 1.0) <= 1e-10
    # the paper's monotone descent of the ratio survives the larger steps
    assert np.all(np.diff(res.result.trace.ratios) <= 1e-12)
    assert res.result.status is Status.CONVERGED
    if model.p.max() > 0.0:
        # some vertex has a negative ratio, so srm_pga ends certified, at the
        # global maximum, and no fixed-step run beats it
        assert res.global_certificate
        fixed = srm_pga(model, PgaConfig())
        assert res.sharpe >= fixed.sharpe - 1e-9
