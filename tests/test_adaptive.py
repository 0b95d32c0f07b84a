"""Adaptive-step PGA: spectral trial steps with monotone ratio backtracking.

The fixed-step iteration is the paper's path and stays bit-identical; the
adaptive mode must keep the paper's monotone descent and feasibility, and
stop only where the step-normalised gradient mapping is small.
"""

import dataclasses
import hashlib
import warnings

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
from fracopt.dinkelbach import DinkelbachConfig, dinkelbach_solve
from fracopt.errors import NumericalBreakdown, ShiftViolation
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
from fracopt.sharpe import (
    SharpeModel,
    build_sharpe_model,
    returns_matrix,
    sharpe_problem,
    srm_pga,
)

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


class TestAdaptiveStepUnchanged:
    # frozen from the adaptive loop whose first trial step is 1/g(x0); 2-d
    # problems, so no BLAS kernel enters the digests. sim1 is the Sharpe
    # problem with its face finish, which ends it at (2/3, 1/3) to rounding;
    # sim2's answer must also be its global minimiser
    @pytest.mark.parametrize(
        "problem,x0,iterations,digest,x_star,is_global",
        [
            (
                build_sim1(SIM1_B),
                [0.5, 0.5],
                4,
                "b194492fe905a5aa34a2d2f3da39ab56a13b36c4a462502dce4dd4d406ffde82",
                ("0x1.5555555555555p-1", "0x1.5555555555555p-2"),
                None,
            ),
            (
                build_sim2(SIM2_BENCH),
                [50.0, 50.0],
                7,
                "54eb9e8e1bfb4e3e9fcb31d519965418ae7ecddea712da9186fc9b8914802b80",
                ("-0x1.c27d2eb57c000p-18", "0x1.9000000000000p+6"),
                lambda x: sim2_is_global(SIM2_BENCH, x, 1e-4),
            ),
        ],
        ids=["sim1-B", "sim2-bench"],
    )
    def test_adaptive_iterates_bit_identical(
        self, problem, x0, iterations, digest, x_star, is_global
    ):
        res = pga_solve(problem, x0, PgaConfig(adaptive=True, record_trace=True))
        assert res.status is Status.CONVERGED
        assert res.iterations == iterations
        assert tuple(float(v).hex() for v in res.x_star) == x_star
        assert trace_digest(res.trace) == digest
        assert is_global is None or is_global(res.x_star)


class TestDinkelbachUnchanged:
    # frozen from sim1's own oracle before it became the Sharpe oracle with
    # Q = I; the inner loop runs on grad_f + c*grad_g with the step from
    # lip_grad_g, a path the PGA pins above do not cover
    def test_sim1_trace_bit_identical(self):
        res = dinkelbach_solve(build_sim1(SIM1_B), [0.5, 0.5], DinkelbachConfig(record_trace=True))
        assert res.status is Status.CONVERGED
        assert res.iterations == 3
        assert tuple(float(v).hex() for v in res.x_star) == (
            "0x1.5555555830233p-1",
            "0x1.5555554f9fb9ap-2",
        )
        assert (
            trace_digest(res.trace)
            == "1c9c0b84792a9128c4cf6931d2989463219ff9316817c98605993964d85a0524"
        )


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

    def test_invalid_shift_raises(self):
        # the ratio dips below zero on this problem, so 0 is not a lower bound
        with pytest.raises(ShiftViolation):
            pga_solve_shifted(build_sim1(SIM1_A), 0.0, [0.5, 0.5], PgaConfig(adaptive=True))

    def test_max_iter_reached(self):
        res = pga_solve(build_sim1(SIM1_B), [0.5, 0.5], PgaConfig(adaptive=True, max_iter=1))
        assert res.status is Status.MAX_ITER_REACHED
        assert res.iterations == 1

    def test_fixed_point_start_stops_immediately(self):
        res = pga_solve(build_sim1(SIM1_A), [0.0, 1.0], PgaConfig(adaptive=True))
        assert res.status is Status.CONVERGED
        assert res.iterations == 1

    def test_negative_mean_sum_is_solved_once_from_the_best_vertex(self, monkeypatch):
        # one asset has a positive window mean, but the equal-weight mean is
        # negative and an adaptive solve from there stops at a local critical
        # point with p.w < 0; srm_pga starts from the vertex of the best
        # p_i/sqrt(Q_ii) instead, where the Sharpe ratio is positive
        values = np.random.default_rng(23).normal(-0.01, 0.04, (23, 11))
        model = build_sharpe_model(returns_matrix(values))
        assert (model.p > 0).sum() == 1
        problem = sharpe_problem(model)
        first = pga_solve(problem, np.full(11, 1.0 / 11), PgaConfig(adaptive=True))
        assert model.p @ first.x_star < 0.0
        vertex = np.eye(11)[np.argmax(model.p / np.sqrt(np.diag(model.q_eps)))]
        starts = []

        def counted(problem, x0, cfg):
            starts.append(x0)
            return pga_solve(problem, x0, cfg)

        monkeypatch.setattr("fracopt.sharpe.pga_solve", counted)
        results = []
        for cfg in (None, PgaConfig()):
            starts.clear()
            results.append(srm_pga(model, cfg))
            assert len(starts) == 1
            assert np.array_equal(starts[0], vertex)
        res, fixed = results
        assert res.result.status is Status.CONVERGED
        assert res.global_certificate
        assert fixed.global_certificate
        assert res.sharpe > 0.0
        assert res.sharpe >= fixed.sharpe - 1e-9

    @staticmethod
    def assert_solved_from(model, start, cfg):
        res = srm_pga(model, cfg)
        plain = pga_solve(sharpe_problem(model), start, cfg)
        assert res.weights.tobytes() == plain.x_star.tobytes()
        assert res.result.ratio == plain.ratio
        assert res.result.iterations == plain.iterations
        assert res.result.status is plain.status
        return res

    @pytest.mark.parametrize("cfg", [PgaConfig(), PgaConfig(adaptive=True)])
    def test_positive_mean_is_solved_from_the_clipped_tangency_portfolio(self, cfg):
        # asset means of both signs: the start is the tangency portfolio
        # Q^-1 p clipped to the long-only set, max(Q^-1 p, 0) normalized,
        # where p.w > 0; it is not the diagonal optimum
        values = np.random.default_rng(41).normal(0.002, 0.04, (40, 9))
        model = build_sharpe_model(returns_matrix(values))
        assert model.p.sum() > 0.0 and model.p.min() < 0.0
        tangency = np.linalg.solve(model.q_eps, model.p)
        assert tangency.min() < 0.0 < tangency.max()
        start = np.maximum(tangency, 0.0)
        start /= start.sum()
        assert model.p @ start > 0.0
        diagonal = np.maximum(model.p, 0.0) / np.diag(model.q_eps)
        assert not np.array_equal(start > 0.0, diagonal > 0.0)
        res = self.assert_solved_from(model, start, cfg)
        assert res.global_certificate

    @pytest.mark.parametrize("cfg", [PgaConfig(), PgaConfig(adaptive=True)])
    def test_positive_mean_is_solved_from_the_diagonal_optimum(self, cfg):
        # two positive means, yet p.w <= 0 at the clipped tangency portfolio,
        # so that start is uncertified and srm_pga falls back to the long-only
        # optimum with Q replaced by its diagonal, max(p, 0) / diag(Q) normalized
        rng = np.random.default_rng(36)
        values = rng.normal(0.0, 0.04, (40, 8)) + rng.uniform(-0.03, 0.005, 8)
        model = build_sharpe_model(returns_matrix(values))
        assert (model.p > 0.0).sum() == 2
        tangency = np.maximum(np.linalg.solve(model.q_eps, model.p), 0.0)
        assert model.p @ (tangency / tangency.sum()) <= 0.0
        start = np.maximum(model.p, 0.0) / np.diag(model.q_eps)
        start /= start.sum()
        res = self.assert_solved_from(model, start, cfg)
        assert res.global_certificate

    def test_singular_q_starts_from_the_diagonal_optimum(self, monkeypatch):
        # Q has no inverse in float64, so there is no tangency portfolio: no
        # LinAlgError, and the start is the diagonal optimum
        p = np.array([0.1, -0.05, 0.2])
        model = SharpeModel(p, np.ones((3, 3)), 1e-4, 3.0)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(model.q_eps, p)
        starts = []

        def counted(problem, x0, cfg):
            starts.append(x0)
            return pga_solve(problem, x0, cfg)

        monkeypatch.setattr("fracopt.sharpe.pga_solve", counted)
        for cfg in (None, PgaConfig()):
            starts.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                res = srm_pga(model, cfg)
            assert len(starts) == 1
            assert np.array_equal(starts[0], [1.0 / 3.0, 0.0, 2.0 / 3.0])
            assert res.global_certificate

    @pytest.mark.parametrize("cfg", [PgaConfig(), PgaConfig(adaptive=True)])
    def test_diagonal_q_stops_at_its_closed_form_optimum(self, cfg):
        # with a diagonal Q the start is the exact optimum, so the first
        # iteration does not move it; the same holds on independent returns
        # whose tangency portfolio Q^-1 p is long-only, where the face finish
        # offered as the stop fires gives that start back
        rng = np.random.default_rng(12)
        p = rng.normal(0.002, 0.01, 10)
        d = rng.uniform(1e-3, 4e-3, 10)
        assert p.min() < 0.0 < p.max()
        values = np.random.default_rng(0).normal(0.01, 0.02, (60, 3))
        tangent = build_sharpe_model(returns_matrix(values))
        tangency = np.linalg.solve(tangent.q_eps, tangent.p)
        assert tangency.min() > 0.0
        cases = [
            (SharpeModel(p, np.diag(d), 1e-4, float(d.max())), np.maximum(p, 0.0) / d),
            (tangent, tangency),
        ]
        for model, best in cases:
            res = srm_pga(model, cfg)
            assert res.result.iterations == 1
            assert res.result.status is Status.CONVERGED
            assert res.global_certificate
            assert np.allclose(res.weights, best / best.sum(), rtol=0.0, atol=1e-12)

    def test_positive_mean_whose_start_weight_underflows_starts_at_the_vertex(self):
        # p_1/Q_11 = 1e-300/1e300 underflows to zero, so the diagonal start
        # has no mass; the vertex of the largest p_i/sqrt(Q_ii) is that asset
        values = np.array([[1e150, 0.01], [-1e150, -0.02], [3e-300, 0.005]])
        model = build_sharpe_model(returns_matrix(values))
        assert model.p[0] > 0.0 > model.p[1]
        assert not np.any(np.maximum(model.p, 0.0) / np.diag(model.q_eps))
        for cfg in (None, PgaConfig()):
            res = srm_pga(model, cfg)
            assert np.array_equal(res.weights, [1.0, 0.0])
            assert res.result.status is Status.CONVERGED
            assert res.global_certificate

    def test_zero_variance_asset_breaks_down_in_the_oracle(self):
        # Q without eps_hat: the positive-mean asset has no variance, so the
        # ratio is undefined at its vertex
        model = SharpeModel(np.array([0.1, 0.2]), np.diag([0.0, 1.0]), 1e-4, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NumericalBreakdown):
                srm_pga(model)

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


def settled_faces(iterates):
    """Stretches of the iterates whose zero pattern holds for 3 accepted iterations."""
    count, zeros, held = 0, None, 0
    for x in iterates:
        pattern = (x == 0.0).tobytes()
        held = held + 1 if pattern == zeros else 0
        zeros = pattern
        count += held == 3
    return count


class TestExactFinish:
    @staticmethod
    def model(seed=3, shape=(60, 30)):
        values = np.random.default_rng(seed).normal(0.005, 0.04, shape)
        return build_sharpe_model(returns_matrix(values))

    @staticmethod
    def solve(problem, finish):
        n = problem.dimension
        cfg = PgaConfig(adaptive=True, record_trace=True)
        return pga_solve(dataclasses.replace(problem, finish=finish), np.full(n, 1.0 / n), cfg)

    @staticmethod
    def worst_vertex(problem):
        vertices = np.eye(problem.dimension)
        return max(vertices, key=problem.ratio)

    def test_rejected_finish_leaves_the_trace_bit_identical(self):
        for seed, shape, faces in ((3, (60, 30), 1), (1, (120, 60), 2)):
            problem = sharpe_problem(self.model(seed, shape))
            base = self.solve(problem, None)
            # the finish is tried once on each face the iterates settle on
            assert settled_faces(base.trace.iterates[1:]) == faces
            worst = self.worst_vertex(problem)
            calls = []

            def declines(x):
                calls.append(x)
                return None

            def rises(x):
                calls.append(x)
                assert problem.ratio(worst) > problem.ratio(x)
                return worst

            for finish in (declines, rises):
                calls.clear()
                res = self.solve(problem, finish)
                assert len(calls) == faces
                assert res.iterations == base.iterations
                assert res.status is base.status
                assert trace_digest(res.trace) == trace_digest(base.trace)
                assert np.array_equal(res.x_star, base.x_star)

    def test_declined_face_is_not_offered_again(self):
        # on this model the iterates settle on one face, leave it for one
        # iteration and settle on it again
        problem = sharpe_problem(self.model(15, (30, 12)))
        base = self.solve(problem, None)
        settled = settled_faces(base.trace.iterates[1:])
        assert settled == 2
        calls = []

        def declines(x):
            calls.append((x == 0.0).tobytes())
            return None

        res = self.solve(problem, declines)
        assert len(calls) == len(set(calls)) == settled - 1
        assert res.iterations == base.iterations
        assert trace_digest(res.trace) == trace_digest(base.trace)

    def test_finish_is_offered_where_the_stop_fires(self):
        # returns at 1e-4: from the clipped tangency portfolio the stop fires
        # after one iteration, before any face settles; the finish is asked
        # there once, and its exact face optimum ends the solve
        values = np.random.default_rng(2).normal(0.3, 1.0, (60, 8)) * 1e-4
        model = build_sharpe_model(returns_matrix(values))
        problem = sharpe_problem(model)
        start = np.maximum(np.linalg.solve(model.q_eps, model.p), 0.0)
        start /= start.sum()
        cfg = PgaConfig(adaptive=True, record_trace=True)
        base = pga_solve(dataclasses.replace(problem, finish=None), start, cfg)
        assert base.status is Status.CONVERGED
        assert base.iterations == 1
        assert settled_faces(base.trace.iterates[1:]) == 0
        calls = []

        def counted(x):
            calls.append(x.copy())
            return problem.finish(x)

        res = pga_solve(dataclasses.replace(problem, finish=counted), start, cfg)
        assert len(calls) == 1
        assert np.array_equal(calls[0], base.x_star)
        assert res.status is Status.CONVERGED
        assert res.iterations == base.iterations
        assert np.array_equal(res.trace.iterates[-2], base.x_star)
        assert res.ratio < base.ratio

    def test_declined_face_is_not_offered_again_where_the_stop_fires(self):
        # from equal weights the iterates settle on the face where the stop
        # later fires; the finish declined there is not asked again at the stop
        problem = sharpe_problem(self.model())
        base = self.solve(problem, None)
        assert settled_faces(base.trace.iterates[1:]) == 1
        calls = []

        def declines(x):
            calls.append((x == 0.0).tobytes())
            return None

        res = self.solve(problem, declines)
        assert calls == [(base.x_star == 0.0).tobytes()]
        assert res.status is Status.CONVERGED
        assert res.iterations == base.iterations
        assert trace_digest(res.trace) == trace_digest(base.trace)

    def test_accepted_finish_stops_converged_on_an_aligned_monotone_trace(self):
        model = self.model()
        problem = sharpe_problem(model)
        base = self.solve(problem, None)
        res = self.solve(problem, problem.finish)
        assert res.status is Status.CONVERGED
        assert res.iterations < base.iterations
        trace = res.trace
        # the finished point is one move past the last iteration
        assert len(trace.iterates) == res.iterations + 2
        assert len(trace.ratios) == len(trace.iterates)
        assert np.array_equal(trace.iterates[-1], res.x_star)
        assert trace.ratios[-1] == res.ratio
        assert np.all(np.diff(trace.ratios) <= 0.0)
        # the finish solves the face exactly: it beats the plain solve's ratio
        assert res.ratio <= base.ratio

    def test_sharpe_finish_depends_only_on_the_face(self):
        # asset 1 of the optimal support {1, 2, 3} has a negative mean, so a
        # point of that face can have p.w < 0; the face optimum is the same
        values = np.random.default_rng(5).normal(0.002, 0.04, (60, 6))
        model = build_sharpe_model(returns_matrix(values))
        best = srm_pga(model)
        support = np.flatnonzero(best.weights)
        assert support.tolist() == [1, 2, 3]
        w = np.zeros(6)
        w[support] = [0.98, 0.01, 0.01]
        assert model.p @ w < 0.0
        finish = sharpe_problem(model).finish
        w_fin = finish(w)
        assert w_fin is not None
        assert np.allclose(w_fin, best.weights, rtol=0.0, atol=1e-12)
        # a face with one asset too many, and one that lacks optimal asset 1:
        # their own KKT signs fail, and active-set corrections reach the optimum
        for face in ([1, 2, 3, 4], [2, 3]):
            w = np.zeros(6)
            w[face] = 1.0 / len(face)
            w_fin = finish(w)
            assert w_fin is not None
            assert np.allclose(w_fin, best.weights, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("seed", [4, 6])
    def test_two_period_window_at_1e3_converges_by_corrections(self, seed):
        # T = 2, N = 4 at 1e3: the faces the iterates settle on first fail
        # their KKT signs, and the solve once ran its whole iteration budget
        values = np.random.default_rng(seed).normal(0.3, 1.0, (2, 4)) * 1e3
        res = srm_pga(build_sharpe_model(returns_matrix(values)))
        assert res.result.status is Status.CONVERGED
        assert res.global_certificate
        assert res.result.iterations <= 50

    def test_sharpe_finish_offers_nothing_without_a_positive_mean(self):
        # the corrections drop every asset: with no positive mean the QP form's
        # solution is z = 0, which no normalisation turns into weights
        values = np.random.default_rng(8).normal(-0.01, 0.04, (60, 5))
        model = build_sharpe_model(returns_matrix(values))
        assert model.p.max() < 0.0
        finish = sharpe_problem(model).finish
        for face in ([0], [1, 3], [0, 1, 2, 3, 4]):
            w = np.zeros(5)
            w[face] = 1.0 / len(face)
            assert finish(w) is None

    def test_sharpe_finish_offers_nothing_on_a_singular_face(self):
        # a face matrix that is singular in float64 has no tangency portfolio
        model = SharpeModel(np.array([0.1, 0.2]), np.ones((2, 2)), 1e-4, 2.0)
        assert sharpe_problem(model).finish(np.array([0.5, 0.5])) is None

    def test_fixed_step_never_calls_the_finish(self):
        problem = sharpe_problem(self.model())

        def refuses(x):
            raise AssertionError("the fixed step called the finish")

        res = pga_solve(
            dataclasses.replace(problem, finish=refuses),
            np.full(problem.dimension, 1.0 / problem.dimension),
            PgaConfig(max_iter=200),
        )
        assert res.iterations == 200


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
    if model.p.sum() > 0.0:
        # equal weights are a certified start there too, and lead to the same
        # global maximum
        equal = np.full(n, 1.0 / n)
        plain = pga_solve(sharpe_problem(model), equal, PgaConfig(adaptive=True))
        assert abs(res.sharpe + plain.ratio) <= 1e-9 * abs(plain.ratio)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 12),
    t=st.integers(5, 30),
    seed=st.integers(0, 2**32 - 1),
    adaptive=st.booleans(),
)
def test_no_positive_mean_returns_the_best_vertex(n, t, seed, adaptive):
    # with every mean below zero the Sharpe ratio is quasiconvex on the
    # simplex, so its maximum is the vertex of the largest p_i/sqrt(Q_ii)
    rng = np.random.default_rng(seed)
    values = rng.normal(0.0, 0.04, (t, n))
    values += rng.uniform(-0.03, -0.001, n) - values.mean(axis=0)
    model = build_sharpe_model(returns_matrix(values))
    assert model.p.max() < 0.0
    best = np.argmax(model.p / np.sqrt(np.diag(model.q_eps)))
    res = srm_pga(model, PgaConfig(adaptive=adaptive))
    assert res.result.iterations == 1
    assert res.result.status is Status.CONVERGED
    assert np.allclose(res.weights, np.eye(n)[best], rtol=0.0, atol=1e-12)
    assert not res.global_certificate
    # no point of a random sample beats it
    sample = rng.dirichlet(np.ones(n), 200)
    ratios = (sample @ model.p) / np.sqrt(np.einsum("ij,jk,ik->i", sample, model.q_eps, sample))
    assert np.all(ratios <= res.sharpe + 1e-12)
