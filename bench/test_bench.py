"""Tests of the benchmark's own checks, reference and tracing.

    PYTHONPATH=src python -m pytest -q bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import fracopt  # noqa: E402
import harness  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402
import spec  # noqa: E402
import workloads  # noqa: E402

N8 = ("N=8", 1)  # the N=8 op of the first SharpeSolve cycle


@pytest.fixture(scope="module")
def sharpe():
    wl = workloads.SharpeSolve(seed=7)
    wl.build()
    return wl


def test_truncated_solve_counts_as_failed(sharpe):
    model = fracopt.build_sharpe_model(sharpe.inputs[N8[1]])
    out = fracopt.srm_pga(model, fracopt.PgaConfig(max_iter=1))
    verdict = sharpe.judge(N8, sharpe.digest(N8, out))
    assert verdict.failed and not verdict.silent_wrong
    tally = harness.Tally()
    tally.add(N8, 0.1, verdict, None)
    tally.add(N8, 0.1, None, "NumericalBreakdown: raised")
    assert (tally.ops, tally.failed, tally.wrong, tally.problems) == (2, 2, 0, [])


def test_perturbed_converged_weights_count_as_silent_wrong(sharpe):
    d = sharpe.digest(N8, sharpe.run(N8))
    w = d["w"] + np.linspace(-0.02, 0.02, d["w"].size)
    w = np.maximum(w, 0.0)
    d["w"] = w / w.sum()
    p, q_mat, _ = sharpe.reference(N8)
    d["sharpe"] = reference.sharpe_value(p, q_mat, d["w"])
    d["certificate"] = bool(p @ d["w"] >= 0)
    d["converged"] = True
    verdict = sharpe.judge(N8, d)
    assert not verdict.problems and not verdict.failed
    assert verdict.silent_wrong
    assert max(verdict.gaps) > workloads.SILENT_GAP


def test_inconsistent_output_is_a_problem(sharpe):
    d = sharpe.digest(N8, sharpe.run(N8))
    d["sharpe"] *= 1.01
    assert sharpe.judge(N8, d).problems


def test_sharpe_reference_matches_sim1_analytic_optimum():
    # min p.x/||x|| on the 2-simplex is the maximum-Sharpe problem with
    # mean -p and identity covariance
    rng = np.random.default_rng(3)
    for _ in range(20):
        params = fracopt.models.random_sim1_params(rng)
        w, value, kkt, acc = reference.max_sharpe(-params.p, np.eye(2))
        x = fracopt.sim1_analytic_solution(params)
        assert np.allclose(w, x, rtol=0, atol=1e-9)
        assert value == pytest.approx(-(params.p @ x) / np.linalg.norm(x), rel=1e-12)
        assert kkt <= reference.KKT_TOL and acc <= reference.ACC_TOL


def test_reference_rejects_a_non_optimal_point(sharpe):
    p, q_mat, ref = sharpe.reference(N8)
    assert ref is not None
    with pytest.raises(reference.ReferenceFault):
        reference.verify(p, q_mat, np.full(p.size, 1.0 / p.size))


def test_reference_undefined_without_a_positive_mean():
    assert reference.max_sharpe(-np.ones(3), np.eye(3)) is None


def test_returns_csv_round_trips_through_the_loader(tmp_path):
    values = workloads.factor_returns(
        np.random.default_rng(5), workloads.factor_market(4), 12
    )
    path = tmp_path / "returns.csv"
    labels = ["A", "B", "C", "D"]
    workloads.write_returns_csv(path, values, labels)
    loaded = fracopt.load_returns_csv(path)
    assert np.array_equal(loaded.values, values)
    assert loaded.asset_labels == tuple(labels)
    assert loaded.period_labels[0] == "t001"


def test_backtest_op_passes_its_checks(tmp_path):
    wl = workloads.BacktestRolling(seed=3)
    wl.materialize(str(tmp_path))
    wl.build()
    d = wl.digest(0, wl.run(0))
    assert d["problems"] == []
    verdict = wl.judge(0, d)
    assert len(verdict.gaps) == wl.PERIODS - wl.WINDOW
    assert len(d["statuses"]) == wl.PERIODS - wl.WINDOW and not verdict.unobserved


def test_backtest_period_truncated_solve_counts_as_failed(tmp_path, monkeypatch):
    wl = workloads.BacktestRolling(seed=3)
    wl.materialize(str(tmp_path))
    wl.build()
    solve = fracopt.backtest.srm_pga
    monkeypatch.setattr(fracopt.backtest, "srm_pga",
                        lambda model: solve(model, fracopt.PgaConfig(max_iter=1)))
    verdict = wl.judge(0, wl.digest(0, wl.run(0)))
    assert verdict.failed and not verdict.problems


def test_paper_ops_pass_their_checks():
    wl = workloads.PaperSims(seed=4)
    wl.build()
    for op in wl.cycle(0):
        verdict = wl.judge(op, wl.digest(op, wl.run(op)))
        assert not verdict.failed, op


def test_traced_solve_matches_untraced_and_patches_restore(sharpe):
    plain = sharpe.run(N8)
    before = fracopt.srm_pga
    rec = spans.Recorder()
    patches = spans.Patches(rec)
    patches.apply()
    try:
        traced = sharpe.run(N8)
    finally:
        patches.restore()
        rec.end_op()
    assert fracopt.srm_pga is before
    assert np.array_equal(plain.weights, traced.weights)
    m = spans.layer_metrics(rec)
    assert m["core.solve_calls"] == 1 and m["linalg.eig_calls"] == 1
    assert m["core.iterations"] == plain.result.iterations
    assert m["sharpe.ratio_us"] > 0 and m["projections.simplex_us"] > 0
    assert m["trace.absent_layers"] == 0


def test_self_time_excludes_children():
    rec = spans.Recorder()
    inner = rec.wrap(lambda: sum(range(20000)), "inner")
    outer = rec.wrap(lambda: [inner() for _ in range(3)], "outer")
    outer()
    rec.end_op()
    assert rec.calls["inner"] == 3
    assert rec.self_time["outer"] == pytest.approx(rec.total["outer"] - rec.total["inner"])


def test_missing_target_is_reported_absent(monkeypatch):
    monkeypatch.delattr(fracopt.dinkelbach, "dinkelbach_solve")
    patches = spans.Patches(spans.Recorder())
    assert patches.absent == {"dinkelbach"}


def test_manifest_is_committed_and_within_limits():
    manifest = spec.manifest()
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == manifest
    names = [m["name"] for m in manifest["end_to_end"] + manifest["per_layer"]]
    assert len(names) == len(set(names))
    assert all(len(w["why"]) <= 200 for w in manifest["workloads"])
    assert all(m["bound"] <= 0.25 for m in manifest["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25} in manifest["end_to_end"]


def test_exits_without_result_when_the_source_is_missing(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", ".work"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "paper-sims", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
