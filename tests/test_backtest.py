import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

import fracopt.backtest
from fracopt.backtest import (
    BacktestConfig,
    ReturnsUnit,
    Strategy,
    compute_sharpe,
    compute_wealth,
    load_returns_csv,
    market_strategy_step,
    report_to_csv,
    report_to_json,
    run_backtest,
)
from fracopt.errors import (
    DegenerateSeries,
    InsufficientData,
    InvalidParameter,
    ParseError,
    WealthWipeout,
)
from fracopt.core import PgaConfig
from fracopt.sharpe import returns_matrix, srm_pga


def write_csv(tmp_path, text, name="returns.csv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


SYNTHETIC_6x2 = returns_matrix(
    np.column_stack([np.full(6, 0.01), np.zeros(6)]), ["UP", "FLAT"]
)


class TestLoader:
    def test_percent_conversion(self, tmp_path):
        path = write_csv(tmp_path, "date,A,B\n1990-07,1.0,2.0\n1990-08,3.0,4.0\n")
        r = load_returns_csv(path, ReturnsUnit.PERCENT)
        assert np.allclose(r.values, [[0.01, 0.02], [0.03, 0.04]])
        assert r.asset_labels == ("A", "B")
        assert r.period_labels == ("1990-07", "1990-08")

    def test_decimal_passthrough(self, tmp_path):
        path = write_csv(tmp_path, "date,A,B\n1990-07,1.0,2.0\n1990-08,3.0,4.0\n")
        r = load_returns_csv(path, "decimal")
        assert np.allclose(r.values, [[1.0, 2.0], [3.0, 4.0]])

    def test_no_period_label_column(self, tmp_path):
        path = write_csv(tmp_path, "A,B\n0.01,0.02\n0.03,0.04\n")
        r = load_returns_csv(path)
        assert r.period_labels is None
        assert np.allclose(r.values, [[0.01, 0.02], [0.03, 0.04]])

    def test_header_only(self, tmp_path):
        path = write_csv(tmp_path, "date,A,B\n")
        with pytest.raises(InsufficientData):
            load_returns_csv(path)

    def test_single_data_row(self, tmp_path):
        path = write_csv(tmp_path, "date,A\n1990-07,0.5\n")
        with pytest.raises(InsufficientData):
            load_returns_csv(path)

    def test_ragged_row(self, tmp_path):
        path = write_csv(tmp_path, "date,A,B\nx,1.0,2.0\ny,3.0\n")
        with pytest.raises(ParseError) as excinfo:
            load_returns_csv(path)
        assert excinfo.value.row == 3

    def test_non_numeric_cell(self, tmp_path):
        path = write_csv(tmp_path, "date,A,B\nx,1.0,2.0\ny,3.0,oops\n")
        with pytest.raises(ParseError) as excinfo:
            load_returns_csv(path)
        assert excinfo.value.row == 3
        assert excinfo.value.col == 3

    def test_nan_cell_rejected(self, tmp_path):
        path = write_csv(tmp_path, "date,A,B\nx,1.0,2.0\ny,3.0,nan\n")
        with pytest.raises(ParseError):
            load_returns_csv(path)


class TestMetrics:
    def test_sharpe_zero_mean(self):
        assert compute_sharpe([0.1, -0.1]) == pytest.approx(0.0, abs=1e-15)

    def test_sharpe_hand_value(self):
        # mean 0.2, sample std 0.1
        assert compute_sharpe([0.1, 0.2, 0.3]) == pytest.approx(2.0, rel=1e-12)

    def test_sharpe_degenerate(self):
        with pytest.raises(DegenerateSeries):
            compute_sharpe([0.05, 0.05])

    def test_sharpe_too_short(self):
        with pytest.raises(InsufficientData):
            compute_sharpe([0.1])

    def test_wealth_compounding(self):
        final, path = compute_wealth([0.1, 0.1])
        assert final == pytest.approx(1.21, rel=1e-12)
        assert np.allclose(path, [1.1, 1.21])

    def test_wealth_empty(self):
        final, path = compute_wealth([])
        assert final == 1.0
        assert path.size == 0

    def test_wealth_loss(self):
        final, _ = compute_wealth([0.5, -0.5])
        assert final == pytest.approx(0.75, rel=1e-12)

    def test_wealth_wipeout(self):
        with pytest.raises(WealthWipeout):
            compute_wealth([0.1, -1.0])


class TestMarketStep:
    def test_drift(self):
        assert np.allclose(
            market_strategy_step([0.5, 0.5], [1.1, 0.9]), [0.55, 0.45], atol=1e-15
        )

    def test_single_holding_absorbing(self):
        assert np.allclose(market_strategy_step([1.0, 0.0], [0.7, 1.3]), [1.0, 0.0])

    def test_flat_market_identity(self):
        w = np.array([0.3, 0.2, 0.5])
        assert np.allclose(market_strategy_step(w, np.ones(3)), w)

    def test_wipeout(self):
        with pytest.raises(WealthWipeout):
            market_strategy_step([0.5, 0.5], [0.0, 0.0])


class TestRunBacktest:
    def test_equal_weight_returns_are_row_means(self):
        rng = np.random.default_rng(107)
        values = rng.uniform(-0.05, 0.08, size=(15, 4))
        report = run_backtest(
            returns_matrix(values), BacktestConfig(window=5, strategy="one-over-n")
        )
        assert np.allclose(report.realized_returns, values.mean(axis=1), atol=1e-15)

    def test_market_equals_equal_weight_on_identical_columns(self):
        rng = np.random.default_rng(109)
        col = rng.uniform(-0.03, 0.05, size=12)
        values = np.column_stack([col, col, col])
        r = returns_matrix(values)
        market = run_backtest(r, BacktestConfig(window=4, strategy="market"))
        one_n = run_backtest(r, BacktestConfig(window=4, strategy="one-over-n"))
        assert np.allclose(market.realized_returns, one_n.realized_returns, atol=1e-14)

    def test_market_buy_and_hold_identity(self):
        rng = np.random.default_rng(113)
        for _ in range(20):
            t = int(rng.integers(5, 25))
            n = int(rng.integers(2, 7))
            values = rng.uniform(-0.08, 0.1, size=(t, n))
            report = run_backtest(
                returns_matrix(values), BacktestConfig(window=2, strategy="market")
            )
            closed_form = np.sum(np.prod(1.0 + values, axis=0)) / n
            assert abs(report.final_wealth - closed_form) <= 1e-10

    def test_optimizer_finds_dominant_asset(self):
        report = run_backtest(
            SYNTHETIC_6x2, BacktestConfig(window=3, strategy="srm-pga")
        )
        for t in range(3):
            assert np.allclose(report.weights_history[t], [0.5, 0.5])
            assert report.realized_returns[t] == pytest.approx(0.005, abs=1e-12)
        for t in range(3, 6):
            assert np.allclose(report.weights_history[t], [1.0, 0.0], atol=1e-3)
            assert report.realized_returns[t] == pytest.approx(0.01, abs=1e-4)
        expected_wealth = 1.005**3 * 1.01**3
        assert report.final_wealth == pytest.approx(expected_wealth, abs=2e-4)

    def test_warmup_weights_equal(self):
        rng = np.random.default_rng(127)
        values = rng.uniform(-0.02, 0.05, size=(9, 3))
        for strategy in ("srm-pga", "one-over-n"):
            report = run_backtest(
                returns_matrix(values), BacktestConfig(window=6, strategy=strategy)
            )
            for t in range(6):
                assert np.allclose(report.weights_history[t], 1.0 / 3.0)

    def test_weights_history_on_simplex(self):
        rng = np.random.default_rng(131)
        values = rng.uniform(-0.05, 0.08, size=(12, 3))
        for strategy in Strategy:
            report = run_backtest(
                returns_matrix(values), BacktestConfig(window=4, strategy=strategy)
            )
            w = report.weights_history
            assert np.all(w >= -1e-12)
            assert np.allclose(w.sum(axis=1), 1.0, atol=1e-10)

    def test_report_internally_consistent(self):
        rng = np.random.default_rng(137)
        values = rng.uniform(-0.04, 0.06, size=(14, 3))
        report = run_backtest(returns_matrix(values), BacktestConfig(window=5))
        assert report.sharpe == compute_sharpe(report.realized_returns)
        final, path = compute_wealth(report.realized_returns)
        assert report.final_wealth == final
        assert np.array_equal(report.wealth_path, path)

    def test_deterministic(self):
        rng = np.random.default_rng(139)
        values = rng.uniform(-0.04, 0.06, size=(12, 3))
        r = returns_matrix(values)
        cfg = BacktestConfig(window=4, strategy="srm-pga")
        a = run_backtest(r, cfg)
        b = run_backtest(r, cfg)
        assert np.array_equal(a.realized_returns, b.realized_returns)
        assert np.array_equal(a.weights_history, b.weights_history)
        assert a.sharpe == b.sharpe and a.final_wealth == b.final_wealth

    def test_too_short_horizon(self):
        rng = np.random.default_rng(149)
        values = rng.uniform(-0.01, 0.02, size=(5, 2))
        with pytest.raises(InsufficientData):
            run_backtest(returns_matrix(values), BacktestConfig(window=5))

    def test_wipeout_detected(self):
        values = np.array([[0.01, 0.01], [0.02, 0.0], [-1.2, -1.2], [0.0, 0.0]])
        with pytest.raises(WealthWipeout):
            run_backtest(returns_matrix(values), BacktestConfig(window=2, strategy="one-over-n"))

    def test_solver_error_annotated_with_period(self):
        # zero-mean optimization window makes the model degenerate at period 5
        values = np.array([[0.01, -0.01], [-0.01, 0.01], [0.01, -0.01], [-0.01, 0.01], [0.0, 0.0]])
        with pytest.raises(Exception, match="period 5"):
            run_backtest(returns_matrix(values), BacktestConfig(window=4, strategy="srm-pga"))

    def test_all_periods_converge_at_defaults(self):
        rng = np.random.default_rng(151)
        values = rng.normal(0.005, 0.04, size=(30, 6))
        report = run_backtest(returns_matrix(values), BacktestConfig(window=20))
        assert report.nonconverged_periods == ()

    def test_nonconverged_periods_reported(self, monkeypatch):
        def truncated(model):
            return srm_pga(model, PgaConfig(adaptive=True, max_iter=1))

        monkeypatch.setattr(fracopt.backtest, "srm_pga", truncated)
        rng = np.random.default_rng(151)
        values = rng.normal(0.005, 0.04, size=(30, 6))
        report = run_backtest(returns_matrix(values), BacktestConfig(window=20))
        # periods 21..30 are re-optimized; one iteration cannot converge from equal weights
        assert report.nonconverged_periods == tuple(range(21, 31))
        for strategy in ("one-over-n", "market"):
            other = run_backtest(returns_matrix(values), BacktestConfig(window=20, strategy=strategy))
            assert other.nonconverged_periods == ()

    def test_config_validation(self):
        with pytest.raises(InvalidParameter):
            BacktestConfig(window=1)
        with pytest.raises(InvalidParameter):
            BacktestConfig(eps_hat=0.0)
        with pytest.raises(ValueError):
            BacktestConfig(strategy="momentum")


class TestExport:
    def test_json_keys_and_roundtrip(self, tmp_path):
        report = run_backtest(SYNTHETIC_6x2, BacktestConfig(window=3, strategy="srm-pga"))
        path = tmp_path / "report.json"
        report_to_json(report, path)
        payload = json.loads(path.read_text())
        assert set(payload) == {"strategy", "window", "eps", "sharpe", "final_wealth", "periods"}
        assert payload["strategy"] == "srm-pga"
        assert payload["window"] == 3
        assert payload["periods"] == 6
        assert payload["sharpe"] == report.sharpe
        assert payload["final_wealth"] == report.final_wealth

    def test_csv_full_precision(self, tmp_path):
        report = run_backtest(SYNTHETIC_6x2, BacktestConfig(window=3, strategy="srm-pga"))
        path = tmp_path / "periods.csv"
        report_to_csv(report, path, ["UP", "FLAT"])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "period,realized_return,wealth,w_UP,w_FLAT"
        assert len(lines) == 7
        first = lines[1].split(",")
        assert float(first[1]) == report.realized_returns[0]
        assert float(first[2]) == report.wealth_path[0]


def test_demo_csv_loads_back(tmp_path):
    path = Path(__file__).resolve().parents[1] / "demos" / "backtest_strategies.py"
    spec = importlib.util.spec_from_file_location("backtest_strategies_demo", path)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    values = demo.synthetic_returns(np.random.default_rng(99), periods=8, assets=3)
    out = tmp_path / "demo_returns.csv"
    demo.write_returns_csv(out, values)
    r = load_returns_csv(out)
    assert r.asset_labels == ("A1", "A2", "A3")
    assert r.period_labels is None
    assert np.array_equal(r.values, values)
