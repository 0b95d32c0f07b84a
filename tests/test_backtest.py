import csv
import dataclasses
import hashlib
import importlib.util
import io
import json
import os
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fracopt.backtest
from conftest import assert_core_pin
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
    DataError,
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


def _awkward_panel():
    values = np.random.default_rng(23).normal(0.005, 0.04, (10, 3))
    values[1, 0] = 5e-324
    values[2, 1] = -0.0
    values[3, 2] = 0.0
    values[6, 0] = 1.0
    periods = ("2020-01", "Q1, 2020", 'the "big" one', 'a,"b",c')
    periods += tuple(f"t{t}" for t in range(5, 11))
    return returns_matrix(values, ("A", "B, Inc", 'C "x"'), periods)


# period and asset labels that CSV must quote, and returns at the float extremes
AWKWARD_PANEL = _awkward_panel()


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

    def test_undecodable_bytes_rejected(self, tmp_path):
        path = tmp_path / "returns.csv"
        path.write_bytes(b"A,B\n0.01,\xff\xfe\n0.02,0.0\n")
        with pytest.raises(ParseError, match="returns.csv"):
            load_returns_csv(str(path))

    def test_byte_order_mark_before_plain_header(self, tmp_path):
        # Excel's "CSV UTF-8" export starts the file with a byte-order mark
        path = tmp_path / "returns.csv"
        path.write_bytes(b"\xef\xbb\xbfA,B\n0.01,0.02\n0.03,-0.01\n0.02,0.01\n")
        r = load_returns_csv(str(path))
        assert r.asset_labels == ("A", "B")
        assert r.period_labels is None
        assert np.array_equal(r.values, [[0.01, 0.02], [0.03, -0.01], [0.02, 0.01]])

    def test_byte_order_mark_before_blank_index_header(self, tmp_path):
        # the index cells are not increasing, so only the blank header marks them
        path = tmp_path / "returns.csv"
        path.write_bytes(b"\xef\xbb\xbf,A,B\n2,0.01,0.02\n0,0.03,0.04\n1,0.05,0.06\n")
        r = load_returns_csv(str(path))
        assert r.asset_labels == ("A", "B")
        assert r.period_labels == ("2", "0", "1")
        assert np.array_equal(r.values, [[0.01, 0.02], [0.03, 0.04], [0.05, 0.06]])

    def test_undecodable_bytes_after_byte_order_mark_rejected(self, tmp_path):
        path = tmp_path / "returns.csv"
        path.write_bytes(b"\xef\xbb\xbfA,B\n0.01,\xff\xfe\n0.02,0.0\n")
        with pytest.raises(ParseError, match="returns.csv"):
            load_returns_csv(str(path))

    def test_pandas_index_column(self, tmp_path):
        # DataFrame.to_csv() writes the row index under a blank header cell
        path = write_csv(tmp_path, ",A,B\n0,0.01,0.02\n1,0.03,0.04\n2,0.05,0.06\n")
        r = load_returns_csv(path)
        assert r.asset_labels == ("A", "B")
        assert r.period_labels == ("0", "1", "2")
        assert np.array_equal(r.values, [[0.01, 0.02], [0.03, 0.04], [0.05, 0.06]])

    def test_named_increasing_integer_column_is_period_labels(self, tmp_path):
        path = write_csv(tmp_path, "year,A,B\n1990,0.01,0.02\n1991,0.03,0.01\n1992,0.02,0.02\n")
        r = load_returns_csv(path)
        assert r.asset_labels == ("A", "B")
        assert r.period_labels == ("1990", "1991", "1992")
        assert np.array_equal(r.values, [[0.01, 0.02], [0.03, 0.01], [0.02, 0.02]])

    @pytest.mark.parametrize(
        "text",
        [
            "A,B\n1,2\n3,1\n2,5\n",  # integers, not increasing
            "A,B\n1,2\n1,1\n2,5\n",  # integers, not strictly increasing
            "A,B\n1,2\n2.5,1\n3,5\n",  # increasing, not all integers
            "A\n1\n2\n3\n",  # increasing integers, but no column left to label
        ],
        ids=["unordered", "repeated", "fractional", "single-column"],
    )
    def test_other_numeric_first_column_stays_an_asset(self, tmp_path, text):
        header, *rows = text.split()
        r = load_returns_csv(write_csv(tmp_path, text))
        assert r.period_labels is None
        assert r.asset_labels == tuple(header.split(","))
        assert np.array_equal(r.values, [[float(c) for c in row.split(",")] for row in rows])

    def test_named_integer_returns_column_stays_an_asset(self, tmp_path):
        # 1, 2, 4 are increasing integers, but neither consecutive nor dates
        path = write_csv(tmp_path, "A,B,C\n1,2,-1\n2,-1,3\n4,3,2\n")
        r = load_returns_csv(path, ReturnsUnit.PERCENT)
        assert r.period_labels is None
        assert r.asset_labels == ("A", "B", "C")
        assert np.array_equal(r.values, [[0.01, 0.02, -0.01], [0.02, -0.01, 0.03], [0.04, 0.03, 0.02]])

    @pytest.mark.parametrize(
        "text, labels",
        [
            ("t,A,B\n7,0.01,0.02\n8,0.03,0.01\n9,0.02,0.02\n", ("7", "8", "9")),
            ("month,A,B\n202311,0.01,0.02\n202312,0.03,0.01\n202401,0.02,0.02\n",
             ("202311", "202312", "202401")),
        ],
        ids=["period-index", "yyyymm"],
    )
    def test_named_period_integers_are_labels(self, tmp_path, text, labels):
        r = load_returns_csv(write_csv(tmp_path, text))
        assert r.asset_labels == ("A", "B")
        assert r.period_labels == labels

    def test_blank_asset_label_rejected(self, tmp_path):
        path = write_csv(tmp_path, "date,A,,B\nx,1.0,2.0,3.0\ny,3.0,4.0,5.0\n")
        with pytest.raises(ParseError) as excinfo:
            load_returns_csv(path)
        assert excinfo.value.row == 1
        assert excinfo.value.col == 3

    def test_label_column_alone_defines_no_assets(self, tmp_path):
        path = write_csv(tmp_path, "date\n2020-01\n2020-02\n")
        with pytest.raises(ParseError, match="header defines no asset columns") as excinfo:
            load_returns_csv(path)
        assert excinfo.value.row == 1

    def test_nan_cell_rejected(self, tmp_path):
        path = write_csv(tmp_path, "date,A,B\nx,1.0,2.0\ny,3.0,nan\n")
        with pytest.raises(ParseError):
            load_returns_csv(path)


    # each file's first bad cell in row-major order, with the error the loader
    # raised for it before the valid-file fast path and, from long-row on,
    # while it still ran its own shape and finiteness pass before
    # ReturnsMatrix: class, message, row, column
    @pytest.mark.parametrize(
        "text, message, row, col",
        [
            ("A,B,C\n0.01,0.02,0.03\n0.01,nan,abc\n", "non-finite cell at row 3, column 2", 3, 2),
            ("A,B,C\n0.01,0.02,0.03\n0.01,abc,inf\n",
             "non-numeric cell 'abc' at row 3, column 2", 3, 2),
            ("A,B,C\n0.01,0.02,0.03\n0.01,0.02,-inf\n0.01,abc,0.03\n",
             "non-finite cell at row 3, column 3", 3, 3),
            ("A,B,C\n0.01,0.02,0.03\n0.01,0.02,x\n0.01,nan,0.03\n",
             "non-numeric cell 'x' at row 3, column 3", 3, 3),
            ("A,B,C\n0.01,0.02,0.03\n0.01,0.02,inf\n0.01,0.02\n",
             "non-finite cell at row 3, column 3", 3, 3),
            ("A,B,C\n0.01,0.02,0.03\n0.01,0.02\n0.01,abc,0.03\n",
             "row 3 has 2 cells, expected 3", 3, None),
            ("date,A,B\nx,0.01,0.02\ny,1e999,oops\n", "non-finite cell at row 3, column 2", 3, 2),
            ("date,A,B\nx,0.01,0.02\ny,oops,NaN\n",
             "non-numeric cell 'oops' at row 3, column 2", 3, 2),
            ("A,B\n0.01\n0.02\n", "row 2 has 1 cells, expected 2", 2, None),
            ("A,B\n0.01,0.02\n0.01,0.02,0.03\n0.01,0.02\n",
             "row 3 has 3 cells, expected 2", 3, None),
            ("A,B\n0.01,0.02,0.03\n0.04,0.05,0.06\n", "row 2 has 3 cells, expected 2", 2, None),
            ("date,A\nx\ny\n", "row 2 has 1 cells, expected 2", 2, None),
            ("A,B\n0.01,\n0.02,0.03\n", "non-numeric cell '' at row 2, column 2", 2, 2),
            ("A,B\n0.01,0.02\n\n0.03,inf\n", "non-finite cell at row 4, column 2", 4, 2),
            ("date,A,B\nx,0.01,0.02\ny,0.03,NaN\n", "non-finite cell at row 3, column 3", 3, 3),
        ],
        ids=[
            "nonfinite-then-text-in-row",
            "text-then-nonfinite-in-row",
            "nonfinite-then-text-across-rows",
            "text-then-nonfinite-across-rows",
            "nonfinite-then-short-row",
            "short-row-then-text",
            "labelled-nonfinite-then-text",
            "labelled-text-then-nonfinite",
            "every-row-short",
            "long-row",
            "every-row-long",
            "every-row-only-a-label",
            "empty-cell",
            "blank-record-then-nonfinite",
            "labelled-nan",
        ],
    )
    @pytest.mark.parametrize("unit", ["decimal", "percent"])
    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
    def test_first_bad_cell_is_reported(self, tmp_path, text, message, row, col, unit, bom):
        path = tmp_path / "returns.csv"
        path.write_bytes(bom + text.encode())
        with pytest.raises(ParseError) as excinfo:
            load_returns_csv(str(path), unit)
        assert type(excinfo.value) is ParseError
        assert str(excinfo.value) == f"{path}: {message}"
        assert (excinfo.value.row, excinfo.value.col) == (row, col)

    # a row number is the CSV record in the file, blank records included
    @pytest.mark.parametrize(
        "text, message, row, col",
        [
            ("A,B\n0.01,0.02\n\n0.03,abc\n", "non-numeric cell 'abc' at row 4, column 2", 4, 2),
            ("A,B\n0.01,0.02\n,\n0.03,inf\n", "non-finite cell at row 4, column 2", 4, 2),
            ("A,B\n0.01,0.02\n\n0.03\n", "row 4 has 1 cells, expected 2", 4, None),
            ("\nA,,B\n0.01,0.02,0.03\n0.03,0.04,0.05\n",
             "blank asset label at row 2, column 2", 2, 2),
            # a quoted line break stays inside its record
            ('date,A,B\n"x\ny",0.01,0.02\n\nz,0.03,abc\n',
             "non-numeric cell 'abc' at row 4, column 3", 4, 3),
        ],
        ids=["non-numeric", "non-finite", "row-length", "blank-label", "quoted-line-break"],
    )
    def test_rows_are_numbered_over_blank_records(self, tmp_path, text, message, row, col):
        path = write_csv(tmp_path, text)
        with pytest.raises(ParseError) as excinfo:
            load_returns_csv(path)
        assert str(excinfo.value) == f"{path}: {message}"
        assert (excinfo.value.row, excinfo.value.col) == (row, col)

    def test_unknown_unit_names_the_input_and_its_values(self, tmp_path):
        path = write_csv(tmp_path, "A,B\n0.01,0.02\n0.03,0.04\n")
        with pytest.raises(InvalidParameter) as excinfo:
            load_returns_csv(path, unit="pct")
        assert str(excinfo.value) == "unit must be one of 'decimal', 'percent', got 'pct'"

    def test_blank_records_are_skipped(self, tmp_path):
        path = write_csv(tmp_path, "\ndate,A,B\n\nx,0.01,0.02\n , \t,\ny,0.03,0.04\n\n")
        r = load_returns_csv(path)
        assert r.period_labels == ("x", "y")
        assert np.array_equal(r.values, [[0.01, 0.02], [0.03, 0.04]])


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
        with pytest.raises(WealthWipeout, match="period 2"):
            compute_wealth([0.1, -1.0, -1.5])

    def test_overflowing_wealth_is_a_data_error(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DataError, match="wealth leaves the float range"):
                compute_wealth([1e200, 1e200])

    def test_overflowing_sharpe_moments_are_a_data_error(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DataError, match="Sharpe ratio leaves the float range"):
                compute_sharpe([1e200, -1e200, 3e200])

    def test_sharpe_of_non_finite_returns_is_a_parameter_error(self):
        # ReturnsMatrix's check and message; NaN once gave a NaN ratio
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(InvalidParameter, match="^returns must be finite$"):
                compute_sharpe([bad, 0.01, 0.02])

    def test_wealth_of_non_finite_returns_is_a_parameter_error(self):
        # Inf once gave the wealth path (inf, inf)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(InvalidParameter, match="^returns must be finite$"):
                compute_wealth([bad, 0.01])


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

    def test_held_asset_losing_more_than_everything_is_a_wipeout(self):
        # the total stays positive, but a negative holding leaves the simplex
        with pytest.raises(WealthWipeout, match="lost more than 100%"):
            market_strategy_step([0.5, 0.5], [-0.2, 1.5])

    def test_non_finite_input_is_a_parameter_error(self):
        # an infinite price relative once divided inf by inf: NaN weights and
        # numpy's bare RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for bad in (np.nan, np.inf, -np.inf):
                with pytest.raises(InvalidParameter, match="^price relatives must be finite$"):
                    market_strategy_step([0.5, 0.5], [bad, 1.0])
                with pytest.raises(InvalidParameter, match="^holdings must be finite$"):
                    market_strategy_step([bad, 0.5], [1.0, 1.0])

    @pytest.mark.parametrize(
        "state, x",
        [
            ([1e200, 1.0], [1e200, 1.0]),
            ([1e300, 1e300], [1e10, 1e10]),
            ([1e308, 1e308], [1.0, 1.0]),
        ],
        ids=["one-product", "every-product", "sum"],
    )
    def test_overflowing_product_is_a_data_error(self, state, x):
        # finite holdings times finite price relatives once overflowed: NaN
        # weights and numpy's bare RuntimeWarning; products that fit but sum
        # past the float range once named a realized return, which the step
        # never computes
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DataError, match="^a drifted holding leaves the float range"):
                market_strategy_step(state, x)


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
        with pytest.raises(WealthWipeout, match="period 3"):
            run_backtest(returns_matrix(values), BacktestConfig(window=2, strategy="one-over-n"))

    def test_market_wipeout_names_its_period(self):
        values = np.array([[0.01, 0.01], [0.02, 0.0], [-1.2, -1.2], [0.0, 0.0]])
        cfg = BacktestConfig(window=2, strategy="market")
        with pytest.raises(WealthWipeout, match="^period 3: "):
            run_backtest(returns_matrix(values), cfg)

    def test_market_holding_below_zero_is_a_wipeout(self):
        values = np.array([[0.01, 0.01], [0.02, 0.0], [-1.2, 0.5], [0.01, 0.0]])
        cfg = BacktestConfig(window=2, strategy="market")
        with pytest.raises(WealthWipeout, match="^period 3: a held asset lost more than 100%"):
            run_backtest(returns_matrix(values), cfg)

    def test_market_holding_wiped_out_in_the_last_period_is_a_wipeout(self):
        # the realized return of the last period stays above -1, but its
        # drift still leaves a holding below zero
        values = np.array([[0.01, 0.01], [0.02, 0.0], [0.01, 0.0], [-1.2, 0.5]])
        cfg = BacktestConfig(window=2, strategy="market")
        with pytest.raises(WealthWipeout, match="^period 4: a held asset lost more than 100%"):
            run_backtest(returns_matrix(values), cfg)

    @pytest.mark.parametrize("strategy", ["one-over-n", "market"])
    def test_overflowing_wealth_is_a_data_error(self, strategy):
        values = np.abs(np.random.default_rng(3).normal(1.0, 0.1, (10, 2))) * 1e100
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DataError, match="float range"):
                run_backtest(returns_matrix(values), BacktestConfig(window=2, strategy=strategy))

    def test_overflowing_realized_return_is_a_data_error(self):
        # equal weights of 1/11 sum to just above 1, so their mix of the
        # largest float overflows
        values = np.full((4, 11), np.finfo(float).max)
        for strategy in ("one-over-n", "market"):
            cfg = BacktestConfig(window=2, strategy=strategy)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with pytest.raises(DataError, match="a realized return leaves the float range"):
                    run_backtest(returns_matrix(values), cfg)

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
        # periods 21..30 are re-optimized; one iteration cannot converge from the start
        assert report.nonconverged_periods == tuple(range(21, 31))
        for strategy in ("one-over-n", "market"):
            other = run_backtest(returns_matrix(values), BacktestConfig(window=20, strategy=strategy))
            assert other.nonconverged_periods == ()

    def test_config_validation(self):
        with pytest.raises(InvalidParameter):
            BacktestConfig(window=1)
        with pytest.raises(InvalidParameter):
            BacktestConfig(eps_hat=0.0)
        with pytest.raises(InvalidParameter) as excinfo:
            BacktestConfig(strategy="momentum")
        message = "strategy must be one of 'srm-pga', 'one-over-n', 'market', got 'momentum'"
        assert str(excinfo.value) == message

    def test_non_finite_eps_rejected(self):
        with pytest.raises(InvalidParameter, match="eps_hat"):
            BacktestConfig(eps_hat=float("inf"))

    def test_window_must_be_integral(self):
        with pytest.raises(InvalidParameter):
            BacktestConfig(window=5.5)
        values = np.random.default_rng(151).normal(0.005, 0.04, size=(8, 3))
        cfg = BacktestConfig(window=np.int64(5), strategy="one-over-n")
        assert run_backtest(returns_matrix(values), cfg).realized_returns.size == 8


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

    def test_csv_rejects_a_wrong_label_count(self, tmp_path):
        # two labels for three weight columns would write a 5-column header
        # over 6-cell rows
        values = np.random.default_rng(3).normal(0.005, 0.04, size=(8, 3))
        report = run_backtest(returns_matrix(values), BacktestConfig(window=5))
        path = tmp_path / "periods.csv"
        with pytest.raises(InvalidParameter, match="2 asset labels for 3 weight columns"):
            report_to_csv(report, path, ["A", "B"])
        with pytest.raises(InvalidParameter, match="4 asset labels for 3 weight columns"):
            report_to_csv(report, path, ["A", "B", "C", "D"])
        # only None defaults to A1..AN; an empty sequence is a count like any other
        for empty in ([], (), np.array([], dtype=str)):
            with pytest.raises(InvalidParameter, match="0 asset labels for 3 weight columns"):
                report_to_csv(report, path, empty)
        assert not path.exists()
        report_to_csv(report, path, ["A", "B", "C"])
        assert {len(line.split(",")) for line in path.read_text().splitlines()} == {6}
        # an array of labels is a sequence like a list, not a truth value
        listed = path.read_bytes()
        report_to_csv(report, path, np.array(["A", "B", "C"]))
        assert path.read_bytes() == listed


    # SHA-256 of each file the writers produced before they took their rows
    # from one tolist(): the report of a run, then the same report with
    # 5e-324, -0.0, 1e300 and whole-number floats in every written field.
    # srm-pga's solves pass through BLAS, so its digests are pinned per
    # OpenBLAS core
    @pytest.mark.parametrize(
        "strategy, digests",
        [
            ("srm-pga", {
                "SkylakeX": (
                    "78a431ef3058825180b362f83a99562fa88b6b7fe32690a7ed2e1c1663aa83d3",
                    "ccf42141fbcf8ad1a5255e25133b3de7f0357b2cbac955ab6e6ffcdd03b297e6",
                    "8508e64b5c106c6d35ee9498904e8aa93423389c145f8735daceac81b58add38",
                    "6f07344478a3deefd5ce22b69099d6ef113f212492f092023c5ddac7afa62d49",
                ),
                "Haswell": (
                    "3f1651b75fcc8a760f633bb5b1df4ccf87f2d76c03d4adc2049dd3da92813662",
                    "ccf42141fbcf8ad1a5255e25133b3de7f0357b2cbac955ab6e6ffcdd03b297e6",
                    "c396122991fbddda79caa7293858cf05b149d340bcab47a48d5af6741964ce03",
                    "6f07344478a3deefd5ce22b69099d6ef113f212492f092023c5ddac7afa62d49",
                ),
                "Nehalem": (
                    "fd201332c13311533c699b5fe87d42e958dc5109ebcf95b95650890e237b5c63",
                    "ccf42141fbcf8ad1a5255e25133b3de7f0357b2cbac955ab6e6ffcdd03b297e6",
                    "e321a629391d122f1a4734d9bd1a4c1be557de3f11f59e2d5ac53ad75fa38fb6",
                    "6f07344478a3deefd5ce22b69099d6ef113f212492f092023c5ddac7afa62d49",
                ),
                **dict.fromkeys(["Sandybridge", "Katmai"], (
                    "68088389e70ba71e2c4f70dc7902ccbc60578e71d1bc5049251006c9997d7ac5",
                    "d38ea958dabb0e0ebec2e0b87c78eb7c1a2e9ca9b678d2a4777e7d617025418f",
                    "d9aaecf352572b1e3dbcf7b5f83099155c68550b5146a9f9074bb6733511d2c6",
                    "6f07344478a3deefd5ce22b69099d6ef113f212492f092023c5ddac7afa62d49",
                )),
            }),
            ("one-over-n", (
                "2146230a6ac256347d20a2fd3bc43e11eca4c2511822e8fdde049e0943e0cf5c",
                "aa159f07f5601d8d5f60f6b684159f7387dc619190466f8d6bd16b4aa98657f9",
                "362ec32266fae26b7f999dc8feb5eaa901fa6c0d13bc43860459abb6ae6bf6b4",
                "d1e06289fc84ae7b5f33500b6921dc85a40118577891ab6cea1cf4a51f89b559",
            )),
            ("market", (
                "402f2687baa92941de73e0adfe4b31be4fa304fd11a5589fb4b13cf8bf3d6d8f",
                "c9bd0e80c5366b653e01742abfde7702c5e79bc7a5e336a5bbcc18a8728f9936",
                "39d841a91e692920171824a01e20a6387a17fd57d5e296a4039f49358ee8615b",
                "f1f4a2d1dacc4130b34389b6ca855c08ef5069c65fb7d70e6327817d0d83a580",
            )),
        ],
    )
    def test_written_bytes_pinned(self, tmp_path, strategy, digests):
        report = run_backtest(AWKWARD_PANEL, BacktestConfig(window=4, strategy=strategy))
        realized = report.realized_returns.copy()
        realized[:4] = [5e-324, -0.0, 1e300, 2.0]
        wealth = report.wealth_path.copy()
        wealth[:3] = [1e300, 3.0, -0.0]
        weights = report.weights_history.copy()
        weights[:2] = [[5e-324, -0.0, 1.0], [1e300, 0.5, 0.0]]
        awkward = dataclasses.replace(
            report,
            realized_returns=realized,
            wealth_path=wealth,
            weights_history=weights,
            sharpe=-0.0,
            final_wealth=1e300,
            eps_hat=5e-324,
        )
        written = []
        for r in (report, awkward):
            report_to_csv(r, tmp_path / "periods.csv", AWKWARD_PANEL.asset_labels)
            report_to_json(r, tmp_path / "report.json")
            written += [(tmp_path / name).read_bytes() for name in ("periods.csv", "report.json")]
        assert_core_pin(tuple(hashlib.sha256(b).hexdigest() for b in written), digests)

    # an existing file is overwritten in place: never cut to zero first, cut
    # to the new length after the write
    WRITERS = [report_to_csv, report_to_json]

    @staticmethod
    def _long_and_short_reports():
        long = run_backtest(AWKWARD_PANEL, BacktestConfig(window=4, strategy="srm-pga"))
        short = run_backtest(SYNTHETIC_6x2, BacktestConfig(window=3, strategy="market"))
        return long, dataclasses.replace(short, sharpe=0.0, final_wealth=1.0, eps_hat=1.0)

    @pytest.mark.parametrize("writer", WRITERS)
    def test_overwrite_with_a_shorter_report_equals_a_fresh_write(self, tmp_path, writer):
        long, short = self._long_and_short_reports()
        path, fresh = tmp_path / "report", tmp_path / "fresh"
        writer(long, path)
        longer = path.read_bytes()
        writer(short, path)
        writer(short, fresh)
        assert len(fresh.read_bytes()) < len(longer)
        assert path.read_bytes() == fresh.read_bytes()

    @pytest.mark.parametrize("writer", WRITERS)
    def test_overwrite_keeps_the_inode_links_and_mode(self, tmp_path, writer):
        # what open(path, "w") keeps, and a writer that unlinks and creates,
        # or renames a temporary file over the path, would not
        long, short = self._long_and_short_reports()
        target, link, alias = tmp_path / "target", tmp_path / "link", tmp_path / "alias"
        writer(long, target)
        os.link(target, link)
        alias.symlink_to(target)
        target.chmod(0o640)
        before = target.stat()
        writer(short, target)
        after = target.stat()
        assert (after.st_ino, after.st_mode) == (before.st_ino, before.st_mode)
        assert link.read_bytes() == target.read_bytes()
        writer(long, alias)
        assert alias.is_symlink()
        assert target.stat().st_ino == before.st_ino
        assert target.read_bytes() == link.read_bytes() == alias.read_bytes()
        writer(long, tmp_path / "fresh")
        assert target.read_bytes() == (tmp_path / "fresh").read_bytes()

    @pytest.mark.parametrize("writer", WRITERS)
    def test_a_device_target_is_written_without_truncation(self, writer):
        # a character device cannot be truncated; the write goes through
        long, _ = self._long_and_short_reports()
        writer(long, os.devnull)

    @pytest.mark.parametrize("writer", WRITERS)
    def test_a_directory_target_raises_what_open_raises(self, tmp_path, writer):
        long, _ = self._long_and_short_reports()
        with pytest.raises(OSError) as expected:
            open(tmp_path, "w")
        with pytest.raises(type(expected.value)):
            writer(long, tmp_path)
        assert tmp_path.is_dir()


def _csv_writer_bytes(report, labels):
    """The report as csv.writer writes it, one row of Python floats at a time."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["period", "realized_return", "wealth"] + [f"w_{a}" for a in labels])
    periods = report.period_labels or [str(t + 1) for t in range(report.realized_returns.size)]
    for t, label in enumerate(periods):
        row = [report.realized_returns[t], report.wealth_path[t], *report.weights_history[t]]
        writer.writerow([label] + [float(x) for x in row])
    return buf.getvalue().encode()


@settings(max_examples=60, deadline=None)
@given(
    periods=st.lists(
        st.one_of(
            st.text(alphabet=' ,"\r\nab\t;\'', max_size=6), st.integers(), st.none(), st.floats()
        ),
        min_size=2,
        max_size=5,
    ),
    cells=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=15, max_size=15),
)
@example(periods=["a\rb", "c"], cells=[5e-324, -0.0, 1e300] * 5)
@example(periods=["a\nb", "c"], cells=[0.0, 2.0, 0.1] * 5)
@example(periods=["", " a", 'say "x"'], cells=[0.0, 2.0, 0.1] * 5)
@example(periods=[None, 3, 1.5], cells=[0.0, 2.0, 0.1] * 5)
def test_csv_equals_csv_writer_rows(tmp_path_factory, periods, cells):
    t = len(periods)
    table = np.resize(np.array(cells), (t, 3))
    report = dataclasses.replace(
        run_backtest(AWKWARD_PANEL, BacktestConfig(window=4, strategy="market")),
        realized_returns=table[:, 0].copy(),
        wealth_path=table[:, 1].copy(),
        weights_history=np.column_stack([table[:, 2], table[:, ::-1][:, :2]]),
        period_labels=tuple(periods),
    )
    path = tmp_path_factory.mktemp("csv") / "periods.csv"
    report_to_csv(report, path, AWKWARD_PANEL.asset_labels)
    assert path.read_bytes() == _csv_writer_bytes(report, AWKWARD_PANEL.asset_labels)


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
