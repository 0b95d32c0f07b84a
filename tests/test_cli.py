import csv
import hashlib
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import fracopt.backtest
import fracopt.cli
from conftest import assert_core_pin
from fracopt.backtest import compute_sharpe
from fracopt.cli import main
from fracopt.core import PgaConfig
from fracopt.errors import (
    DataError,
    DegenerateModel,
    DegenerateSeries,
    FracoptError,
    InsufficientData,
    NumericalBreakdown,
    ParseError,
    WealthWipeout,
)
from fracopt.sharpe import srm_pga


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_csv(tmp_path, text, name="returns.csv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


SYNTHETIC_CSV = "UP,FLAT\n" + "0.01,0.0\n" * 6

SIM_ARGV = {
    "sim1": ["sim1", "--p", "2,-1"],
    "sim2": ["sim2", "--a0", "100", "--a", "4,2,3,3,2,3"],
}
SIM_RESULT_LINES = {
    "sim1": ["terminal point", "objective", "iterations"],
    "sim2": ["terminal point", "objective", "iterations", "|x1|", "global optimum"],
}


class TestSim1Command:
    def test_vertex_case(self, capsys):
        code, out, _ = run_cli(capsys, "sim1", "--p", "2,-1")
        assert code == 0
        assert "(0.0000, 1.0000)" in out
        iterations = int(out.split("iterations:")[1].split()[0])
        assert 4 <= iterations <= 6

    def test_interior_case(self, capsys):
        code, out, _ = run_cli(capsys, "sim1", "--p", "-2,-1")
        assert code == 0
        assert "(0.6667, 0.3333)" in out

    def test_hypothesis_violation_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "sim1", "--p", "1,1")
        assert code == 2
        assert "error" in err

    def test_malformed_vector_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "sim1", "--p", "1,2,3")
        assert code == 2

    def test_unparsable_vector_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "sim1", "--p", "a,b")
        assert (code, out) == (2, "")
        assert "error: --p: could not parse 'a,b'" in err

    def test_trace_csv(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "sim1", "--p", "2,-1", "--trace", "--out", str(tmp_path)
        )
        assert code == 0
        lines = (tmp_path / "sim1_trace.csv").read_text().strip().splitlines()
        assert lines[0] == "k,x1,x2,objective"
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[1]) == pytest.approx(0.5)

    def test_trace_byte_deterministic(self, capsys, tmp_path):
        blobs = []
        for sub in ("one", "two"):
            out_dir = tmp_path / sub
            out_dir.mkdir()
            code, _, _ = run_cli(
                capsys, "sim1", "--p", "-2,-1", "--trace", "--out", str(out_dir)
            )
            assert code == 0
            blobs.append((out_dir / "sim1_trace.csv").read_bytes())
        assert blobs[0] == blobs[1]


class TestSim2Command:
    def test_benchmark_parameters(self, capsys):
        code, out, _ = run_cli(
            capsys, "sim2", "--a0", "100", "--a", "4,2,3,3,2,3", "--x0", "50,50"
        )
        assert code == 0
        assert "(0.0000, 72.7701)" in out
        assert "global optimum: yes" in out
        iterations = int(out.split("iterations:")[1].split()[0])
        assert iterations <= 60

    def test_boundary_start(self, capsys):
        code, out, _ = run_cli(
            capsys, "sim2", "--a0", "100", "--a", "4,2,3,3,2,3", "--x0", "95,95"
        )
        assert code == 0
        assert "(0.0000, 100.0000)" in out

    def test_condition_violation_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "sim2", "--a0", "100", "--a", "1,2,3,3,1,3")
        assert code == 2

    def test_infinite_coefficient_exits_2(self, capsys):
        # rejected before any arithmetic on it: no warning and no solve
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "sim2", "--a0", "100", "--a", "4,2,inf,3,2,inf")
        assert code == 2
        assert out == ""
        assert err == "error: a3 must be positive and finite, got inf\n"

    def test_output_lines_in_order(self, capsys):
        code, out, err = run_cli(capsys, *SIM_ARGV["sim2"])
        assert code == 0
        assert err == ""
        assert [line.split(":")[0] for line in out.splitlines()] == SIM_RESULT_LINES["sim2"]

    def test_trace_csv(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, *SIM_ARGV["sim2"], "--trace", "--out", str(tmp_path))
        assert code == 0
        path = tmp_path / "sim2_trace.csv"
        assert out.splitlines()[-1] == f"trace written:  {path}"
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "k,x1,x2,objective"
        assert [float(v) for v in lines[1].split(",")[1:3]] == [50.0, 50.0]
        iterations = int(out.split("iterations:")[1].split()[0])
        assert len(lines) == iterations + 2


@pytest.mark.parametrize("command", ["sim1", "sim2"])
class TestSimCommands:
    def test_no_trace_file_without_flag(self, capsys, tmp_path, command):
        code, out, _ = run_cli(capsys, *SIM_ARGV[command], "--out", str(tmp_path))
        assert code == 0
        assert "trace written:" not in out
        assert list(tmp_path.iterdir()) == []

    def test_iteration_budget_exits_3(self, capsys, command):
        code, out, err = run_cli(capsys, *SIM_ARGV[command], "--max-iter", "3")
        assert code == 3
        assert [line.split(":")[0] for line in out.splitlines()] == SIM_RESULT_LINES[command]
        assert "iterations:     3" in out
        assert err == "solver did not converge within the iteration budget\n"

    def test_non_finite_tol_exits_2(self, capsys, command):
        code, out, err = run_cli(capsys, *SIM_ARGV[command], "--tol", "inf")
        assert code == 2
        assert out == ""
        assert err.startswith("error: tol must be positive and finite")

    def test_step_above_bound_exits_2(self, capsys, command):
        code, out, err = run_cli(capsys, *SIM_ARGV[command], "--alpha-frac", "1.5")
        assert code == 2
        assert out == ""
        assert err.startswith("error: alpha = ")



class TestCachedParser:
    """main parses with one parser per process; no call leaves state for the next."""

    def test_trace_flag_does_not_carry_over(self, capsys, tmp_path):
        traced, plain = tmp_path / "d1", tmp_path / "d2"
        traced.mkdir()
        plain.mkdir()
        code, _, _ = run_cli(capsys, *SIM_ARGV["sim1"], "--trace", "--out", str(traced))
        assert code == 0
        assert [p.name for p in traced.iterdir()] == ["sim1_trace.csv"]
        code, out, _ = run_cli(capsys, *SIM_ARGV["sim1"], "--out", str(plain))
        assert code == 0
        assert "trace written:" not in out
        assert list(plain.iterdir()) == []

    @pytest.mark.parametrize(
        "bad",
        [["sim1"], ["sim2", "--a0", "wide", "--a", "4,2,3,3,2,3"], ["sim1", "--p", "2,-1", "-z"]],
        ids=["missing-flag", "bad-type", "unknown-flag"],
    )
    def test_usage_error_then_valid_call(self, capsys, monkeypatch, bad):
        # a parser built for this call alone gives the first-call output
        monkeypatch.setattr(fracopt.cli, "_parser", None)
        first = run_cli(capsys, *SIM_ARGV["sim1"])
        code, out, err = run_cli(capsys, *bad)
        assert code == 2
        assert out == "" and err.startswith("usage: fracopt")
        assert run_cli(capsys, *SIM_ARGV["sim1"]) == first
        assert first[0] == 0

    def test_each_command_gets_its_own_defaults(self, capsys, monkeypatch):
        seen = []

        def recording_solve(problem, x0, cfg):
            seen.append((cfg.tol, tuple(x0)))
            return solve(problem, x0, cfg)

        solve = fracopt.cli.pga_solve
        monkeypatch.setattr(fracopt.cli, "pga_solve", recording_solve)
        for command in ("sim1", "sim2", "sim1", "sim2"):
            code, _, _ = run_cli(capsys, *SIM_ARGV[command])
            assert code == 0
        sim1, sim2 = (1e-5, (0.5, 0.5)), (1e-7, (50.0, 50.0))
        assert seen == [sim1, sim2, sim1, sim2]

    def test_handler_is_looked_up_when_called(self, capsys, monkeypatch):
        assert run_cli(capsys, *SIM_ARGV["sim1"])[0] == 0  # the parser is built
        calls = []

        def handler(args):
            calls.append(args.p)
            return 7

        monkeypatch.setattr(fracopt.cli, "cmd_sim1", handler)
        assert run_cli(capsys, *SIM_ARGV["sim1"]) == (7, "", "")
        assert calls == ["2,-1"]

class TestSharpeCommand:
    def test_constant_returns_pick_higher_mean(self, capsys, tmp_path):
        # one losing asset: the optimum is all-in on the profitable one
        data = write_csv(tmp_path, "HIGH,LOW\n" + "0.01,-0.02\n" * 4)
        code, out, _ = run_cli(capsys, "sharpe", "--data", data, "--out", str(tmp_path))
        assert code == 0
        assert "HIGH: 1.0000" in out
        assert "LOW: 0.0000" in out
        payload = json.loads((tmp_path / "sharpe_result.json").read_text())
        assert payload["weights"][0] == pytest.approx(1.0, abs=1e-4)
        assert payload["global_certificate"] is True

    def test_all_positive_means_diversify(self, capsys, tmp_path):
        # both means positive: the optimum splits proportionally to the means
        data = write_csv(tmp_path, "A,B\n" + "0.01,0.03\n" * 4)
        code, _, _ = run_cli(capsys, "sharpe", "--data", data, "--out", str(tmp_path))
        assert code == 0
        payload = json.loads((tmp_path / "sharpe_result.json").read_text())
        assert np.allclose(payload["weights"], [0.25, 0.75], atol=1e-4)

    def test_single_asset(self, capsys, tmp_path):
        data = write_csv(tmp_path, "ONLY\n0.01\n0.02\n0.03\n")
        code, out, _ = run_cli(capsys, "sharpe", "--data", data, "--out", str(tmp_path))
        assert code == 0
        assert "ONLY: 1.0000" in out

    def test_percent_unit_rescales_objective_not_argmax(self, capsys, tmp_path):
        decimal = write_csv(tmp_path, "A,B\n" + "0.01,0.03\n" * 4, "dec.csv")
        scaled = write_csv(tmp_path, "A,B\n" + "1.0,3.0\n" * 4, "pct.csv")

        def solve(data, unit):
            code, _, _ = run_cli(
                capsys, "sharpe", "--data", data, "--unit", unit, "--out", str(tmp_path)
            )
            assert code == 0
            return json.loads((tmp_path / "sharpe_result.json").read_text())

        dec = solve(decimal, "decimal")
        pct = solve(scaled, "percent")  # same data through the percent path
        raw = solve(scaled, "decimal")  # mean vector scaled by 100
        assert np.allclose(dec["weights"], pct["weights"], atol=1e-6)
        assert dec["sharpe"] == pytest.approx(pct["sharpe"], rel=1e-9)
        # uniform positive scaling of a zero-variance model scales the
        # objective but preserves the optimal weights
        assert np.allclose(raw["weights"], dec["weights"], atol=1e-4)
        assert raw["sharpe"] == pytest.approx(100.0 * dec["sharpe"], rel=1e-6)

    def test_missing_file_exits_4(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "sharpe", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path)
        )
        assert code == 4
        assert "error" in err

    def test_bad_cell_exits_4(self, capsys, tmp_path):
        data = write_csv(tmp_path, "A,B\n0.01,zap\n0.02,0.0\n")
        code, _, _ = run_cli(capsys, "sharpe", "--data", data, "--out", str(tmp_path))
        assert code == 4

    def test_undecodable_bytes_exit_4(self, capsys, tmp_path):
        data = tmp_path / "returns.csv"
        data.write_bytes(b"A,B\n0.01,\xff\xfe\n0.02,0.0\n")
        code, _, err = run_cli(capsys, "sharpe", "--data", str(data), "--out", str(tmp_path))
        assert code == 4
        assert err.startswith("error: ") and "returns.csv" in err

    def test_pandas_index_column_is_not_an_asset(self, capsys, tmp_path):
        data = write_csv(tmp_path, ",HIGH,LOW\n" + "".join(f"{k},0.01,-0.02\n" for k in range(4)))
        code, _, _ = run_cli(capsys, "sharpe", "--data", data, "--out", str(tmp_path))
        assert code == 0
        payload = json.loads((tmp_path / "sharpe_result.json").read_text())
        assert payload["assets"] == ["HIGH", "LOW"]

    def test_byte_order_mark_stays_out_of_the_asset_labels(self, capsys, tmp_path):
        # Excel's "CSV UTF-8" export starts the file with a byte-order mark
        data = tmp_path / "returns.csv"
        data.write_bytes(b"\xef\xbb\xbfA,B\n0.01,0.02\n0.03,-0.01\n0.02,0.01\n")
        code, out, _ = run_cli(capsys, "sharpe", "--data", str(data), "--out", str(tmp_path))
        assert code == 0
        assert "\ufeff" not in out
        payload = json.loads((tmp_path / "sharpe_result.json").read_text())
        assert payload["assets"] == ["A", "B"]

    def test_named_year_column_is_not_an_asset(self, capsys, tmp_path):
        data = write_csv(tmp_path, "year,A,B\n1990,0.01,0.02\n1991,0.03,0.01\n1992,0.02,0.02\n")
        code, _, _ = run_cli(capsys, "sharpe", "--data", data, "--out", str(tmp_path))
        assert code == 0
        payload = json.loads((tmp_path / "sharpe_result.json").read_text())
        assert payload["assets"] == ["A", "B"]
        assert len(payload["weights"]) == 2

    def test_blank_asset_label_exit_4(self, capsys, tmp_path):
        data = write_csv(tmp_path, "A,,B\n0.01,0.02,0.03\n0.02,0.0,0.01\n")
        code, _, err = run_cli(capsys, "sharpe", "--data", data, "--out", str(tmp_path))
        assert code == 4
        assert err.startswith("error: ") and "blank asset label" in err

    def test_all_zero_means_exit_4(self, capsys, tmp_path):
        # DegenerateModel: the step bound is undefined when every mean is zero
        data = write_csv(tmp_path, "A,B\n0.01,-0.02\n-0.01,0.02\n")
        code, _, err = run_cli(capsys, "sharpe", "--data", data, "--out", str(tmp_path))
        assert code == 4
        assert "error: all-zero mean returns" in err

    def test_overflowing_step_bound_exits_4(self, capsys, tmp_path):
        # a data error, not a usage one: the step bound is derived from the returns
        path = tmp_path / "huge.csv"
        values = np.random.default_rng(0).normal(0.0, 1e150, (10, 3))
        np.savetxt(path, values, delimiter=",", header="A,B,C", comments="")
        code, _, err = run_cli(capsys, "sharpe", "--data", str(path), "--out", str(tmp_path))
        assert code == 4
        assert err == "error: step bound 0.0 is not positive and finite\n"

    def test_ascii_locale_prints_and_writes_the_utf8_bytes(self, tmp_path):
        # the weights print with their UTF-8 labels whatever the locale: under
        # C with UTF-8 mode off, a non-ASCII label once raised UnicodeEncodeError
        # before sharpe_result.json was written
        data = tmp_path / "returns.csv"
        data.write_bytes(
            "period,café,日本\n1,0.01,0.02\n2,0.03,-0.01\n3,0.02,0.01\n4,-0.01,0.03\n".encode()
        )
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        package_root = os.path.dirname(os.path.dirname(fracopt.cli.__file__))
        argv = ["sharpe", "--data", str(data), "--out", str(out_dir)]
        blobs = []
        for env in ({"LC_ALL": "C", "PYTHONUTF8": "0"}, {"LC_ALL": "C.UTF-8"}):
            env = dict(os.environ, **env)
            env.pop("PYTHONIOENCODING", None)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
            result = out_dir / "sharpe_result.json"
            if result.exists():
                result.unlink()
            done = subprocess.run(
                [sys.executable, "-m", "fracopt.cli", *argv], env=env, capture_output=True
            )
            assert done.returncode == 0, done.stderr
            blobs.append((done.stdout, result.read_bytes()))
        assert blobs[0] == blobs[1]
        assert "  café: ".encode() in blobs[0][0]
        assert json.loads(blobs[0][1])["assets"] == ["café", "日本"]


class TestBacktestCommand:
    def test_equal_weight_sharpe_matches_row_means(self, capsys, tmp_path):
        rng = np.random.default_rng(151)
        values = rng.uniform(-0.03, 0.05, size=(10, 3))
        rows = "\n".join(",".join(f"{v:.10f}" for v in row) for row in values)
        data = write_csv(tmp_path, "A,B,C\n" + rows + "\n")
        code, out, _ = run_cli(
            capsys,
            "backtest", "--data", data, "--strategy", "one-over-n",
            "--window", "4", "--out", str(tmp_path),
        )
        assert code == 0
        loaded = np.array([[float(c) for c in line.split(",")] for line in rows.splitlines()])
        expected = compute_sharpe(loaded.mean(axis=1))
        payload = json.loads((tmp_path / "backtest_report.json").read_text())
        assert payload["sharpe"] == pytest.approx(expected, rel=1e-9)

    def test_market_equals_equal_weight_on_identical_columns(self, capsys, tmp_path):
        rng = np.random.default_rng(157)
        col = rng.uniform(-0.02, 0.04, size=9)
        rows = "\n".join(f"{v:.10f},{v:.10f}" for v in col)
        data = write_csv(tmp_path, "A,B\n" + rows + "\n")
        results = {}
        for strategy in ("market", "one-over-n"):
            code, _, _ = run_cli(
                capsys,
                "backtest", "--data", data, "--strategy", strategy,
                "--window", "3", "--out", str(tmp_path),
            )
            assert code == 0
            results[strategy] = json.loads((tmp_path / "backtest_report.json").read_text())
        assert results["market"]["sharpe"] == pytest.approx(
            results["one-over-n"]["sharpe"], rel=1e-12
        )
        assert results["market"]["final_wealth"] == pytest.approx(
            results["one-over-n"]["final_wealth"], rel=1e-12
        )

    def test_optimizer_compounds_vertex_returns(self, capsys, tmp_path):
        data = write_csv(tmp_path, SYNTHETIC_CSV)
        code, out, _ = run_cli(
            capsys,
            "backtest", "--data", data, "--strategy", "srm-pga",
            "--window", "3", "--out", str(tmp_path),
        )
        assert code == 0
        payload = json.loads((tmp_path / "backtest_report.json").read_text())
        assert payload["final_wealth"] == pytest.approx(1.005**3 * 1.01**3, abs=2e-4)
        assert (tmp_path / "backtest_periods.csv").exists()

    def test_window_too_large_exits_4(self, capsys, tmp_path):
        data = write_csv(tmp_path, SYNTHETIC_CSV)
        code, _, _ = run_cli(
            capsys,
            "backtest", "--data", data, "--window", "10", "--out", str(tmp_path),
        )
        assert code == 4

    def test_nonconverged_periods_exit_3(self, capsys, tmp_path, monkeypatch):
        def truncated(model):
            return srm_pga(model, PgaConfig(adaptive=True, max_iter=1))

        monkeypatch.setattr(fracopt.backtest, "srm_pga", truncated)
        values = np.random.default_rng(151).normal(0.005, 0.04, size=(30, 6))
        rows = "\n".join(",".join(repr(float(v)) for v in row) for row in values)
        data = write_csv(tmp_path, "A,B,C,D,E,F\n" + rows + "\n")
        code, out, err = run_cli(
            capsys,
            "backtest", "--data", data, "--strategy", "srm-pga",
            "--window", "20", "--out", str(tmp_path),
        )
        # periods 21..30 are re-optimized; one iteration cannot converge from the start
        assert code == 3
        periods = ", ".join(str(t) for t in range(21, 31))
        assert f"warning: periods {periods} did not converge" in err.splitlines()
        payload = json.loads((tmp_path / "backtest_report.json").read_text())
        assert payload["strategy"] == "srm-pga"
        assert payload["periods"] == 30
        assert (tmp_path / "backtest_periods.csv").read_text().startswith("period")
        assert "report:" in out

    def test_deterministic_outputs(self, capsys, tmp_path):
        data = write_csv(tmp_path, SYNTHETIC_CSV)
        blobs = []
        for sub in ("run1", "run2"):
            out_dir = tmp_path / sub
            out_dir.mkdir()
            code, _, _ = run_cli(
                capsys,
                "backtest", "--data", data, "--strategy", "srm-pga",
                "--window", "3", "--out", str(out_dir),
            )
            assert code == 0
            blobs.append(
                (out_dir / "backtest_report.json").read_bytes()
                + (out_dir / "backtest_periods.csv").read_bytes()
            )
        assert blobs[0] == blobs[1]

    def test_ascii_locale_writes_the_utf8_bytes(self, tmp_path):
        # the reports are UTF-8 like the input, whatever the locale: under C
        # with UTF-8 mode off, non-ASCII labels once raised UnicodeEncodeError
        data = tmp_path / "returns.csv"
        data.write_bytes(
            "period,café,日本\n1,0.01,0.02\n2,0.03,-0.01\n3,0.02,0.01\n4,-0.01,0.03\n".encode()
        )
        package_root = os.path.dirname(os.path.dirname(fracopt.cli.__file__))
        blobs = []
        for name, env in (
            ("ascii", {"LC_ALL": "C", "PYTHONUTF8": "0"}),
            ("utf8", {"LC_ALL": "C.UTF-8"}),
        ):
            out_dir = tmp_path / name
            out_dir.mkdir()
            env = dict(os.environ, **env)
            env.pop("PYTHONIOENCODING", None)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
            argv = ["backtest", "--data", str(data), "--window", "2", "--out", str(out_dir)]
            done = subprocess.run(
                [sys.executable, "-m", "fracopt.cli", *argv], env=env, capture_output=True
            )
            assert done.returncode == 0, done.stderr
            blobs.append(
                [(out_dir / f).read_bytes() for f in ("backtest_report.json", "backtest_periods.csv")]
            )
        assert blobs[0] == blobs[1]
        assert blobs[0][1].startswith("period,realized_return,wealth,w_café,w_日本\r\n".encode())


def _seeded_panel_csv(path):
    """A 40 x 5 returns file whose header CSV and JSON must both escape."""
    values = np.random.default_rng(24).normal(0.01, 0.04, (40, 5)).tolist()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["period", "A", 'B "x"', "C, Inc", "Ü", "E"])
        writer.writerows([f"t{k}", *map(repr, row)] for k, row in enumerate(values))
    return str(path)


class TestWrittenBytesPinned:
    # SHA-256 of each file the CLI wrote while it kept its own CSV and JSON
    # writers beside the report writers
    @pytest.mark.parametrize(
        "argv, name, digest",
        [
            (
                ["sim1", "--p", "-2,-1"],
                "sim1_trace.csv",
                "a08bab50b999dcd7c583874e230b20ca2265d52b6ed5a2c93971f887662e713c",
            ),
            (
                ["sim2", "--a0", "100", "--a", "4,2,3,3,2,3"],
                "sim2_trace.csv",
                "fa3ade7a86a82554c7c2ad690b638042371b8993a320a784637f4ab16bb9f2a9",
            ),
        ],
        ids=["sim1", "sim2"],
    )
    def test_trace_bytes_pinned(self, capsys, tmp_path, argv, name, digest):
        code, _, _ = run_cli(capsys, *argv, "--trace", "--out", str(tmp_path))
        assert code == 0
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest

    # the decimal solve's weights pass through BLAS, so its digest is pinned
    # per OpenBLAS core; the id keeps the SkylakeX digest it was named by
    @pytest.mark.parametrize(
        "unit, digest",
        [
            pytest.param(
                "decimal",
                {
                    "SkylakeX": "3dbd007e4ac80b7e36c415d8409ac709fed57e9529f7d178dfd75a4bd52f6bfa",
                    **dict.fromkeys(
                        ["Haswell", "Nehalem", "Katmai"],
                        "d32027c5eeb23c4e33249cf50d531233e93f9b99ab43a95b2f908b3b6dc4de25",
                    ),
                    "Sandybridge": (
                        "5fd8722e6b11b1ebfe23e86cc611759198c8605e671038103ea0c6ff46631552"
                    ),
                },
                id="decimal-3dbd007e4ac80b7e36c415d8409ac709fed57e9529f7d178dfd75a4bd52f6bfa",
            ),
            ("percent", "cd67d55c4d8e21fb9811f04be898c0b1755c5ae49a2c4f3cb48013d6aca64f69"),
        ],
    )
    def test_sharpe_result_bytes_pinned(self, capsys, tmp_path, unit, digest):
        data = _seeded_panel_csv(tmp_path / "panel.csv")
        code, _, _ = run_cli(
            capsys, "sharpe", "--data", data, "--unit", unit, "--out", str(tmp_path)
        )
        assert code == 0
        written = (tmp_path / "sharpe_result.json").read_bytes()
        assert_core_pin(hashlib.sha256(written).hexdigest(), digest)


FILE_ARGV = {
    "sim1": ["sim1", "--p", "-2,-1", "--trace"],
    "sharpe": ["sharpe"],
    "backtest": ["backtest", "--window", "3"],
}


class TestFileErrors:
    """Operating-system errors on --data and --out are data errors: exit 4, no traceback."""

    def argv(self, tmp_path, command):
        argv = list(FILE_ARGV[command])
        if command != "sim1":
            argv += ["--data", write_csv(tmp_path, SYNTHETIC_CSV)]
        return argv

    @pytest.mark.parametrize("command", list(FILE_ARGV))
    def test_out_naming_a_file_exits_4(self, capsys, tmp_path, command):
        not_a_dir = tmp_path / "plain.txt"
        not_a_dir.write_text("")
        code, _, err = run_cli(capsys, *self.argv(tmp_path, command), "--out", str(not_a_dir))
        assert code == 4
        assert err.startswith("error: ")

    @pytest.mark.parametrize("command", ["sharpe", "backtest"])
    def test_data_naming_a_directory_exits_4(self, capsys, tmp_path, command):
        argv = FILE_ARGV[command] + ["--data", str(tmp_path)]
        code, _, err = run_cli(capsys, *argv, "--out", str(tmp_path))
        assert code == 4
        assert err.startswith("error: ")

    @pytest.mark.skipif(
        not hasattr(os, "geteuid") or os.geteuid() == 0,
        reason="file permissions do not bind the superuser",
    )
    @pytest.mark.parametrize("command", list(FILE_ARGV))
    def test_unwritable_out_exits_4(self, capsys, tmp_path, command):
        argv = self.argv(tmp_path, command)
        locked = tmp_path / "locked"
        locked.mkdir()
        locked.chmod(0o500)
        try:
            code, _, err = run_cli(capsys, *argv, "--out", str(locked))
        finally:
            locked.chmod(0o700)
        assert code == 4
        assert err.startswith("error: ")


class TestExitCategories:
    """The class of the error sets the exit code: 2 usage, 3 solver, 4 data."""

    @pytest.mark.parametrize(
        "cls", [ParseError, InsufficientData, DegenerateSeries, DegenerateModel, WealthWipeout]
    )
    def test_data_classes_share_one_base(self, cls):
        assert issubclass(cls, DataError)

    @pytest.mark.parametrize(
        "error, code", [(DataError, 4), (NumericalBreakdown, 3), (FracoptError, 3)]
    )
    def test_code_follows_the_class(self, capsys, tmp_path, monkeypatch, error, code):
        def raises(*args):
            raise error("boom")

        monkeypatch.setattr(fracopt.cli, "build_sharpe_model", raises)
        data = write_csv(tmp_path, SYNTHETIC_CSV)
        got, _, err = run_cli(capsys, "sharpe", "--data", data, "--out", str(tmp_path))
        assert got == code
        assert err.count("\n") == 1 and err.endswith("boom\n")

    def test_overflowing_gram_exits_4_without_warning(self, capsys, tmp_path):
        path = tmp_path / "huge.csv"
        values = np.random.default_rng(0).normal(0.3, 1.0, (10, 3)) * 1e155
        np.savetxt(path, values, delimiter=",", header="A,B,C", comments="")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, _, err = run_cli(capsys, "sharpe", "--data", str(path), "--out", str(tmp_path))
        assert code == 4
        assert err.startswith("error: ") and err.count("\n") == 1 and "float range" in err

    def test_singular_gram_lost_to_rounding_exits_4(self, capsys, tmp_path):
        # a two-period window of five assets at 1e7: w.Q.w can round below zero
        path = tmp_path / "wide.csv"
        values = np.random.default_rng(3).normal(0.3, 1.0, (6, 5)) * 1e7
        np.savetxt(path, values, delimiter=",", header="A,B,C,D,E", comments="")
        argv = ["backtest", "--data", str(path), "--out", str(tmp_path), "--window", "2"]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, _, err = run_cli(capsys, *argv)
        assert code == 4
        assert err.startswith("error: period 3: ") and err.count("\n") == 1 and "eps_hat" in err

    def test_large_returns_solve_with_a_certificate(self, capsys, tmp_path):
        # the adaptive steps scale with the returns, so 1e18 solves as unit returns do
        path = tmp_path / "large.csv"
        values = np.random.default_rng(0).normal(0.3, 1.0, (60, 8)) * 1e18
        np.savetxt(path, values, delimiter=",", header="A,B,C,D,E,F,G,H", comments="")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, _, err = run_cli(capsys, "sharpe", "--data", str(path), "--out", str(tmp_path))
        assert (code, err) == (0, "")
        assert json.loads((tmp_path / "sharpe_result.json").read_text())["global_certificate"]

    def test_overflowing_wealth_exits_4_without_writing_a_report(self, capsys, tmp_path):
        path = tmp_path / "huge.csv"
        values = np.abs(np.random.default_rng(0).normal(1.0, 0.1, (10, 2))) * 1e100
        np.savetxt(path, values, delimiter=",", header="A,B", comments="")
        argv = ["backtest", "--data", str(path), "--out", str(tmp_path), "--window", "2"]
        argv += ["--strategy", "one-over-n"]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, _, err = run_cli(capsys, *argv)
        assert code == 4
        assert err.startswith("error: ") and err.count("\n") == 1 and "float range" in err
        assert not (tmp_path / "backtest_report.json").exists()


class TestUsage:
    @pytest.mark.parametrize("command", ["sharpe", "backtest"])
    def test_non_finite_eps_exits_2(self, capsys, tmp_path, command):
        data = write_csv(tmp_path, SYNTHETIC_CSV)
        argv = FILE_ARGV[command] + ["--data", data, "--out", str(tmp_path), "--eps", "inf"]
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert err.startswith("error: eps_hat must be positive and finite")

    def test_no_command_exits_2(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_unknown_strategy_exits_2(self, capsys, tmp_path):
        data = write_csv(tmp_path, SYNTHETIC_CSV)
        code, _, _ = run_cli(
            capsys, "backtest", "--data", data, "--strategy", "alpha-gen"
        )
        assert code == 2


@pytest.mark.parametrize(
    "argv, code",
    [
        (SIM_ARGV["sim1"], 0),
        (["sim1", "--p", "1,1"], 2),
        ([*SIM_ARGV["sim2"], "--max-iter", "1"], 3),
        (["sharpe", "--data", "."], 4),
    ],
    ids=["ok", "usage", "solver", "data"],
)
def test_module_entry_exits_with_mains_code(tmp_path, argv, code):
    # `python -m fracopt.cli` reads sys.argv and exits with main's code, in a
    # fresh interpreter where a RuntimeWarning is an error; "." is the working
    # directory, a directory given as --data
    env = dict(os.environ, PYTHONWARNINGS="error::RuntimeWarning")
    package_root = os.path.dirname(os.path.dirname(fracopt.cli.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "fracopt.cli", *argv], env=env, cwd=tmp_path, capture_output=True
    )
    assert done.returncode == code, done.stderr
