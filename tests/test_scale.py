"""Returns at any scale give an answer or a FracoptError other than NumericalBreakdown,
never a warning or a foreign exception.

Returns N(+-0.3, 1) * 10**k for k from -323 to 308, some with one more column
that repeats the first one rescaled (a Gram matrix singular with T - 1 >= N),
run through ``srm_pga``, ``run_backtest`` under every strategy, and the
``sharpe`` and ``backtest`` commands. The solver is capped at a few
iterations, as in ``test_nonconverged_periods_reported``: two-period windows
at large scales otherwise run the whole iteration budget, and a capped solve
is still an answer to judge.
"""

import contextlib
import io
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import fracopt.backtest
import fracopt.cli
from fracopt.backtest import BacktestConfig, load_returns_csv, run_backtest
from fracopt.cli import main
from fracopt.core import PgaConfig, Status
from fracopt.errors import DataError, FracoptError, InvalidParameter, NumericalBreakdown
from fracopt.sharpe import build_sharpe_model, srm_pga

STRATEGIES = ("srm-pga", "one-over-n", "market")
CAP = PgaConfig(adaptive=True, max_iter=20)


def capped(model):
    return srm_pga(model, CAP)


def outcome(fn):
    """fn's value, or the FracoptError it raised; a RuntimeWarning or other exception propagates.

    A NumericalBreakdown fails: valid returns at any scale give an answer or a data error.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            return fn()
        except FracoptError as exc:
            assert not isinstance(exc, NumericalBreakdown), exc
            return exc


def on_simplex(w):
    return np.all(w >= 0.0) and abs(w.sum() - 1.0) <= 1e-9


def expected_code(lib):
    """The exit code the command line owes for the library's outcome."""
    if isinstance(lib, (DataError, OSError)):
        return 4
    if isinstance(lib, InvalidParameter):
        return 2
    if isinstance(lib, FracoptError):
        return 3
    return None  # an answer: 0, or 3 with one line when a solve did not converge


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    return code, err.getvalue()


def check_cli(argv, lib, converged):
    code, err = run_cli(argv)
    want = expected_code(lib)
    if want is None:
        want = 0 if converged else 3
    assert code == want, (argv, lib, err)
    assert (code == 4) == isinstance(lib, (DataError, OSError))
    if code:
        assert err.count("\n") == 1 and err.endswith("\n"), err
    else:
        assert err == ""


@pytest.fixture
def capped_solver(monkeypatch):
    monkeypatch.setattr(fracopt.backtest, "srm_pga", capped)
    monkeypatch.setattr(fracopt.cli, "srm_pga", capped)


@pytest.mark.usefixtures("capped_solver")
@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    k=st.integers(-323, 308),
    t=st.integers(4, 13),
    n=st.integers(1, 5),
    mean=st.sampled_from([0.3, -0.3]),
    seed=st.integers(0, 2**32 - 1),
    strategy=st.sampled_from(STRATEGIES),
    duplicate=st.sampled_from([None, 1.0, -0.5, 3.0]),
)
@example(k=155, t=10, n=3, mean=0.3, seed=0, strategy="srm-pga", duplicate=None)
@example(k=154, t=10, n=3, mean=0.3, seed=1, strategy="srm-pga", duplicate=None)
@example(k=100, t=10, n=2, mean=0.3, seed=0, strategy="one-over-n", duplicate=None)
@example(k=100, t=10, n=2, mean=0.3, seed=0, strategy="market", duplicate=None)
@example(k=7, t=6, n=5, mean=0.3, seed=3, strategy="srm-pga", duplicate=None)
@example(k=17, t=8, n=4, mean=0.3, seed=2, strategy="srm-pga", duplicate=None)
@example(k=-170, t=6, n=3, mean=0.3, seed=0, strategy="srm-pga", duplicate=None)
@example(k=-320, t=6, n=3, mean=-0.3, seed=0, strategy="market", duplicate=None)
@example(k=308, t=4, n=2, mean=0.3, seed=0, strategy="one-over-n", duplicate=None)
@example(k=100, t=13, n=3, mean=0.3, seed=0, strategy="srm-pga", duplicate=3.0)
@example(k=150, t=13, n=3, mean=0.3, seed=0, strategy="srm-pga", duplicate=-0.5)
def test_every_scale_answers_or_raises_a_fracopt_error(k, t, n, mean, seed, strategy, duplicate):
    with np.errstate(over="ignore"):
        values = np.random.default_rng(seed).normal(mean, 1.0, (t, n)) * 10.0**k
        if duplicate is not None:  # a collinear column: singular Gram matrix with T - 1 >= N
            values = np.column_stack([values, duplicate * values[:, 0]])
    n = values.shape[1]
    with tempfile.TemporaryDirectory() as out:
        path = str(Path(out) / "returns.csv")
        header = ",".join(f"A{j}" for j in range(n))
        np.savetxt(path, values, fmt="%.17g", delimiter=",", header=header, comments="")

        lib = outcome(lambda: capped(build_sharpe_model(load_returns_csv(path))))
        converged = True
        if not isinstance(lib, FracoptError):
            assert on_simplex(lib.weights) and math.isfinite(lib.sharpe)
            converged = lib.result.status is Status.CONVERGED
        check_cli(["sharpe", "--data", path, "--out", out], lib, converged)

        reports = {}
        for s in STRATEGIES:
            cfg = BacktestConfig(window=2, strategy=s)
            rep = reports[s] = outcome(lambda: run_backtest(load_returns_csv(path), cfg))
            if not isinstance(rep, FracoptError):
                assert all(on_simplex(w) for w in rep.weights_history)
                assert np.all(np.isfinite(rep.realized_returns))
                assert np.all(np.isfinite(rep.wealth_path))
                assert math.isfinite(rep.sharpe) and math.isfinite(rep.final_wealth)
        rep = reports[strategy]
        converged = isinstance(rep, FracoptError) or not rep.nonconverged_periods
        argv = ["backtest", "--data", path, "--out", out, "--window", "2", "--strategy", strategy]
        check_cli(argv, rep, converged)
