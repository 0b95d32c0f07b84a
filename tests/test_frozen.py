"""Every fracopt dataclass is frozen: a value checked on construction stays checked."""

import dataclasses

import numpy as np
import pytest

import fracopt
from fracopt.backtest import BacktestConfig, Strategy, run_backtest
from fracopt.core import PgaConfig, pga_solve
from fracopt.dinkelbach import DinkelbachConfig
from fracopt.errors import InvalidParameter
from fracopt.models import Sim1Params, build_sim1
from fracopt.sharpe import build_sharpe_model, returns_matrix, srm_pga

SIM1_B = Sim1Params(np.array([-2.0, -1.0]))
VALUES = np.random.default_rng(5).normal(0.005, 0.04, (12, 3))


def _instances():
    result = pga_solve(build_sim1(SIM1_B), [0.5, 0.5], PgaConfig(record_trace=True))
    report = run_backtest(returns_matrix(VALUES), BacktestConfig(window=4, strategy="one-over-n"))
    return {
        "PgaConfig": (PgaConfig(), "tol", float("nan")),
        "SolveTrace": (result.trace, "ratios", []),
        "SolveResult": (result, "ratio", 0.0),
        "DinkelbachConfig": (DinkelbachConfig(), "max_outer", 0),
        "BacktestConfig": (BacktestConfig(), "strategy", "market"),
        "BacktestReport": (report, "sharpe", 0.0),
        "SrmResult": (srm_pga(build_sharpe_model(returns_matrix(VALUES))), "weights", None),
    }


@pytest.mark.parametrize(
    "name",
    [
        "PgaConfig",
        "SolveTrace",
        "SolveResult",
        "DinkelbachConfig",
        "BacktestConfig",
        "BacktestReport",
        "SrmResult",
    ],
)
def test_assigning_a_field_raises(name):
    obj, field, value = _instances()[name]
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(obj, field, value)


def test_every_public_dataclass_is_frozen():
    # a set: returns_matrix is ReturnsMatrix under a second name
    types = {t for t in vars(fracopt).values() if dataclasses.is_dataclass(t)}
    assert len(types) == 12
    assert all(t.__dataclass_params__.frozen for t in types)


def test_replace_runs_the_checks_again():
    with pytest.raises(InvalidParameter, match="tol"):
        dataclasses.replace(PgaConfig(), tol=float("nan"))
    with pytest.raises(InvalidParameter, match="max_outer"):
        dataclasses.replace(DinkelbachConfig(), max_outer=0)
    cfg = dataclasses.replace(BacktestConfig(window=4), strategy="market")
    assert cfg.strategy is Strategy.MARKET
