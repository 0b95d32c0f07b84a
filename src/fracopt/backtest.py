"""Moving-window portfolio backtest over a matrix of asset returns.

Each period's portfolio is chosen from the trailing ``window`` rows of
history; periods with insufficient history fall back to equal weights.
Three strategies ship: the Sharpe optimizer, per-period equal-weight
rebalancing, and buy-and-hold (equal initial allocation left to drift with
prices, never rebalanced). The report carries the realized return series,
its Sharpe ratio (zero risk-free rate, sample standard deviation), and the
cumulative wealth path starting from 1.
"""

import csv
import enum
import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import Status
from .errors import (
    DegenerateSeries,
    FracoptError,
    InsufficientData,
    InvalidParameter,
    ParseError,
    WealthWipeout,
)
from .sharpe import ReturnsMatrix, build_sharpe_model, srm_pga


class Strategy(str, enum.Enum):
    SRM_PGA = "srm-pga"
    ONE_OVER_N = "one-over-n"
    MARKET = "market"


class ReturnsUnit(str, enum.Enum):
    DECIMAL = "decimal"
    PERCENT = "percent"


@dataclass
class BacktestConfig:
    window: int = 20
    strategy: Strategy = Strategy.SRM_PGA
    eps_hat: float = 1e-4
    returns_unit: ReturnsUnit = ReturnsUnit.DECIMAL

    def __post_init__(self):
        self.strategy = Strategy(self.strategy)
        self.returns_unit = ReturnsUnit(self.returns_unit)
        if self.window < 2:
            raise InvalidParameter(f"window must be >= 2, got {self.window}")
        if not self.eps_hat > 0:
            raise InvalidParameter(f"eps_hat must be positive, got {self.eps_hat}")


@dataclass
class BacktestReport:
    realized_returns: np.ndarray
    sharpe: float
    final_wealth: float
    wealth_path: np.ndarray
    weights_history: np.ndarray
    strategy: Strategy
    window: int
    eps_hat: float
    period_labels: Optional[tuple] = None
    nonconverged_periods: tuple = ()


def load_returns_csv(path, unit=ReturnsUnit.DECIMAL):
    """Read a returns CSV: header of asset labels, optional leading label column.

    Percent input is divided by 100; the returned matrix is always decimal.
    A non-numeric or NaN cell raises ParseError with its 1-based row/column;
    fewer than two data rows raises InsufficientData. The unit is an
    explicit flag on purpose: auto-detecting percent vs decimal would
    silently corrupt every downstream metric by a factor of 100.
    """
    unit = ReturnsUnit(unit)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows = [r for r in rows if r and any(cell.strip() for cell in r)]
    if len(rows) < 3:
        raise InsufficientData(f"{path}: need a header and at least 2 data rows")
    header, data = rows[0], rows[1:]

    # a non-numeric first cell in the first data row marks a label column
    def _is_number(cell):
        try:
            float(cell)
            return True
        except ValueError:
            return False

    has_labels = not _is_number(data[0][0])
    offset = 1 if has_labels else 0
    asset_labels = [h.strip() for h in header[offset:]]
    if not asset_labels:
        raise ParseError(f"{path}: header defines no asset columns", row=1)

    period_labels = [] if has_labels else None
    values = np.empty((len(data), len(asset_labels)))
    for i, row in enumerate(data):
        rownum = i + 2  # 1-based, counting the header
        if len(row) != len(asset_labels) + offset:
            raise ParseError(
                f"{path}: row {rownum} has {len(row)} cells, expected "
                f"{len(asset_labels) + offset}",
                row=rownum,
            )
        if has_labels:
            period_labels.append(row[0].strip())
        for j, cell in enumerate(row[offset:]):
            try:
                x = float(cell)
            except ValueError:
                raise ParseError(
                    f"{path}: non-numeric cell {cell!r} at row {rownum}, column "
                    f"{j + 1 + offset}",
                    row=rownum,
                    col=j + 1 + offset,
                ) from None
            if not math.isfinite(x):
                raise ParseError(
                    f"{path}: non-finite cell at row {rownum}, column {j + 1 + offset}",
                    row=rownum,
                    col=j + 1 + offset,
                )
            values[i, j] = x
    if unit is ReturnsUnit.PERCENT:
        values /= 100.0
    return ReturnsMatrix(values, asset_labels, period_labels)


def compute_sharpe(returns):
    """Mean over sample standard deviation (ddof 1), zero risk-free rate."""
    r = np.asarray(returns, dtype=float)
    if r.size < 2:
        raise InsufficientData(f"need at least 2 returns, got {r.size}")
    std = float(r.std(ddof=1))
    if std == 0.0:
        raise DegenerateSeries("zero sample variance: Sharpe ratio undefined")
    return float(r.mean()) / std


def compute_wealth(returns):
    """Cumulative wealth path from 1; returns (final, path)."""
    r = np.asarray(returns, dtype=float)
    if np.any(r <= -1.0):
        raise WealthWipeout("a period return of -100% or worse wipes out all wealth")
    if r.size == 0:
        return 1.0, np.array([])
    path = np.cumprod(1.0 + r)
    return float(path[-1]), path


def market_strategy_step(state, price_relatives):
    """Drift holdings with prices: (state * x) / sum(state * x), no rebalancing."""
    state = np.asarray(state, dtype=float)
    x = np.asarray(price_relatives, dtype=float)
    held = state * x
    total = float(held.sum())
    if total <= 0.0:
        raise WealthWipeout("drifted portfolio value is non-positive")
    return held / total


def run_backtest(r, cfg):
    """Run one strategy over the full horizon of a returns matrix.

    Periods 1..window have fewer than ``window`` periods of history and use
    equal weights for the window-based strategies; from period window+1 on,
    the Sharpe strategy re-optimizes each period on exactly the trailing
    ``window`` rows. Buy-and-hold ignores the window: it starts equal at
    period 1 and only drifts thereafter. Solver errors are re-raised with
    the 1-based period index prepended; the 1-based indices of periods whose
    solve stopped without converging are listed in
    ``report.nonconverged_periods``.
    """
    values = r.values
    total, n = values.shape
    if total < cfg.window + 1:
        raise InsufficientData(
            f"{total} periods cannot cover window {cfg.window} plus one trading period"
        )
    equal = np.full(n, 1.0 / n)
    weights = np.empty((total, n))
    nonconverged = []

    if cfg.strategy is Strategy.MARKET:
        w = equal
        for t in range(total):
            weights[t] = w
            w = market_strategy_step(w, 1.0 + values[t])
    elif cfg.strategy is Strategy.ONE_OVER_N:
        weights[:] = equal
    else:
        for t in range(total):
            if t < cfg.window:
                weights[t] = equal
                continue
            window_rows = values[t - cfg.window : t]
            try:
                model = build_sharpe_model(
                    ReturnsMatrix(window_rows, r.asset_labels), cfg.eps_hat
                )
                res = srm_pga(model)
            except FracoptError as exc:
                raise type(exc)(f"period {t + 1}: {exc}") from exc
            weights[t] = res.weights
            if res.result.status is not Status.CONVERGED:
                nonconverged.append(t + 1)

    realized = (weights * (1.0 + values)).sum(axis=1) - 1.0
    if np.any(1.0 + realized <= 0.0):
        t_bad = int(np.argmax(1.0 + realized <= 0.0)) + 1
        raise WealthWipeout(f"period {t_bad}: portfolio lost 100% or more")
    final_wealth, path = compute_wealth(realized)
    sharpe = compute_sharpe(realized)
    return BacktestReport(
        realized_returns=realized,
        sharpe=sharpe,
        final_wealth=final_wealth,
        wealth_path=path,
        weights_history=weights,
        strategy=cfg.strategy,
        window=cfg.window,
        eps_hat=cfg.eps_hat,
        period_labels=r.period_labels,
        nonconverged_periods=tuple(nonconverged),
    )


def report_to_json(report, path):
    """Write summary metrics and the config echo as JSON."""
    payload = {
        "strategy": report.strategy.value,
        "window": report.window,
        "eps": report.eps_hat,
        "sharpe": report.sharpe,
        "final_wealth": report.final_wealth,
        "periods": int(report.realized_returns.size),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def report_to_csv(report, path, asset_labels=None):
    """Write the per-period return, wealth, and weights at full precision."""
    n = report.weights_history.shape[1]
    labels = list(asset_labels) if asset_labels else [f"A{j + 1}" for j in range(n)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["period", "realized_return", "wealth"] + [f"w_{a}" for a in labels])
        for t in range(report.realized_returns.size):
            label = report.period_labels[t] if report.period_labels else str(t + 1)
            writer.writerow(
                [label, repr(float(report.realized_returns[t])), repr(float(report.wealth_path[t]))]
                + [repr(float(w)) for w in report.weights_history[t]]
            )
