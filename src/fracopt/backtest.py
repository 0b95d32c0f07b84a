"""Moving-window portfolio backtest over a matrix of asset returns.

Each period's portfolio is chosen from the trailing ``window`` rows of
history; periods with insufficient history fall back to equal weights.
Three strategies ship: the Sharpe optimizer, per-period equal-weight
rebalancing, and buy-and-hold (equal initial allocation left to drift with
prices, never rebalanced). The report carries the realized return series,
its Sharpe ratio (zero risk-free rate, sample standard deviation), and the
cumulative wealth path starting from 1. A realized return, wealth or Sharpe
ratio beyond the float range raises DataError, as does a loss beyond 100%
on a market holding (WealthWipeout).
"""

import csv
import enum
import io
import json
import math
import os
import re
import stat
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import Status
from .errors import (
    DataError,
    DegenerateSeries,
    FracoptError,
    InsufficientData,
    InvalidParameter,
    ParseError,
    WealthWipeout,
)
from .linalg import choice, finite, integer, positive
from .sharpe import _EPS_HAT, ReturnsMatrix, build_sharpe_model, srm_pga


# what makes csv.writer quote a string cell under its default dialect
_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


class Strategy(str, enum.Enum):
    SRM_PGA = "srm-pga"
    ONE_OVER_N = "one-over-n"
    MARKET = "market"


class ReturnsUnit(str, enum.Enum):
    DECIMAL = "decimal"
    PERCENT = "percent"


@dataclass(frozen=True)
class BacktestConfig:
    window: int = 20
    strategy: Strategy = Strategy.SRM_PGA
    eps_hat: float = _EPS_HAT

    def __post_init__(self):
        object.__setattr__(self, "strategy", choice("strategy", Strategy, self.strategy))
        integer("window", self.window, minimum=2)
        positive("eps_hat", self.eps_hat)


@dataclass(frozen=True)
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

    The first column holds period labels when its header cell is blank (the
    index column pandas writes), when its first data cell is not a number,
    or when other columns follow and it holds strictly increasing integers
    that are consecutive (period indices) or all at least 1000 (years,
    yyyymm and yyyymmdd dates); other integer columns are returns. Percent
    input is divided by 100; the returned matrix is always decimal. The file
    is read as UTF-8; a leading byte-order mark is skipped.
    Undecodable bytes, a malformed CSV line or a blank asset label raise
    ParseError; so does the first row of the wrong length or non-numeric or
    non-finite cell in row-major order, with its 1-based row (the CSV
    record, blank records counted) and column; fewer than two data rows
    raises InsufficientData. The unit is an explicit flag on purpose:
    auto-detecting percent vs decimal would silently corrupt every
    downstream metric by a factor of 100.
    """
    unit = choice("unit", ReturnsUnit, unit)
    try:
        # utf-8-sig drops the byte-order mark that spreadsheets' CSV UTF-8 export writes
        with open(path, newline="", encoding="utf-8-sig") as fh:
            # a row number is the 1-based CSV record, blank records included;
            # a record is blank when its cells hold only whitespace
            records = [
                (rownum, r)
                for rownum, r in enumerate(csv.reader(fh), start=1)
                if "".join(r).strip()
            ]
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ParseError(f"{path}: not a readable CSV text file ({exc})") from exc
    if len(records) < 3:
        raise InsufficientData(f"{path}: need a header and at least 2 data rows")
    (header_row, header), data = records[0], [r for _, r in records[1:]]

    def _is_number(cell):
        try:
            float(cell)
            return True
        except ValueError:
            return False

    def _period_integers(cells):
        try:
            ints = [int(cell) for cell in cells]
        except ValueError:
            return False
        increasing = all(a < b for a, b in zip(ints, ints[1:]))
        return increasing and (ints[0] >= 1000 or ints[-1] - ints[0] == len(ints) - 1)

    has_labels = (
        not header[0].strip()
        or not _is_number(data[0][0])
        or (len(header) > 1 and _period_integers(row[0] for row in data))
    )
    offset = 1 if has_labels else 0
    asset_labels = [h.strip() for h in header[offset:]]
    if not asset_labels:
        raise ParseError(f"{path}: header defines no asset columns", row=header_row)
    if "" in asset_labels:
        col = asset_labels.index("") + 1 + offset
        raise ParseError(
            f"{path}: blank asset label at row {header_row}, column {col}", row=header_row, col=col
        )

    period_labels = [row[0].strip() for row in data] if has_labels else None
    # ReturnsMatrix is the one check of a valid file's shape and finiteness; a
    # file that fails to parse (ValueError) or that check is read again, cell
    # by cell, for its first bad cell
    try:
        values = np.array([list(map(float, row[offset:])) for row in data])
        if unit is ReturnsUnit.PERCENT:
            values /= 100.0
        return ReturnsMatrix(values, asset_labels, period_labels)
    except (ValueError, FracoptError):
        raise _first_bad_cell(path, records[1:], offset, len(asset_labels) + offset) from None


def _first_bad_cell(path, records, offset, width):
    """The ParseError of the first bad row or cell in row-major order.

    A row with the wrong number of cells is reported before its cells; a
    cell is bad when it is not a number or not finite.
    """
    for rownum, row in records:
        if len(row) != width:
            return ParseError(
                f"{path}: row {rownum} has {len(row)} cells, expected {width}", row=rownum
            )
        for col, cell in enumerate(row[offset:], start=offset + 1):
            try:
                x = float(cell)
            except ValueError:
                return ParseError(
                    f"{path}: non-numeric cell {cell!r} at row {rownum}, column {col}",
                    row=rownum,
                    col=col,
                )
            if not math.isfinite(x):
                return ParseError(
                    f"{path}: non-finite cell at row {rownum}, column {col}", row=rownum, col=col
                )
    raise AssertionError("no bad cell in a file that failed to parse")


def _in_float_range(what, compute):
    """compute(), raising DataError where ``what`` overflows, not numpy's RuntimeWarning."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            return compute()
    except FloatingPointError as exc:
        raise DataError(f"{what} leaves the float range ({exc})") from None


def compute_sharpe(returns):
    """Mean over sample standard deviation (ddof 1), zero risk-free rate."""
    r = finite("returns", returns)
    if r.size < 2:
        raise InsufficientData(f"need at least 2 returns, got {r.size}")
    # the variance sums the returns as the mean does, so a finite std has a finite mean
    std = _in_float_range("the Sharpe ratio", lambda: float(r.std(ddof=1)))
    if std == 0.0:
        raise DegenerateSeries("zero sample variance: Sharpe ratio undefined")
    return float(r.mean()) / std


def compute_wealth(returns):
    """Cumulative wealth path from 1; returns (final, path)."""
    r = finite("returns", returns)
    wiped = np.flatnonzero(r <= -1.0)
    if wiped.size:
        raise WealthWipeout(f"period {wiped[0] + 1}: portfolio lost 100% or more")
    if r.size == 0:
        return 1.0, np.array([])
    path = _in_float_range("wealth", lambda: np.cumprod(1.0 + r))
    return float(path[-1]), path


def market_strategy_step(state, price_relatives):
    """Drift holdings with prices: (state * x) / sum(state * x), no rebalancing.

    A product or sum beyond the float range raises DataError.
    """
    state, x = finite("holdings", state), finite("price relatives", price_relatives)
    return _in_float_range("a drifted holding", lambda: _drift(state, x))


def _drift(state, x):
    # market_strategy_step without its checks: run_backtest's holdings lie on
    # the simplex and its price relatives are finite, so no product overflows
    held = state * x
    total = _in_float_range("a realized return", lambda: float(held.sum()))
    if held.min() < 0.0:
        raise WealthWipeout("a held asset lost more than 100%")
    if total <= 0.0:
        raise WealthWipeout("drifted portfolio value is non-positive")
    return held / total


def run_backtest(r, cfg):
    """Run one strategy over the full horizon of a returns matrix.

    Periods 1..window have fewer than ``window`` periods of history and use
    equal weights for the window-based strategies; from period window+1 on,
    the Sharpe strategy re-optimizes each period on exactly the trailing
    ``window`` rows. Buy-and-hold ignores the window: it starts equal at
    period 1 and only drifts thereafter. Errors in a period are re-raised
    with its 1-based index prepended; the 1-based indices of periods whose
    solve stopped without converging are listed in
    ``report.nonconverged_periods``.
    """
    values = r.values
    total, n = values.shape
    if total < cfg.window + 1:
        raise InsufficientData(
            f"{total} periods cannot cover window {cfg.window} plus one trading period"
        )
    relatives = 1.0 + values
    w = np.full(n, 1.0 / n)
    weights = np.empty((total, n))
    nonconverged = []
    try:
        for t in range(total):
            if cfg.strategy is Strategy.SRM_PGA and t >= cfg.window:
                window_rows = ReturnsMatrix(values[t - cfg.window : t], r.asset_labels)
                res = srm_pga(build_sharpe_model(window_rows, cfg.eps_hat))
                w = res.weights
                if res.result.status is not Status.CONVERGED:
                    nonconverged.append(t + 1)
            weights[t] = w
            if cfg.strategy is Strategy.MARKET:
                w = _drift(w, relatives[t])
    except FracoptError as exc:
        raise type(exc)(f"period {t + 1}: {exc}") from exc

    realized = _in_float_range("a realized return", lambda: (weights * relatives).sum(1) - 1.0)
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
    """Write summary metrics and the config echo as JSON, over an existing file in place."""
    payload = {
        "strategy": report.strategy.value,
        "window": report.window,
        "eps": report.eps_hat,
        "sharpe": report.sharpe,
        "final_wealth": report.final_wealth,
        "periods": int(report.realized_returns.size),
    }
    _write_json(path, payload)


def report_to_csv(report, path, asset_labels=None):
    """Write each period's return, wealth and weights at full precision, one label per weight.

    The labels default to A1..AN only when ``asset_labels`` is None; any other
    count than one per weight column raises InvalidParameter. An existing
    file is overwritten in place, not truncated first.
    """
    n = report.weights_history.shape[1]
    labels = [f"A{j + 1}" for j in range(n)] if asset_labels is None else list(asset_labels)
    if len(labels) != n:
        raise InvalidParameter(f"{len(labels)} asset labels for {n} weight columns")
    header = ["period", "realized_return", "wealth"] + [f"w_{a}" for a in labels]
    table = np.column_stack(
        [report.realized_returns, report.wealth_path, report.weights_history]
    ).tolist()
    periods = report.period_labels or [str(t + 1) for t in range(len(table))]
    _write_rows(path, header, periods, table)


def _write_json(path, payload):
    """Write ``payload`` as JSON indented by 2, with a final newline, in place."""
    _write_text(path, json.dumps(payload, indent=2) + "\n")


def _write_rows(path, header, labels, table):
    """Write a CSV of the header, then each label followed by its row of Python floats, in place."""
    # csv writes a float as str(), its repr, which never needs quoting, so
    # joining the reprs writes csv.writer's bytes at two thirds of its cost
    lines = [
        f"{label},{','.join(map(repr, row))}\r\n"
        for label, row in zip(_csv_cells(labels), table, strict=True)
    ]
    head = ",".join(_csv_cells(header)) + "\r\n"
    _write_text(path, head + "".join(lines), newline="")


def _write_text(path, text, newline=None):
    """Write ``text`` over the file at ``path`` in place, as ``open(path, "w")`` would.

    The file is not cut to zero before the write but after it, and only when
    it is a regular file, so ext4's ``auto_da_alloc`` starts no writeback on
    close. Bytes, inode, hard links, symlink targets, mode and error classes
    are those of ``open(path, "w")``. Neither way is atomic: an interrupted
    write can leave old bytes past the new ones, as a truncating open can
    leave a cut file.
    """
    # O_BINARY (Windows only) leaves newline handling to the text layer
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    with open(fd, "w", newline=newline) as fh:
        fh.write(text)
        if stat.S_ISREG(os.fstat(fd).st_mode):
            fh.truncate()


def _csv_cells(values):
    """Each value as csv.writer writes it in a row of several cells."""
    if all(type(v) is str for v in values) and not _NEEDS_QUOTES.search("".join(values)):
        return values
    cells = []
    for v in values:
        buf = io.StringIO()
        csv.writer(buf).writerow([v, ""])
        cells.append(buf.getvalue()[:-3])  # less the empty cell's "," and the "\r\n"
    return cells
