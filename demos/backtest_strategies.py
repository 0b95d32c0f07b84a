"""Moving-window backtest of the three shipped strategies on synthetic data.

Generates a returns matrix with persistent cross-asset mean differences
plus common market noise, runs the Sharpe optimizer, per-period equal
weighting, and buy-and-hold over the same horizon, and compares realized
Sharpe ratios and cumulative wealth. Also writes the CSV so the same run
can be repeated through the command-line interface.
"""

import os
import tempfile

import numpy as np

from fracopt import BacktestConfig, returns_matrix, run_backtest


def synthetic_returns(rng, periods=120, assets=6):
    means = rng.uniform(-0.002, 0.012, size=assets)
    market = rng.normal(0.0, 0.025, size=periods)
    idio = rng.normal(0.0, 0.01, size=(periods, assets))
    return means + market[:, None] + idio


def write_returns_csv(path, values):
    """Header A1..AN, then one row of full-precision decimal returns per period."""
    header = ",".join(f"A{j + 1}" for j in range(values.shape[1]))
    rows = "\n".join(",".join(repr(float(v)) for v in row) for row in values)
    with open(path, "w") as fh:
        fh.write(header + "\n" + rows + "\n")


def main():
    rng = np.random.default_rng(99)
    values = synthetic_returns(rng)
    r = returns_matrix(values)

    print(f"horizon {values.shape[0]} periods, {values.shape[1]} assets, window 20\n")
    print(f"{'strategy':<12} {'sharpe':>8} {'final wealth':>14}")
    reports = {}
    for strategy in ("srm-pga", "one-over-n", "market"):
        cfg = BacktestConfig(window=20, strategy=strategy)
        report = run_backtest(r, cfg)
        reports[strategy] = report
        print(f"{strategy:<12} {report.sharpe:>8.4f} {report.final_wealth:>14.4f}")

    srm = reports["srm-pga"]
    print("\noptimizer weights at the last period:")
    print(" ", np.array2string(srm.weights_history[-1], precision=4, suppress_small=True))
    print("true asset means ranked:", np.argsort(values.mean(axis=0))[::-1])

    # write the data so the CLI reproduces the same numbers:
    #   fracopt backtest --data <csv> --strategy srm-pga --window 20
    out = os.path.join(tempfile.gettempdir(), "fracopt_demo_returns.csv")
    write_returns_csv(out, values)
    print(f"\nreturns written to {out}")


if __name__ == "__main__":
    main()
