"""Command-line front door for the solvers, example problems, and backtests.

Exit codes by error class: 0 success, 2 InvalidParameter, 3 any other
FracoptError, 4 DataError or OSError. Human output prints 4 decimal places;
trace CSV and JSON files carry full precision.
"""

import argparse
import os
import sys

import numpy as np

from . import backtest as bt
from .core import PgaConfig, Status, pga_solve
from .errors import DataError, FracoptError, InvalidParameter
from .models import (
    Sim1Params,
    Sim2Params,
    build_sim1,
    build_sim2,
    sim2_is_global,
)
from .sharpe import build_sharpe_model, srm_pga

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_SOLVER = 3
EXIT_DATA = 4


def _parse_floats(text, count, name):
    parts = [p for p in text.split(",") if p.strip()]
    if len(parts) != count:
        raise InvalidParameter(f"{name} needs {count} comma-separated numbers, got {text!r}")
    try:
        return np.array([float(p) for p in parts])
    except ValueError:
        raise InvalidParameter(f"{name}: could not parse {text!r}") from None


def _fmt(x):
    return f"{x:.4f}"


def _vec(x):
    return "(" + ", ".join(_fmt(v) for v in x) + ")"


def _exit_code(converged, message="solver did not converge within the iteration budget"):
    if converged:
        return EXIT_OK
    print(message, file=sys.stderr)
    return EXIT_SOLVER


def _solve_paper_problem(args, name, problem, report=None):
    """Solve a 2-d paper problem from the shared sim options, print it, return the exit code.

    ``report(x)``, when given, prints the problem's own lines about the terminal point x.
    """
    x0 = _parse_floats(args.x0, 2, "--x0")
    cfg = PgaConfig(
        alpha=None if args.alpha_frac is None else args.alpha_frac * problem.step_bound,
        tol=args.tol,
        max_iter=args.max_iter,
        record_trace=args.trace,
    )
    result = pga_solve(problem, x0, cfg)
    print(f"terminal point: {_vec(result.x_star)}")
    print(f"objective:      {_fmt(result.ratio)}")
    print(f"iterations:     {result.iterations}")
    if report is not None:
        report(result.x_star)
    if args.trace:
        path = os.path.join(args.out, f"{name}_trace.csv")
        table = np.column_stack([result.trace.iterates, result.trace.ratios]).tolist()
        steps = [str(k) for k in range(len(table))]
        bt._write_rows(path, ["k", "x1", "x2", "objective"], steps, table)
        print(f"trace written:  {path}")
    return _exit_code(result.status is Status.CONVERGED)


def cmd_sim1(args):
    problem = build_sim1(Sim1Params(_parse_floats(args.p, 2, "--p")))
    return _solve_paper_problem(args, "sim1", problem)


def cmd_sim2(args):
    params = Sim2Params(args.a0, *_parse_floats(args.a, 6, "--a"))

    def report(x):
        verdict = sim2_is_global(params, x, 1e-4)
        print(f"|x1|:           {abs(x[0]):.6e}")
        print(f"global optimum: {'yes' if verdict else 'no'} (tol 1e-4)")

    return _solve_paper_problem(args, "sim2", build_sim2(params), report)


def _print_utf8(*lines):
    """Print lines to stdout as UTF-8, whatever the locale's encoding.

    A stream with a byte buffer gets the encoded bytes after its pending
    text; one without (an io.StringIO) gets the text. A path argument that
    the locale could not decode goes back out as the bytes it came in as.
    """
    text = "".join(line + "\n" for line in lines)
    buffer = getattr(sys.stdout, "buffer", None)
    if buffer is None:
        sys.stdout.write(text)
    else:
        sys.stdout.flush()
        buffer.write(text.encode("utf-8", "surrogateescape"))


def cmd_sharpe(args):
    returns = bt.load_returns_csv(args.data, args.unit)
    model = build_sharpe_model(returns, args.eps)
    res = srm_pga(model)
    # asset labels may be non-ASCII: the CSV is read as UTF-8, so they print as UTF-8
    _print_utf8(
        "weights:",
        *(f"  {label}: {_fmt(w)}" for label, w in zip(returns.asset_labels, res.weights)),
        f"sharpe objective:   {_fmt(res.sharpe)}",
        f"global certificate: {'yes' if res.global_certificate else 'no'}",
    )
    payload = {
        "eps": args.eps,
        "assets": list(returns.asset_labels),
        "weights": [float(w) for w in res.weights],
        "sharpe": res.sharpe,
        "global_certificate": res.global_certificate,
        "iterations": res.result.iterations,
    }
    path = os.path.join(args.out, "sharpe_result.json")
    bt._write_json(path, payload)
    _print_utf8(f"result written:     {path}")
    return _exit_code(res.result.status is Status.CONVERGED)


def cmd_backtest(args):
    cfg = bt.BacktestConfig(
        window=args.window,
        strategy=args.strategy,
        eps_hat=args.eps,
    )
    returns = bt.load_returns_csv(args.data, args.unit)
    report = bt.run_backtest(returns, cfg)
    json_path = os.path.join(args.out, "backtest_report.json")
    csv_path = os.path.join(args.out, "backtest_periods.csv")
    bt.report_to_json(report, json_path)
    bt.report_to_csv(report, csv_path, returns.asset_labels)
    print(f"strategy:     {cfg.strategy.value}")
    print(f"periods:      {report.realized_returns.size}")
    print(f"sharpe:       {_fmt(report.sharpe)}")
    print(f"final wealth: {_fmt(report.final_wealth)}")
    print(f"report:       {json_path}")
    print(f"periods csv:  {csv_path}")
    periods = ", ".join(str(t) for t in report.nonconverged_periods)
    return _exit_code(
        not report.nonconverged_periods, f"warning: periods {periods} did not converge"
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fracopt",
        description="Fractional optimization solvers, analytic examples, and portfolio backtests.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p1 = sub.add_parser("sim1", help="ratio of a linear form to the norm on the 2-simplex")
    p1.add_argument("--p", required=True, help="direction vector, e.g. '2,-1'")
    p2 = sub.add_parser("sim2", help="diagonal quadratic ratio on an unbounded band")
    p2.add_argument("--a0", type=float, required=True, help="band half-width")
    p2.add_argument("--a", required=True, help="six coefficients 'a1,a2,a3,a4,a5,a6'")
    # sim2's tol is tighter than sim1's: the flat optimal segment needs it for
    # the first coordinate to reach 4-decimal zero before the step test fires
    for p, x0, tol in ((p1, "0.5,0.5", PgaConfig.tol), (p2, "50,50", 1e-7)):
        p.add_argument("--x0", default=x0, help=f"starting point (default {x0})")
        p.add_argument("--alpha-frac", type=float, help="fraction of the step bound")
        p.add_argument("--tol", type=float, default=tol, help="relative-change stopping tolerance")
        p.add_argument("--max-iter", type=int, default=PgaConfig.max_iter)
        p.add_argument("--trace", action="store_true", help="write the iterate trace CSV")
        p.add_argument("--out", default=".", help="output directory")

    ps = sub.add_parser("sharpe", help="optimize portfolio weights from a returns CSV")
    pb = sub.add_parser("backtest", help="moving-window backtest of a strategy")
    units, defaults = bt.ReturnsUnit, bt.BacktestConfig
    for p in (ps, pb):
        p.add_argument("--data", required=True, help="returns CSV path")
        p.add_argument("--unit", choices=[u.value for u in units], default=units.DECIMAL)
        p.add_argument("--eps", type=float, default=defaults.eps_hat, help="variance regularizer")
        p.add_argument("--out", default=".", help="output directory")
    pb.add_argument("--strategy", choices=[s.value for s in bt.Strategy], default=defaults.strategy)
    pb.add_argument("--window", type=int, default=defaults.window)

    return parser


# flags whose values are comma-separated vectors and may start with a minus
# sign, which bare argparse would mistake for an option
_VECTOR_FLAGS = {"--p", "--x0", "--a"}


def _merge_vector_flags(argv):
    merged = []
    i = 0
    while i < len(argv):
        if argv[i] in _VECTOR_FLAGS and i + 1 < len(argv):
            merged.append(f"{argv[i]}={argv[i + 1]}")
            i += 2
        else:
            merged.append(argv[i])
            i += 1
    return merged


# main's parser, built on the first call: parsing leaves no state in it, and
# building it costs more than a whole sim1 solve
_parser = None


def main(argv=None):
    global _parser
    if _parser is None:
        _parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parser.parse_args(_merge_vector_flags(list(argv)))
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    # looked up at call time, so the cached parser holds no handler
    handler = globals()[f"cmd_{args.command}"]
    try:
        return handler(args)
    except InvalidParameter as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    # OSError covers a missing or unreadable --data, a directory given as
    # --data, and an --out that is a file, missing or unwritable
    except (OSError, DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except FracoptError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
