"""What the benchmark measures: workloads, metric names, units and bounds.

This table is the single source of ``BENCHMARK.json`` at the repository root;
``python3 bench/run.py --write-manifest`` regenerates it. ``README.md``
documents each metric and what it should move.
"""

COMMAND = ["python3", "bench/run.py"]
PATHS = ["bench"]
RUN_SECONDS = 35

WORKLOADS = {
    "sharpe-solve": (
        "srm_pga from cold starts on seeded factor-model panels at N=8..400: "
        "bound by the solver loop, oracle and simplex projection"
    ),
    "backtest-rolling": (
        "the fracopt backtest pipeline on N=10 CSV panels: one model rebuild and "
        "small solve per rebalanced period, plus CSV load and report writes"
    ),
    "paper-sims": (
        "hundreds of 2-d paper problems with traces, shifted and Dinkelbach solves, "
        "in-process CLI: per-call overhead and band projection; no Sharpe code"
    ),
}

# (name, unit, better, bound). Every workload reports all of these; README.md
# defines them.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("op_ms_p50", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

# (name, unit). Printed with the end-to-end table but not part of
# BENCHMARK.json: they are zero on some workloads or seeds, or defined on one
# workload only.
REPORTED = [
    ("op_ms_p90", "ms"),
    ("fail_share", "share"),
    ("silent_wrong_share", "share"),
    ("gap_max", "rel"),
    ("gap_p50", "rel"),
    ("cli_cold_s", "s"),
]

# (name, unit, better). From --trace 1 runs; 0 where the workload does not
# exercise the layer or the layer's wrapper target is absent.
PER_LAYER = [
    ("core.iterations", "count", "lower"),
    ("core.converged_share", "share", "higher"),
    ("core.iter_us", "us", "lower"),
    ("core.loop_self_us", "us", "lower"),
    ("core.solve_calls", "count/op", "lower"),
    ("projections.simplex_calls", "count/op", "lower"),
    ("projections.simplex_us", "us", "lower"),
    ("projections.band_calls", "count/op", "lower"),
    ("projections.band_us", "us", "lower"),
    ("sharpe.ratio_us", "us", "lower"),
    ("sharpe.grad_us", "us", "lower"),
    ("sharpe.build_us", "us", "lower"),
    ("linalg.eig_calls", "count/op", "lower"),
    ("linalg.eig_us", "us", "lower"),
    ("dinkelbach.solve_ms", "ms", "lower"),
    ("dinkelbach.outer_iters", "count", "lower"),
    ("models.ratio_us", "us", "lower"),
    ("models.grad_us", "us", "lower"),
    ("models.oracle_us", "us", "lower"),
    ("backtest.load_ms", "ms", "lower"),
    ("backtest.period_self_us", "us", "lower"),
    ("backtest.write_ms", "ms", "lower"),
    ("backtest.periods", "count/op", "higher"),
    ("backtest.nonconverged_periods", "count/op", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.main_ms", "ms", "lower"),
    ("trace.overhead_share", "share", "lower"),
    ("trace.absent_layers", "count", "lower"),
]


def manifest():
    """The BENCHMARK.json document."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
