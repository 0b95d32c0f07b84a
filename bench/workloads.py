"""The three benchmark workloads: seeded inputs, one op, and its checks.

Each workload separates
  * ``__init__(seed)``: the benchmark's own data generation (not in setup_s);
  * ``build()``: turning that data into library inputs through fracopt's
    public constructors (timed as setup_s);
  * ``cycle(k)``: the instance ids of the k-th schedule cycle. The timed phase
    runs whole cycles, so every run has the same mix of op kinds;
  * ``run(op)``: one op through the public API, timed;
  * ``digest(op, out)``: untimed, reduces an op's output to what the checks need;
  * ``judge(op, digest)``: the checks against the independent reference,
    run after the timed phase when that reference needs scipy.

fracopt functions are looked up on the package at call time, so the traced
run's wrappers (``spans.py``) see every call.
"""

import contextlib
import csv
import io
import json
import os

import numpy as np

import fracopt
import fracopt.backtest
import fracopt.cli
import fracopt.models

import reference

SILENT_GAP = 1e-6  # ROADMAP item 1's bar on the relative objective gap
GAP_FLOOR = reference.ACC_TOL  # every reference is verified to this accuracy

# A fixed factor market per asset count is part of the workload definition;
# --seed draws the return histories from it.
MARKET_SEED = 2306_11286
FACTORS = 3


def factor_market(n):
    rng = np.random.default_rng([MARKET_SEED, n])
    mu = rng.uniform(-0.002, 0.010, n)
    loadings = rng.normal(0.0, 1.0, (n, FACTORS)) * rng.uniform(0.005, 0.02, FACTORS)
    vol = rng.uniform(0.01, 0.03, n)
    return mu, loadings, vol


def factor_returns(rng, market, periods):
    mu, loadings, vol = market
    common = rng.normal(size=(periods, FACTORS)) @ loadings.T
    return mu + common + rng.normal(size=(periods, mu.size)) * vol


class Judgement:
    """Outcome of one op's checks."""

    def __init__(self, converged=True, problems=(), gaps=(), wrong=False, miss=False,
                 unobserved=False):
        self.converged = converged
        self.unobserved = unobserved  # the solver status could not be seen
        self.problems = list(problems)  # non-finite, infeasible or inconsistent output
        self.gaps = list(gaps)  # raw relative gaps to the reference
        self.wrong = wrong  # a wrong answer with no numeric gap (printed CLI output)
        self.miss = miss  # the library's own analytic check rejected the answer

    @property
    def failed(self):
        return not self.converged or bool(self.problems)

    @property
    def silent_wrong(self):
        return not self.failed and (self.wrong or any(g > SILENT_GAP for g in self.gaps))


def _relative_gap(value, best):
    return (best - value) / abs(best)


def _sharpe_reference(cache, key, rows):
    """(p, Q, verified optimum or None) of a returns block, computed once per key."""
    if key not in cache:
        p, q_mat = reference.sharpe_data(rows)
        cache[key] = (p, q_mat, reference.max_sharpe(p, q_mat))
    return cache[key]


def _sharpe_gaps(value, ref):
    """[relative gap] to a verified optimum, [] when the block has none."""
    if ref is None:
        return []
    best = ref[1]
    if value > best * (1.0 + 2.0 * reference.ACC_TOL):
        raise reference.ReferenceFault(f"Sharpe {value!r} beats the verified optimum {best!r}")
    return [_relative_gap(value, best)]


def _on_simplex(w, what):
    if not np.all(np.isfinite(w)):
        return [f"{what}: non-finite weights"]
    if float(np.min(w)) < -1e-12 or abs(float(np.sum(w)) - 1.0) > 1e-9:
        return [f"{what}: weights off the simplex"]
    return []


def _close(a, b, rtol):
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


# --------------------------------------------------------------------------
class SharpeSolve:
    """build_sharpe_model + srm_pga at defaults, one cold solve per op."""

    name = "sharpe-solve"
    judge_inline = False  # the reference needs scipy
    # Every cycle solves the same panels, so a run's instances do not depend on
    # how many cycles fit in it. Two ops lie below N=100 and one above, so the
    # median op is one of six N=100 panels; N=400 dominates ops_per_s.
    CYCLE = (100, 8, 100, 400, 100, 30, 100, 100, 100)

    def __init__(self, seed):
        markets = {n: factor_market(n) for n in set(self.CYCLE)}
        self.panels = [
            factor_returns(np.random.default_rng([seed, j]), markets[n], max(120, 2 * n))
            for j, n in enumerate(self.CYCLE)
        ]
        self._refs = {}

    def shapes(self):
        return {
            "cycle_N": list(self.CYCLE),
            "panels_TxN": [list(v.shape) for v in self.panels],
            "factors": FACTORS,
        }

    def build(self):
        self.inputs = [fracopt.returns_matrix(v) for v in self.panels]

    def cycle(self, k):
        return [(f"N={n}", j) for j, n in enumerate(self.CYCLE)]

    def run(self, op):
        return fracopt.srm_pga(fracopt.build_sharpe_model(self.inputs[op[1]]))

    def digest(self, op, out):
        return {
            "w": np.array(out.weights, dtype=float),
            "sharpe": float(out.sharpe),
            "certificate": bool(out.global_certificate),
            "converged": out.result.status is fracopt.Status.CONVERGED,
        }

    def reference(self, op):
        return _sharpe_reference(self._refs, op[1], self.panels[op[1]])

    def judge(self, op, d):
        p, q_mat, ref = self.reference(op)
        problems = _on_simplex(d["w"], "srm_pga")
        if problems:
            return Judgement(d["converged"], problems)
        value = reference.sharpe_value(p, q_mat, d["w"])
        if not _close(value, d["sharpe"], 1e-9):
            problems.append(f"reported Sharpe {d['sharpe']!r} != {value!r} at its weights")
        if abs(float(p @ d["w"])) > 1e-12 and d["certificate"] != (float(p @ d["w"]) >= 0):
            problems.append("global_certificate disagrees with the sign of p.w")
        return Judgement(d["converged"], problems, _sharpe_gaps(value, ref))


# --------------------------------------------------------------------------
STRATEGIES = ("srm-pga", "one-over-n", "market")


class BacktestRolling:
    """What `fracopt backtest` does for each strategy, on one CSV panel per op."""

    name = "backtest-rolling"
    judge_inline = False  # the reference needs scipy
    ASSETS = 10
    WINDOW = 20
    # Two rebalanced periods per op: the second one can reuse the first (warm
    # starts). An op's cost is set mostly by its panel, since its windows
    # overlap, so many short panels keep the median steadier across seeds than
    # a few long ones (measured in README.md).
    PERIODS = 22
    POOL = 256
    CYCLE_OPS = 4

    def __init__(self, seed):
        market = factor_market(self.ASSETS)
        self.panels = [
            factor_returns(np.random.default_rng([seed, i]), market, self.PERIODS)
            for i in range(self.POOL)
        ]
        self.labels = [f"A{j + 1}" for j in range(self.ASSETS)]
        self._refs = {}

    def shapes(self):
        return {
            "panel_TxN": [self.PERIODS, self.ASSETS],
            "window": self.WINDOW,
            "rebalanced_periods_per_op": self.PERIODS - self.WINDOW,
            "distinct_panels": self.POOL,
            "strategies": list(STRATEGIES),
        }

    def materialize(self, workdir):
        """Write each panel as the CSV a user would pass to `fracopt backtest`."""
        self.csv_paths = []
        for i, values in enumerate(self.panels):
            path = os.path.join(workdir, f"returns_{i:03d}.csv")
            write_returns_csv(path, values, self.labels)
            self.csv_paths.append(path)
        self.out_paths = {
            s: (os.path.join(workdir, f"{s}.json"), os.path.join(workdir, f"{s}.csv"))
            for s in STRATEGIES
        }

    def build(self):
        self.configs = {
            s: fracopt.BacktestConfig(window=self.WINDOW, strategy=s) for s in STRATEGIES
        }

    def cycle(self, k):
        base = (k * self.CYCLE_OPS) % self.POOL
        return list(range(base, base + self.CYCLE_OPS))

    def run(self, op):
        returns = fracopt.load_returns_csv(self.csv_paths[op])
        reports = {}
        statuses = None
        for s in STRATEGIES:
            with _solve_statuses() as seen:
                report = fracopt.run_backtest(returns, self.configs[s])
            if s == "srm-pga":
                statuses = seen
            json_path, csv_path = self.out_paths[s]
            fracopt.backtest.report_to_json(report, json_path)
            fracopt.backtest.report_to_csv(report, csv_path, returns.asset_labels)
            reports[s] = report
        return reports, statuses

    def digest(self, op, out):
        reports, statuses = out
        values = self.panels[op]
        problems = []
        for s, rep in reports.items():
            problems += _report_problems(s, rep, values, self.WINDOW)
            problems += _written_problems(s, rep, *self.out_paths[s])
        srm = np.array(reports["srm-pga"].weights_history[self.WINDOW:], dtype=float)
        if statuses is not None and len(statuses) != len(srm):
            statuses = None  # run_backtest no longer solves through fracopt.backtest.srm_pga
        return {"problems": problems, "srm_weights": srm, "statuses": statuses}

    def reference(self, op, t):
        return _sharpe_reference(self._refs, (op, t), self.panels[op][t - self.WINDOW : t])

    def judge(self, op, d):
        gaps = []
        for t, w in enumerate(d["srm_weights"], start=self.WINDOW):
            p, q_mat, ref = self.reference(op, t)
            gaps += _sharpe_gaps(reference.sharpe_value(p, q_mat, w), ref)
        statuses = d["statuses"]
        if statuses is None:  # no period status seen: the op counts as converged
            return Judgement(True, d["problems"], gaps, unobserved=True)
        converged = all(s is fracopt.Status.CONVERGED for s in statuses)
        return Judgement(converged, d["problems"], gaps)


@contextlib.contextmanager
def _solve_statuses():
    """The status of each srm_pga solve that run_backtest makes, in order.

    BacktestReport carries no per-period status, so the srm_pga name that
    fracopt.backtest calls is passed through a recorder for the duration: one
    extra Python call per period, against milliseconds of solve."""
    module = fracopt.backtest
    inner = getattr(module, "srm_pga", None)
    if inner is None:
        yield None
        return
    seen = []

    def recorded(*args, **kwargs):
        out = inner(*args, **kwargs)
        seen.append(getattr(getattr(out, "result", None), "status", None))
        return out

    module.srm_pga = recorded
    try:
        yield seen
    finally:
        module.srm_pga = inner


def write_returns_csv(path, values, labels):
    """Returns CSV with a period label column, every value as repr(float(x))."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["period"] + list(labels))
        for t, row in enumerate(values):
            writer.writerow([f"t{t + 1:03d}"] + [repr(float(x)) for x in row])


def _report_problems(strategy, rep, values, window):
    t, n = values.shape
    w = np.asarray(rep.weights_history, dtype=float)
    if w.shape != (t, n):
        return [f"{strategy}: weights_history shape {w.shape}"]
    problems = []
    for row in w:
        problems += _on_simplex(row, strategy)
        if problems:
            return problems
    realized = (w * (1.0 + values)).sum(axis=1) - 1.0
    if not np.allclose(rep.realized_returns, realized, rtol=0, atol=1e-12):
        problems.append(f"{strategy}: realized returns disagree with weights x returns")
    path = np.cumprod(1.0 + realized)
    if not np.allclose(rep.wealth_path, path, rtol=1e-12, atol=0):
        problems.append(f"{strategy}: wealth path is not the compounded returns")
    if not _close(rep.final_wealth, float(path[-1]), 1e-12):
        problems.append(f"{strategy}: final wealth")
    sharpe = float(realized.mean()) / float(realized.std(ddof=1))
    if not _close(rep.sharpe, sharpe, 1e-9):
        problems.append(f"{strategy}: Sharpe {rep.sharpe!r} != {sharpe!r}")
    equal = np.full(n, 1.0 / n)
    if strategy == "one-over-n" and not np.allclose(w, equal, rtol=0, atol=1e-15):
        problems.append("one-over-n: weights are not equal")
    if strategy == "srm-pga" and not np.allclose(w[:window], equal, rtol=0, atol=1e-15):
        problems.append("srm-pga: warm-up weights are not equal")
    if strategy == "market":
        buy_and_hold = float(np.prod(1.0 + values, axis=0).mean())
        if not _close(rep.final_wealth, buy_and_hold, 1e-10):
            problems.append("market: final wealth is not buy-and-hold")
    return problems


def _written_problems(strategy, rep, json_path, csv_path):
    with open(json_path) as fh:
        payload = json.load(fh)
    problems = []
    expect = {
        "strategy": strategy,
        "sharpe": rep.sharpe,
        "final_wealth": rep.final_wealth,
        "periods": int(rep.realized_returns.size),
    }
    for key, value in expect.items():
        if payload.get(key) != value:
            problems.append(f"{strategy}: JSON {key} = {payload.get(key)!r}, report has {value!r}")
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    table = np.array([[float(c) for c in row[1:]] for row in rows])
    expected = np.column_stack([rep.realized_returns, rep.wealth_path, rep.weights_history])
    if table.shape != expected.shape or not np.array_equal(table, expected):
        problems.append(f"{strategy}: period CSV does not round-trip the report")
    return problems


# --------------------------------------------------------------------------
PAPER_TOL = 1e-7  # the paper tables' tolerance


class PaperSims:
    """The paper's 2-d problems: traced PGA solves, shifted and Dinkelbach solves, CLI."""

    name = "paper-sims"
    judge_inline = True  # analytic optima: no scipy needed
    POOL = 1024
    PGA_PER_CYCLE = 8  # per family; plus one shifted, one Dinkelbach, two CLI ops

    def __init__(self, seed):
        rng = np.random.default_rng([seed, 2])
        self.sim1 = []  # (p, x0)
        self.sim2 = []  # (a0..a6, x0)
        for _ in range(self.POOL):
            prm = fracopt.models.random_sim1_params(rng)
            self.sim1.append((np.array(prm.p), rng.uniform(0.0, 1.0, 2)))
            prm = fracopt.models.random_sim2_params(rng)
            coeffs = (prm.a0, prm.a1, prm.a2, prm.a3, prm.a4, prm.a5, prm.a6)
            self.sim2.append((tuple(float(a) for a in coeffs), rng.uniform(-100.0, 100.0, 2)))

    def shapes(self):
        return {
            "distinct_sim1": len(self.sim1),
            "distinct_sim2": len(self.sim2),
            "cycle": f"{self.PGA_PER_CYCLE} sim1 + {self.PGA_PER_CYCLE} sim2 PGA, "
            "1 shifted, 1 Dinkelbach, 1 cli sim1, 1 cli sim2",
            "tol": PAPER_TOL,
        }

    def build(self):
        self.params1 = [fracopt.Sim1Params(p) for p, _ in self.sim1]
        self.params2 = [fracopt.Sim2Params(*a) for a, _ in self.sim2]

    def cycle(self, k):
        m = self.PGA_PER_CYCLE
        ops = []
        for j in range(m):
            i = (k * m + j) % self.POOL
            ops += [("sim1", i), ("sim2", i)]
        i = k % self.POOL
        return ops + [("shifted", i), ("dinkelbach", i), ("cli-sim1", i), ("cli-sim2", i)]

    def _cfg(self):
        return fracopt.PgaConfig(tol=PAPER_TOL, record_trace=True)

    def run(self, op):
        kind, i = op
        if kind == "sim1":
            prm = self.params1[i]
            res = fracopt.pga_solve(fracopt.build_sim1(prm), self.sim1[i][1], self._cfg())
            best = fracopt.sim1_analytic_solution(prm)
            return res, bool(np.linalg.norm(res.x_star - best) <= 1e-4)
        if kind == "sim2":
            prm = self.params2[i]
            res = fracopt.pga_solve(fracopt.build_sim2(prm), self.sim2[i][1], self._cfg())
            return res, fracopt.sim2_is_global(prm, res.x_star, 1e-4)
        if kind == "shifted":
            prm = self.params1[i]
            shift = fracopt.models.sim1_shift_bound(prm)
            res = fracopt.pga_solve_shifted(
                fracopt.build_sim1(prm), shift, self.sim1[i][1], self._cfg()
            )
            return res, shift
        if kind == "dinkelbach":
            prm = self.params1[i]
            x0 = np.eye(2)[int(np.argmin(prm.p))]  # the vertex with p_i < 0, so f(x0) <= 0
            return fracopt.dinkelbach_solve(fracopt.build_sim1(prm), x0), None
        return _cli_call(self.cli_argv(kind, i))

    def cli_argv(self, kind, i):
        if kind == "cli-sim1":
            p, x0 = self.sim1[i]
            return ["sim1", "--p", _csv(p), "--x0", _csv(x0), "--tol", repr(PAPER_TOL)]
        a, x0 = self.sim2[i]
        return ["sim2", "--a0", repr(a[0]), "--a", _csv(a[1:]), "--x0", _csv(x0)]

    def optimum(self, kind, i):
        """Analytic optimal value of the instance behind an op."""
        if kind == "sim2" or kind == "cli-sim2":
            a = self.sim2[i][0]
            return a[2] / a[5]
        p = self.sim1[i][0]
        x = fracopt.sim1_analytic_solution(self.params1[i])
        return float(p @ x) / float(np.linalg.norm(x))

    def ratio(self, kind, i, x):
        """The objective at x, computed here rather than by the library."""
        if kind == "sim2":
            _, a1, a2, a3, a4, a5, a6 = self.sim2[i][0]
            return (a1 * x[0] ** 2 + a2 * x[1] ** 2 + a3) / (a4 * x[0] ** 2 + a5 * x[1] ** 2 + a6)
        return float(self.sim1[i][0] @ x) / float(np.linalg.norm(x))

    def digest(self, op, out):
        kind, i = op
        if kind.startswith("cli"):
            code, text = out
            return {"code": code, "text": text}
        res, extra = out
        d = {
            "x": np.array(res.x_star, dtype=float),
            "ratio": float(res.ratio),
            "converged": res.status is fracopt.Status.CONVERGED,
            "extra": extra,
        }
        if res.trace is not None:
            r = np.asarray(res.trace.ratios, dtype=float)
            d["ascents"] = int(np.sum(np.diff(r) > 1e-12 * np.maximum(1.0, np.abs(r[1:]))))
        return d

    def judge(self, op, d):
        kind, i = op
        best = self.optimum(kind, i)
        if kind.startswith("cli"):
            return self._judge_cli(kind, d, best)
        x = d["x"]
        if not np.all(np.isfinite(x)):
            return Judgement(d["converged"], [f"{kind}: non-finite terminal point"])
        problems = []
        if kind == "sim2":
            if abs(x[1]) > self.sim2[i][0][0] * (1.0 + 1e-12):
                problems.append("sim2: terminal point outside the band")
        else:
            problems += _on_simplex(x, kind)
        if problems:
            return Judgement(d["converged"], problems)
        value = self.ratio(kind, i, x)
        reported = d["ratio"] + d["extra"] if kind == "shifted" else d["ratio"]
        if not _close(value, reported, 1e-9):
            problems.append(f"{kind}: reported ratio {reported!r} != {value!r} at its point")
        if d.get("ascents"):
            problems.append(f"{kind}: the trace ratio rose {d['ascents']} times (no monotone descent)")
        miss = kind in ("sim1", "sim2") and not d["extra"]
        return Judgement(d["converged"], problems, [_relative_gap(-value, -best)], miss=miss)

    def _judge_cli(self, kind, d, best):
        if d["code"] != 0:
            return Judgement(False)
        lines = dict(
            line.split(":", 1) for line in d["text"].splitlines() if ":" in line
        )
        try:
            printed = float(lines["objective"])
        except (KeyError, ValueError):
            return Judgement(True, [f"{kind}: no objective line in the output"])
        # 4 printed decimals: wrong only beyond the rounding
        wrong = abs(printed - best) > 5e-5 + 1e-9
        miss = lines.get("global optimum", "").strip().startswith("no")
        return Judgement(True, wrong=wrong, miss=miss)


def _csv(values):
    return ",".join(repr(float(v)) for v in values)


def _cli_call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = fracopt.cli.main(argv)
    return code, out.getvalue()


WORKLOADS = {w.name: w for w in (SharpeSolve, BacktestRolling, PaperSims)}
