"""Outside-in tracing of fracopt's layers for the --trace 1 run.

Spans (name, start, end, parent) are recorded in memory around calls into
each layer. The wrappers replace the layer's public functions in every
loaded ``fracopt`` module namespace, so calls between modules are seen too
(for example ``run_backtest`` -> ``srm_pga``), and the four callables of
each ``FractionalProblem`` are wrapped through ``dataclasses.replace``.
A wrapper target that no longer exists marks its layer absent instead of
failing the run.

A layer's self time is its span duration minus the time of its child spans.
"""

import dataclasses
import sys
import time
from collections import defaultdict

import numpy as np

_CALLABLES = ("eval_f", "eval_g", "grad_f", "grad_g")


class Recorder:
    """Spans of the current op plus running per-name totals over all traced ops."""

    def __init__(self, keep=20_000):
        self.codes = {}
        self.names = []
        self._code, self._start, self._end, self._parent = [], [], [], []
        self._stack = []
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(float)
        self.kept = []  # the first `keep` spans, written out at the end
        self.absent = set()  # layers whose wrapper target is missing or changed
        self._keep = keep
        self.ops = 0

    def _name_code(self, name):
        code = self.codes.get(name)
        if code is None:
            code = self.codes[name] = len(self.names)
            self.names.append(name)
        return code

    def inside(self, name):
        code = self.codes.get(name)
        return code is not None and any(self._code[i] == code for i in self._stack)

    def wrap(self, fn, name, observe=None):
        code = self._name_code(name)
        rec = self

        def traced(*args, **kwargs):
            idx = len(rec._code)
            rec._code.append(code)
            rec._parent.append(rec._stack[-1] if rec._stack else -1)
            rec._start.append(0.0)
            rec._end.append(0.0)
            rec._stack.append(idx)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                rec._stack.pop()
                rec._start[idx] = t0
                rec._end[idx] = t1
            if observe is not None:
                observe(rec, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def end_op(self):
        """Fold the current op's spans into the totals and drop them."""
        self.ops += 1
        n = len(self._code)
        if n == 0:
            return
        code = np.asarray(self._code)
        parent = np.asarray(self._parent)
        dur = np.asarray(self._end) - np.asarray(self._start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        m = len(self.names)
        calls = np.bincount(code, minlength=m)
        total = np.bincount(code, weights=dur, minlength=m)
        own = np.bincount(code, weights=dur - child, minlength=m)
        for c in np.flatnonzero(calls):
            name = self.names[c]
            self.calls[name] += int(calls[c])
            self.total[name] += float(total[c])
            self.self_time[name] += float(own[c])
        room = self._keep - len(self.kept)
        if room > 0:
            base = self.kept[-1][0] + 1 if self.kept else 0
            for i in range(min(room, n)):
                p = self._parent[i]
                self.kept.append((base + i, self.names[self._code[i]], self._start[i],
                                  self._end[i], base + p if p >= 0 else -1, self.ops))
        self._code, self._start, self._end, self._parent = [], [], [], []


# --------------------------------------------------------------------------
def _observe_solve(rec, args, kwargs, res):
    rec.counts["core.iterations"] += getattr(res, "iterations", 0)
    status = getattr(getattr(res, "status", None), "name", None)
    rec.counts["core.converged"] += status == "CONVERGED"


def _observe_dinkelbach(rec, args, kwargs, res):
    rec.counts["dinkelbach.outer_iters"] += getattr(res, "iterations", 0)


def _observe_srm(rec, args, kwargs, res):
    if rec.inside("backtest.run.srm-pga"):
        rec.counts["backtest.periods"] += 1
        status = getattr(getattr(getattr(res, "result", None), "status", None), "name", None)
        rec.counts["backtest.nonconverged_periods"] += status != "CONVERGED"


def _problem_wrapper(rec, layer, build):
    def wrapped_build(*args, **kwargs):
        problem = build(*args, **kwargs)
        try:
            fields = {f: rec.wrap(getattr(problem, f), f"{layer}.{f}") for f in _CALLABLES}
            return dataclasses.replace(problem, **fields)
        except (AttributeError, TypeError, ValueError):  # the problem API changed
            rec.absent.add(f"{layer} oracle")
            return problem

    return rec.wrap(wrapped_build, f"{layer}.build_problem")


def _band_wrapper(rec, band_projector):
    def wrapped(a0):
        return rec.wrap(band_projector(a0), "projections.band")

    return wrapped


def _backtest_run_wrapper(rec, run_backtest):
    traced = {}

    def wrapped(r, cfg):
        strategy = getattr(getattr(cfg, "strategy", None), "value", "unknown")
        if strategy not in traced:
            traced[strategy] = rec.wrap(run_backtest, f"backtest.run.{strategy}")
        return traced[strategy](r, cfg)

    return wrapped


# (layer, module, attribute, how to wrap)
TARGETS = [
    ("linalg", "fracopt.linalg", "dominant_eigenvalue", "linalg.eig"),
    ("projections", "fracopt.projections", "project_simplex", "projections.simplex"),
    ("projections", "fracopt.projections", "band_projector", _band_wrapper),
    ("core", "fracopt.core", "pga_solve", ("core.solve", _observe_solve)),
    ("core", "fracopt.core", "pga_solve_shifted", ("core.solve", _observe_solve)),
    ("sharpe", "fracopt.sharpe", "build_sharpe_model", "sharpe.build"),
    ("sharpe", "fracopt.sharpe", "sharpe_problem", lambda rec, f: _problem_wrapper(rec, "sharpe", f)),
    ("sharpe", "fracopt.sharpe", "srm_pga", ("sharpe.srm_pga", _observe_srm)),
    ("dinkelbach", "fracopt.dinkelbach", "dinkelbach_solve", ("dinkelbach.solve", _observe_dinkelbach)),
    ("models", "fracopt.models", "build_sim1", lambda rec, f: _problem_wrapper(rec, "models", f)),
    ("models", "fracopt.models", "build_sim2", lambda rec, f: _problem_wrapper(rec, "models", f)),
    ("backtest", "fracopt.backtest", "load_returns_csv", "backtest.load"),
    ("backtest", "fracopt.backtest", "run_backtest", _backtest_run_wrapper),
    ("backtest", "fracopt.backtest", "report_to_json", "backtest.write"),
    ("backtest", "fracopt.backtest", "report_to_csv", "backtest.write"),
    ("cli", "fracopt.cli", "main", "cli.main"),
]


class Patches:
    """The wrappers for every target that exists; apply()/restore() swap them in."""

    def __init__(self, rec):
        self.absent = rec.absent
        self.pairs = []  # (original, wrapper)
        for layer, module_name, attr, how in TARGETS:
            original = getattr(sys.modules.get(module_name), attr, None)
            if not callable(original):
                self.absent.add(layer)
                continue
            if isinstance(how, str):
                wrapper = rec.wrap(original, how)
            elif isinstance(how, tuple):
                wrapper = rec.wrap(original, how[0], observe=how[1])
            else:
                wrapper = how(rec, original)
            self.pairs.append((original, wrapper))
        self._saved = []

    def apply(self):
        swap = {id(o): w for o, w in self.pairs}
        for name, module in list(sys.modules.items()):
            if name != "fracopt" and not name.startswith("fracopt."):
                continue
            space = vars(module)
            for attr, value in list(space.items()):
                wrapper = swap.get(id(value))
                if wrapper is not None:
                    self._saved.append((space, attr, value))
                    space[attr] = wrapper

    def restore(self):
        for space, attr, value in reversed(self._saved):
            space[attr] = value
        self._saved = []


def _per(num, den, scale=1.0):
    return scale * num / den if den else 0.0


def layer_metrics(rec):
    """The per-layer metrics of spec.PER_LAYER, except the two measured elsewhere."""
    calls, total, own, counts = rec.calls, rec.total, rec.self_time, rec.counts
    ops = rec.ops
    solves = calls["core.solve"]
    iters = counts["core.iterations"]
    periods = counts["backtest.periods"]

    def pair(layer, a, b, count_of):
        return _per(total[f"{layer}.{a}"] + total[f"{layer}.{b}"], calls[f"{layer}.{count_of}"], 1e6)

    m = {
        "core.iterations": _per(iters, solves),
        "core.converged_share": _per(counts["core.converged"], solves),
        "core.iter_us": _per(total["core.solve"], iters, 1e6),
        "core.loop_self_us": _per(own["core.solve"], iters, 1e6),
        "core.solve_calls": _per(solves, ops),
        "projections.simplex_calls": _per(calls["projections.simplex"], ops),
        "projections.simplex_us": _per(total["projections.simplex"], calls["projections.simplex"], 1e6),
        "projections.band_calls": _per(calls["projections.band"], ops),
        "projections.band_us": _per(total["projections.band"], calls["projections.band"], 1e6),
        "sharpe.ratio_us": pair("sharpe", "eval_f", "eval_g", "eval_g"),
        "sharpe.grad_us": pair("sharpe", "grad_f", "grad_g", "grad_g"),
        "sharpe.build_us": _per(own["sharpe.build"], calls["sharpe.build"], 1e6),
        "linalg.eig_calls": _per(calls["linalg.eig"], ops),
        "linalg.eig_us": _per(total["linalg.eig"], calls["linalg.eig"], 1e6),
        "dinkelbach.solve_ms": _per(total["dinkelbach.solve"], calls["dinkelbach.solve"], 1e3),
        "dinkelbach.outer_iters": _per(counts["dinkelbach.outer_iters"], calls["dinkelbach.solve"]),
        "models.ratio_us": pair("models", "eval_f", "eval_g", "eval_g"),
        "models.grad_us": pair("models", "grad_f", "grad_g", "grad_g"),
        "backtest.load_ms": _per(total["backtest.load"], calls["backtest.load"], 1e3),
        "backtest.period_self_us": _per(own["backtest.run.srm-pga"], periods, 1e6),
        "backtest.write_ms": _per(total["backtest.write"], calls["backtest.write"], 1e3),
        "backtest.periods": _per(periods, ops),
        "backtest.nonconverged_periods": _per(counts["backtest.nonconverged_periods"], ops),
        "cli.main_ms": _per(total["cli.main"], calls["cli.main"], 1e3),
        "trace.absent_layers": float(len(rec.absent)),
    }
    m["models.oracle_us"] = m["models.ratio_us"] + m["models.grad_us"]
    return m
