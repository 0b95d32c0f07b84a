"""Timed phase, traced phase, checks and metrics of one benchmark run."""

import ctypes
import glob
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

import fracopt
import spans
import spec
from workloads import GAP_FLOOR, WORKLOADS

P90_MIN_OPS = 100  # at least 10 samples beyond the 90th percentile
SETUP_PROBES = 12
CLI_PROBES = 5


class Tally:
    """Latencies and check outcomes of the ops of one phase."""

    def __init__(self):
        self.latency = array("d")
        self.gaps = array("d")
        self.by_kind = defaultdict(lambda: array("d"))
        self.failed = self.wrong = self.misses = self.unobserved = 0
        self.problems = []
        self.errors = set()

    def add(self, op, latency, judgement, error):
        self.latency.append(latency)
        self.by_kind[op[0] if isinstance(op, tuple) else "op"].append(latency)
        if error is not None:
            self.failed += 1
            self.errors.add(error)
            return
        self.failed += judgement.failed
        self.wrong += judgement.silent_wrong
        self.misses += judgement.miss
        self.unobserved += judgement.unobserved
        self.problems += judgement.problems[: 5 - len(self.problems)]
        self.gaps.extend(max(g, GAP_FLOOR) for g in judgement.gaps)

    @property
    def ops(self):
        return len(self.latency)


def attempt(workload, op):
    """Run and time one op: (latency, digest, error). An exception fails the op."""
    t0 = time.perf_counter()
    try:
        out = workload.run(op)
    except Exception as exc:  # the loop must go on: every attempted op is counted
        return time.perf_counter() - t0, None, f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - t0
    try:
        return latency, workload.digest(op, out), None
    except Exception as exc:
        return latency, None, f"unreadable output: {type(exc).__name__}: {exc}"


class Phase:
    """Runs ops into a tally. Ops of workloads whose references need scipy are
    judged after the timed phase, so that peak RSS excludes scipy."""

    def __init__(self, workload):
        self.workload = workload
        self.tally = Tally()
        self.pending = []

    def run(self, op):
        self.record(op, *attempt(self.workload, op))

    def record(self, op, latency, digest, error):
        if error is None and not self.workload.judge_inline:
            self.pending.append((op, latency, digest))
            return
        judgement = None if error else self.workload.judge(op, digest)
        self.tally.add(op, latency, judgement, error)

    def finish(self):
        for op, latency, digest in self.pending:
            self.tally.add(op, latency, self.workload.judge(op, digest), None)
        self.pending = []
        return self.tally


def whole_cycles(workload, seconds, run_op, setup=None):
    """Run cycles 0, 1, ... while the next one is expected to end nearer to
    `seconds` than stopping now would; returns (wall seconds, cycles).
    Set-up probes due by then run between ops, off the clock."""
    start = time.perf_counter()
    paused = 0.0
    k = 0
    while True:
        for op in workload.cycle(k):
            if setup is not None:
                paused += setup.run_due((time.perf_counter() - start - paused) / seconds)
            run_op(op)
        k += 1
        elapsed = time.perf_counter() - start - paused
        if elapsed + 0.5 * elapsed / k >= seconds:
            return elapsed, k


def timed_phase(workload, seconds, setup=None):
    phase = Phase(workload)
    wall, cycles = whole_cycles(workload, seconds, phase.run, setup)
    return phase, wall, cycles


def traced_phase(workload, seconds):
    """Each op untraced and traced in turn, alternating which goes first."""
    rec = spans.Recorder()
    patches = spans.Patches(rec)
    plain, traced = Phase(workload), Phase(workload)

    def run_traced(op):
        patches.apply()
        try:
            outcome = attempt(workload, op)
        finally:
            patches.restore()
            rec.end_op()
        traced.record(op, *outcome)

    turn = 0

    def run_pair(op):
        nonlocal turn
        pair = (plain.run, run_traced) if turn % 2 == 0 else (run_traced, plain.run)
        turn += 1
        for run in pair:
            run(op)

    wall, cycles = whole_cycles(workload, seconds, run_pair)
    return rec, plain, traced, wall, cycles


def machine_probe_ms(reps=5):
    """Median time of a fixed small numpy loop: recorded before and after the
    timed phase so that run-to-run drift of the machine itself is visible."""
    x = np.linspace(-1.0, 1.0, 64)
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for _ in range(2000):
            np.cumsum(np.sort(x)[::-1])
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def _median_subprocess_s(cmd, env, runs, check=None):
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0 or (check is not None and not check(proc.stdout)):
            raise RuntimeError(f"{cmd[1:]} failed ({proc.returncode}): {proc.stderr.strip()}")
    return statistics.median(times)


class SetupProbes:
    """setup_s: fresh interpreters that each time `import fracopt` plus the
    workload's build(). They are spread over the timed phase, so that the
    median covers the same stretch of machine time as the op metrics."""

    def __init__(self, here, name, seed, env):
        self.cmd = [sys.executable, str(here / "setup_probe.py"), name, str(seed)]
        self.env = env
        self.samples = []

    def run_one(self):
        t0 = time.perf_counter()
        proc = subprocess.run(self.cmd, env=self.env, stdout=subprocess.PIPE, text=True,
                              timeout=120, check=True)
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        self.samples.append(probe["import_s"] + probe["build_s"])
        return time.perf_counter() - t0

    def run_due(self, fraction):
        """Run one probe if fewer than `fraction` of them have run; its wall time."""
        if len(self.samples) < min(fraction, 1.0) * SETUP_PROBES:
            return self.run_one()
        return 0.0

    def finish(self):
        while len(self.samples) < SETUP_PROBES:
            self.run_one()
        return statistics.median(self.samples)


def cli_cold_seconds(workload, env):
    """Median wall time of `python -m fracopt.cli sim1 ...` as a fresh process."""
    best = workload.optimum("sim1", 0)
    argv = workload.cli_argv("cli-sim1", 0)

    def check(stdout):
        line = next(x for x in stdout.splitlines() if x.startswith("objective:"))
        return abs(float(line.split(":")[1]) - best) <= 5e-5 + 1e-9

    return _median_subprocess_s([sys.executable, "-m", "fracopt.cli"] + argv, env, CLI_PROBES, check)


def cli_import_seconds(env):
    bare = _median_subprocess_s([sys.executable, "-c", "pass"], env, CLI_PROBES)
    cold = _median_subprocess_s([sys.executable, "-c", "import fracopt.cli"], env, CLI_PROBES)
    return cold - bare


def blas_info():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # older numpy: no dict mode
        name = "unknown"
    threads = None
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = int(fn())
                break
    return {"library": name, "threads": threads,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}


def git_commit(root):
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, timeout=30)
        return proc.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def metadata(args, workload, root):
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "shapes": workload.shapes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "fracopt": getattr(fracopt, "__version__", None),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas_info(),
        "git_commit": git_commit(root),
        "closed_loop": "1 caller, each op starts after the previous one finishes",
    }


def run_workload(args, here, env):
    workload = WORKLOADS[args.workload](args.seed)
    workdir = None
    if hasattr(workload, "materialize"):
        os.makedirs(here / ".work", exist_ok=True)
        workdir = here / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
        os.makedirs(workdir)
    try:
        if workdir is not None:
            workload.materialize(str(workdir))
        workload.build()
        if args.trace:
            return _traced_run(args, workload, here, env)
        return _untraced_run(args, workload, here, env)
    finally:
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)


def _untraced_run(args, workload, here, env):
    setup = SetupProbes(here, args.workload, args.seed, env)
    probe_before = machine_probe_ms()
    phase, wall, cycles = timed_phase(workload, args.seconds, setup)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    probe_after = machine_probe_ms()
    setup_s = setup.finish()
    tally = phase.finish()
    n = tally.ops
    lat_ms = np.asarray(tally.latency) * 1e3
    gaps = np.asarray(tally.gaps) if len(tally.gaps) else np.array([GAP_FLOOR])
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": n / wall,
        "op_ms_p50": float(np.median(lat_ms)),
        "peak_rss_mb": peak_rss_mb,
    }
    reported = {
        "fail_share": tally.failed / n,
        "silent_wrong_share": tally.wrong / n,
        "gap_max": float(gaps.max()),
        "gap_p50": float(np.median(gaps)),
    }
    if n >= P90_MIN_OPS:
        reported["op_ms_p90"] = float(np.quantile(lat_ms, 0.9))
    if args.workload == "paper-sims":
        reported["cli_cold_s"] = cli_cold_seconds(workload, env)
    meta = metadata(args, workload, here.parent)
    meta.update({
        "ops": n, "cycles": cycles, "timed_wall_s": wall, "setup_samples_s": setup.samples,
        "failed": tally.failed, "silent_wrong": tally.wrong, "gaps_measured": len(tally.gaps),
        "analytic_check_misses": tally.misses,
        "status_unobserved_ops": tally.unobserved,
        "op_ms_by_kind": _by_kind(tally),
        "machine_probe_ms": [probe_before, probe_after],
        "errors": sorted(tally.errors)[:5],
        "problems": tally.problems,
    })
    units = {name: unit for name, unit, *_ in spec.END_TO_END + spec.REPORTED}
    _report(args, meta, {**metrics, **reported}, units, here)
    return _result(not tally.problems, n, tally.failed, metrics, units)


def _traced_run(args, workload, here, env):
    rec, plain, traced, wall, cycles = traced_phase(workload, args.seconds)
    plain, traced = plain.finish(), traced.finish()
    metrics = spans.layer_metrics(rec)
    overhead = sum(traced.latency) / sum(plain.latency) - 1.0
    metrics["trace.overhead_share"] = overhead
    metrics["cli.import_s"] = cli_import_seconds(env) if args.workload == "paper-sims" else 0.0
    meta = metadata(args, workload, here.parent)
    meta.update({
        "ops": traced.ops, "cycles": cycles, "timed_wall_s": wall,
        "absent_layers": sorted(rec.absent), "spans_kept": len(rec.kept),
        "failed": traced.failed, "errors": sorted(plain.errors | traced.errors)[:5],
        "problems": (traced.problems + plain.problems)[:5],
    })
    os.makedirs(here / "out", exist_ok=True)
    span_path = here / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with open(span_path, "w") as fh:
        for span_id, name, start, end, parent, op in rec.kept:
            fh.write(json.dumps({"id": span_id, "name": name, "start": start, "end": end,
                                 "parent": parent, "op": op}) + "\n")
    meta["spans_file"] = str(span_path.relative_to(here.parent))
    units = {name: unit for name, unit, *_ in spec.PER_LAYER}
    _report(args, meta, metrics, units, here)
    correct = not (plain.problems or traced.problems)
    return _result(correct, traced.ops, traced.failed, metrics, units)


def _by_kind(tally):
    return {k: {"n": len(v), "median_ms": 1e3 * statistics.median(v)}
            for k, v in tally.by_kind.items()}


def _result(correct, attempted, failed, metrics, units):
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units if k in metrics},
    }


def _report(args, meta, values, units, here):
    print(f"# fracopt benchmark: workload={args.workload} seed={args.seed} trace={args.trace}")
    for key, value in meta.items():
        print(f"# {key}: {json.dumps(value)}")
    print(f"{'metric':<32} {'value':>14}  unit")
    for name, unit in units.items():
        if name in values:
            note = f"  (n={meta['ops']})" if name.startswith("op_ms") else ""
            print(f"{name:<32} {values[name]:>14.6g}  {unit}{note}")
    os.makedirs(here / "out", exist_ok=True)
    path = here / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({"meta": meta, "metrics": values}, indent=2) + "\n")
