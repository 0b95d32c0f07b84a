#!/usr/bin/env python3
"""Seeded end-to-end and per-layer benchmark of fracopt.

    python3 bench/run.py --workload sharpe-solve --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload paper-sims --seed 1 --seconds 35 --trace 1
    python3 bench/run.py --workload all --seed 1      # every workload, then BENCHMARK.json
    python3 bench/run.py --write-manifest             # only rewrite BENCHMARK.json

One process, one caller, closed loop: each op starts when the previous one
has finished. The timed phase runs whole schedule cycles until ``--seconds``
have passed. ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
runs every op untraced and traced in turn and reports the per-layer
metrics. The last line of standard output is the JSON result; the lines
before it are the human-readable table and run metadata, also written to
``bench/out/``. The library is imported from ``src/`` of this checkout;
without it the command exits with code 2 and prints no result. A reference
optimum that fails its own verification aborts with code 3.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BLAS_THREADS = 1  # at most nproc; one thread keeps small-matrix timings steady
EXIT_NO_SOURCE = 2
EXIT_FAULT = 3

sys.path.insert(0, str(HERE))
import spec  # noqa: E402  (stdlib only)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(spec.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true",
                        help="write BENCHMARK.json at the repository root and exit")
    args = parser.parse_args(argv)
    if not args.write_manifest and args.workload is None:
        parser.error("--workload is required")
    return args


def write_manifest():
    path = ROOT / "BENCHMARK.json"
    path.write_text(json.dumps(spec.manifest(), indent=2) + "\n")
    print(f"wrote {path}")


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.write_manifest:
        write_manifest()
        return 0
    if not (SRC / "fracopt" / "__init__.py").is_file():
        print(f"error: no fracopt source under {SRC}", file=sys.stderr)
        return EXIT_NO_SOURCE
    if args.workload == "all":
        return run_all(args)
    os.environ.update(child_env())  # before numpy loads its BLAS
    sys.path.insert(0, str(SRC))
    import fracopt

    if Path(fracopt.__file__).resolve().parent != SRC / "fracopt":
        print(f"error: imported fracopt from {fracopt.__file__}, not {SRC}", file=sys.stderr)
        return EXIT_NO_SOURCE
    from harness import run_workload
    import reference

    try:
        result = run_workload(args, HERE, child_env())
    except reference.ReferenceFault as exc:
        print(f"benchmark fault: {exc}", file=sys.stderr)
        return EXIT_FAULT
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in its own process (its own peak RSS), then BENCHMARK.json."""
    summary = {}
    for name in spec.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1] if proc.returncode == 0 else lines))
        if proc.returncode != 0:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return proc.returncode
        summary[name] = json.loads(lines[-1])
    write_manifest()
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
