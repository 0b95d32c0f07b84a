"""One fresh-interpreter set-up measurement, printed as JSON.

    python3 bench/setup_probe.py <workload> <seed>

Times ``import fracopt`` (numpy included, since nothing imports it before)
and the workload's ``build()``, which turns generated data into library
inputs through fracopt's public constructors. Generating the data is not
timed. ``run.py`` runs this several times and reports the median as setup_s.
"""

import json
import sys
import time


def main(name, seed):
    t0 = time.perf_counter()
    import fracopt  # noqa: F401

    t1 = time.perf_counter()
    import workloads

    workload = workloads.WORKLOADS[name](seed)
    t2 = time.perf_counter()
    workload.build()
    t3 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "build_s": t3 - t2}))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
