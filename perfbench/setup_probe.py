"""Time one cold set-up of a workload in a fresh interpreter.

Set-up is importing ``adafd`` and building every problem instance of the
workload, which is what a user pays before the first solver call. Prints one
JSON object with the elapsed seconds and the file ``adafd`` was imported from.

Usage: python3 setup_probe.py <src dir> <workload> <seed> <smoke 0|1>
"""

import json
import sys
import time

import workloads


def main(argv):
    src, workload, seed, smoke = argv[1], argv[2], int(argv[3]), argv[4] == "1"
    exps = workloads.experiments(workload, smoke)
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import adafd

    for e in exps:
        adafd.build_instance(e["family"], e["n"], seed=seed)
    elapsed = time.perf_counter() - t0
    print(json.dumps({"setup_s": elapsed, "adafd": adafd.__file__}))


if __name__ == "__main__":
    main(sys.argv)
