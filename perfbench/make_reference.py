"""Regenerate ``reference.json``, the pinned facts of every solver run.

For each workload and seed it runs the experiment list once and stores, per
solver run, the evaluation count, iteration count, a hash of the step-status
sequence and ``best_f``. Seeds 0..REFERENCE_SEEDS-1 are pinned, and smoke
mode at seed 0. Run it only at a commit whose behaviour is meant to be the
reference:

    python3 perfbench/make_reference.py
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run  # pins BLAS threads before numpy is imported
import checks
import workloads

REFERENCE_SEEDS = 20


def main() -> int:
    adafd = run.import_adafd()
    run.TMP_DIR.mkdir(exist_ok=True)
    tmp_root = Path(tempfile.mkdtemp(dir=run.TMP_DIR))
    table = {}
    try:
        for name in workloads.WORKLOADS:
            for smoke, seeds in ((False, range(REFERENCE_SEEDS)), (True, [0])):
                entry = table.setdefault(checks.reference_key(name, smoke), {})
                for seed in seeds:
                    wl = run.Workload(adafd, name, seed, smoke, tmp_root)
                    wl.reference = {}
                    wl.repetition()
                    if wl.failed:
                        print(f"{name} seed {seed}: a check failed", file=sys.stderr)
                        return 1
                    entry[str(seed)] = wl.first
                    print(f"{checks.reference_key(name, smoke)} seed {seed}: "
                          f"{len(wl.first)} runs", flush=True)
    finally:
        shutil.rmtree(tmp_root)
    with open(checks.REFERENCE_PATH, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
