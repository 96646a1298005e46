"""Minor page faults of a cold stencil-heavy run, counted in a fresh interpreter.

In a process that has not yet freed a large array, glibc's heap-trim threshold
is still low. Stencil temporaries above it are returned to the OS when freed
and fault their pages in again on the next stencil block, so a cold run pays
for every block. The Rosenbrock and least-squares kernels are in closed form
and hold O(1) scratch per point; the image-restoration kernel sizes its blocks
by its n residuals per point and reuses one buffer of at most
``problems.STENCIL_BLOCK_BYTES`` for all of them.
On a 2-vCPU x86 host (glibc, numpy 2.4), at 25n and noise 1e-4:

- a cold Rosenbrock n=400 ``dfc-fordif`` run takes about 410 minor faults.
  Patching two terms into blocks of n - 1 base terms per point took about
  610, and building and evaluating whole blocks of points about 13.5k;
- a cold least-squares n=100, m=2000 run takes about 25 for ``dfc-fordif``
  and for ``dfb-cendif``. Blocks of m residuals per point took about 250, and
  blocks sized by n instead of m, so 1.6 or 3.2 MB of residuals per stencil,
  took about 800 and 1,580.

The bounds leave room for other allocators and library versions while still
failing on a fault per block.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

CHILD = r"""
import json, resource, sys
from types import SimpleNamespace

import numpy as np

from adafd import build_instance, run_solver

family, n, m, solver = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]) or None, sys.argv[4]
objective = build_instance(family, n, m=m).objective
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
report = run_solver(solver, SimpleNamespace(objective=objective), 25 * n, 1e-4, 0,
                    np.zeros(n))
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
print(json.dumps({"faults": faults, "evals": report.evals}))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="counts glibc heap behaviour through getrusage on Linux")
@pytest.mark.parametrize("family, n, m, solver, max_faults", [
    ("rosenbrock", 400, 0, "dfc-fordif", 2000),
    ("least_squares", 100, 2000, "dfc-fordif", 500),
    ("least_squares", 100, 2000, "dfb-cendif", 500),
])
def test_cold_run_takes_few_minor_faults(family, n, m, solver, max_faults):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", CHILD, family, str(n), str(m), solver],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["evals"] >= 24 * n  # the run did spend (nearly) its budget
    assert out["faults"] < max_faults, out
