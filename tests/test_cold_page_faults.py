"""Minor page faults of a cold stencil-heavy run, counted in a fresh interpreter.

In a process that has not yet freed a large array, glibc's heap-trim threshold
is still low. Stencil temporaries above it are returned to the OS when freed
and fault their pages in again on the next stencil block, so a cold run pays
for every block. The stencil kernels keep their temporaries within
``STENCIL_BLOCK_BYTES``: a cold Rosenbrock n=400 ``dfc-fordif`` run at 25n
takes about 630 minor faults (2-vCPU x86, glibc, numpy 2.4), where building and
evaluating whole blocks of points took about 13.5k. The bound leaves room for
other allocators and library versions while still failing on a fault per
block.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
MAX_MINOR_FAULTS = 2000

CHILD = r"""
import json, resource
from types import SimpleNamespace

import numpy as np

from adafd import build_instance, run_solver

n = 400
objective = build_instance("rosenbrock", n).objective
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
report = run_solver("dfc-fordif", SimpleNamespace(objective=objective), 25 * n, 1e-4, 0,
                    np.zeros(n))
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
print(json.dumps({"faults": faults, "evals": report.evals}))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="counts glibc heap behaviour through getrusage on Linux")
def test_cold_rosenbrock_run_takes_few_minor_faults():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", CHILD], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["evals"] >= 24 * 400  # the run did spend (nearly) its budget
    assert out["faults"] < MAX_MINOR_FAULTS, out
