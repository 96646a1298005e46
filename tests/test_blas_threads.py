"""Runs against the BLAS thread count: the reproducibility contract is bitwise
at one thread count, not across thread counts.

A small least-squares and Rosenbrock grid runs in two child processes, one
with ``OPENBLAS_NUM_THREADS=1`` and one with ``2``, set in the child's
environment only. Evaluation counts and step sequences must match exactly.
The batched least-squares stencils evaluate a block with one matrix product,
whose blocking may change with the thread count, so there ``best_f`` may
differ by rounding; Rosenbrock (no matrix product) and the scalar path
(``batch_evaluator=None``, one matrix-vector product per point) must give
byte-identical CSVs.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

CHILD = r"""
import dataclasses, hashlib, json, sys, tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from adafd import build_instance, emit_csv, run_solver

n = 400  # two threads round the batch product differently here (2-vCPU x86, OpenBLAS 0.3.31)
out = {}
with tempfile.TemporaryDirectory() as tmp:
    for family in ("least_squares", "rosenbrock"):
        objective = build_instance(family, n, seed=1).objective
        paths = {"batch": objective, "scalar": dataclasses.replace(objective, batch_evaluator=None)}
        for path, obj in paths.items():
            for sid in ("dfc-fordif", "dfb-cendif"):
                report = run_solver(sid, SimpleNamespace(objective=obj), 10 * n, 1e-4, 1,
                                    np.zeros(n))
                csv = Path(tmp) / "trace.csv"
                emit_csv(report.trace, csv)
                out[f"{family}/{path}/{sid}"] = {
                    "evals": report.evals,
                    "row_evals": [r.evals for r in report.trace],
                    "steps": [r.step_status for r in report.trace],
                    "best_f": report.best_f,
                    "csv": hashlib.sha256(csv.read_bytes()).hexdigest(),
                }
print(json.dumps(out))
"""


def _run_child(threads: int) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", CHILD], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_runs_agree_across_blas_thread_counts():
    one, two = _run_child(1), _run_child(2)
    assert one.keys() == two.keys() and len(one) == 8
    for key, a in one.items():
        b = two[key]
        assert a["evals"] == b["evals"], key
        assert a["row_evals"] == b["row_evals"], key
        assert a["steps"] == b["steps"], key
        assert a["best_f"] == pytest.approx(b["best_f"], rel=1e-12, abs=0.0), key
        if not key.startswith("least_squares/batch/"):
            assert a["csv"] == b["csv"], key
