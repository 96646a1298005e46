"""The benchmark script must keep running: one smoke pass, numbers not gated."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_smoke_run_passes_its_checks():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    metrics = result["metrics"]
    assert metrics["fd-solvers.dfc.step_calls"]["value"] > 0
    assert metrics["fd-solvers.dfb.step_calls"]["value"] > 0
    # the span wrappers rebind module attributes, so a run function the solver
    # table resolved once, ahead of them, would read 0 here
    assert metrics["simplex-nm.baselines.nelder_mead_self_s"]["value"] > 0
    assert metrics["fd-solvers.baselines.imfil_self_s"]["value"] > 0
    assert metrics["fd-solvers.dfc.run_self_s"]["value"] > 0
