"""Equal seeds give bitwise-equal runs across processes, for every solver.

``tools/trace_grid.py`` runs every solver on every family at three sizes and
two noise levels, plus the direct GDF, DFC and DFB runs, and prints a sha256 per trace CSV
and ``report.json``. Two runs of it in fresh interpreters must print the same
digests, which also keeps the byte-identity tool itself working.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Six runs (3 sizes x 2 noise levels) of each family, each writing one CSV
#: per solver and a report.json: 8 solvers, or 7 on Rosenbrock (no rg); then
#: the eight GDF traces and their report.json; then the five direct DFC and
#: DFB traces and their report.json.
FILES = 6 * (9 + 9 + 8) + 9 + 6


def _digests(out_dir: Path) -> list:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "trace_grid.py"), str(out_dir)],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_two_processes_write_byte_identical_grids(tmp_path):
    first = _digests(tmp_path / "a")
    second = _digests(tmp_path / "b")
    assert len(first) == FILES == 171
    assert first == second
