"""Run a pinned grid of solver runs and print a sha256 per output file.

Usage::

    PYTHONPATH=src python tools/trace_grid.py OUT_DIR > digests.txt

The grid is every registered solver id on least squares, image restoration
and Rosenbrock, at n in {2, 5, 40} and noise {0, 1e-4}, with budget 30n from
the ``halves`` initial point (rg needs a gradient-Lipschitz constant, so it
is left off Rosenbrock), plus eight direct ``gdf_run`` runs that reach GDF's
schedules, rules, clamping and stops. Each experiment writes its trace CSVs
and ``report.json`` into a subdirectory of OUT_DIR, and the eight GDF runs
write theirs into ``OUT_DIR/gdf``. Five direct DFC and DFB runs reach what
the grid never does and write theirs into ``OUT_DIR/direct``: DFB null steps,
whose escalation moves C and the linesearch floor ``t_min``, a finite ``nu``
that ends the run on ``schedule``, and exhausted searches that stop DFB and
DFC ``stationary``. The script prints one ``<sha256>  <path>`` line per file,
paths relative to OUT_DIR, sorted.

Two checkouts give the same output exactly when every trace and report is
byte-identical, so a refactor is checked by running the script in each and
comparing the two outputs with ``diff``.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from adafd import (
    DfbConfig,
    DfcConfig,
    ExperimentConfig,
    GdfConfig,
    GradScheme,
    Objective,
    build_instance,
    dfb_run,
    dfc_run,
    emit_csv,
    gdf_run,
    run_experiment,
)
from adafd.harness import SOLVER_IDS

FAMILIES = ("least_squares", "image_restoration", "rosenbrock")
DIMS = (2, 5, 40)
NOISES = (0.0, 1e-4)
BUDGET_MULTIPLIER = 30


def _gdf_cases():
    """(name, objective, scheme, config overrides, noise) for the direct GDF runs."""
    n = 5
    ls = build_instance("least_squares", n).objective
    rosen = build_instance("rosenbrock", n).objective
    flat = Objective(dim=n, evaluator=lambda x: 1.0)
    fwd, cen = GradScheme.FORWARD, GradScheme.CENTRAL
    return [
        ("ls-constant-fordif", ls, fwd, {"tau": 0.01}, 0.0),
        ("ls-constant-cendif", ls, cen, {"tau": 0.01}, 1e-4),
        ("rosen-tau-list", rosen, fwd, {"tau": [1e-3] * 12}, 0.0),
        ("rosen-c-list", rosen, cen, {"tau": 1e-3, "c_seq": [1.0, 2.0, 4.0] * 4}, 1e-4),
        ("ls-rules", ls, fwd, {"tau": lambda k, x, g: 0.02 / k,
                               "c_seq": lambda k: 1.0 + k, "nu_seq": lambda k: 0.1 / k}, 1e-4),
        ("ls-clamped", ls, cen, {"tau": lambda k, x, g: 0.01 if k % 3 else -1.0,
                                 "nu_seq": [0.05] * 40}, 0.0),
        ("rosen-diverging", rosen, fwd, {"tau": 0.5, "c_seq": 2.0}, 0.0),
        ("flat-stopped", flat, cen, {"tau": 0.1, "i_max": 4}, 0.0),
    ]


def direct_reports() -> dict:
    """The direct DFC and DFB runs' :class:`RunReport`s by case name, each at
    budget 150 and seed 3. From Rosenbrock's minimizer under noise,
    DFB-forward makes 3 null steps and ends with C = 8."""
    n, budget = 5, 150
    rosen = build_instance("rosenbrock", n).objective
    ls = build_instance("least_squares", n).objective
    flat = Objective(dim=n, evaluator=lambda x: 1.0)
    fwd, cen = GradScheme.FORWARD, GradScheme.CENTRAL
    at_min, halves = np.ones(n), np.full(n, 0.5)
    cases = [
        ("dfb-rosen-min-fordif", dfb_run, rosen, fwd, DfbConfig(x1=at_min, budget=budget), 1e-4),
        ("dfb-rosen-min-cendif", dfb_run, rosen, cen, DfbConfig(x1=at_min, budget=budget), 1e-4),
        ("dfb-ls-nu-list", dfb_run, ls, fwd,
         DfbConfig(x1=halves, budget=budget, nu=[0.05] * 6), 0.0),
        ("dfb-flat-stopped", dfb_run, flat, cen,
         DfbConfig(x1=halves, budget=budget, i_max=4), 0.0),
        ("dfc-flat-stopped", dfc_run, flat, fwd,
         DfcConfig(x1=halves, budget=budget, i_max=4), 0.0),
    ]
    return {name: run(objective, scheme, cfg, noise, 3)
            for name, run, objective, scheme, cfg, noise in cases}


def _summary(report) -> dict:
    return {
        "solver_id": report.solver_id,
        "evals": report.evals,
        "declared_evals": report.declared_evals,
        "best_f": report.best_f,
        "final_C": report.final_C,
        "final_x": [float(v) for v in report.final_x],
        "termination": report.termination,
        "truncated": report.truncated,
        "records": len(report.trace),
    }


def write_runs(out_dir: Path, reports: dict) -> None:
    """One ``trace_<name>.csv`` per report and a ``report.json`` of their summaries."""
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, report in reports.items():
        emit_csv(report.trace, out_dir / f"trace_{name}.csv")
    with open(out_dir / "report.json", "w") as fh:
        json.dump({name: _summary(report) for name, report in reports.items()}, fh,
                  indent=2, sort_keys=True)


def run_grid(out_dir: Path) -> None:
    """Write every experiment, GDF run and direct DFC and DFB run of the grid
    under ``out_dir``."""
    for family in FAMILIES:
        solvers = [s for s in SOLVER_IDS if not (s == "rg" and family == "rosenbrock")]
        for n in DIMS:
            for noise in NOISES:
                run_experiment(ExperimentConfig(
                    family=family, n=n, solvers=solvers, noise_level=noise,
                    budget_multiplier=BUDGET_MULTIPLIER, initial_point="halves",
                    output_dir=out_dir / f"{family}-n{n}-noise{noise:g}"))
    gdf = {}
    for seed, (name, objective, scheme, overrides, noise) in enumerate(_gdf_cases()):
        cfg = GdfConfig(x1=np.full(objective.dim, 0.5),
                        budget=BUDGET_MULTIPLIER * objective.dim, **overrides)
        gdf[name] = gdf_run(objective, scheme, cfg, noise, seed)
    write_runs(out_dir / "gdf", gdf)
    write_runs(out_dir / "direct", direct_reports())


def digests(out_dir: Path) -> list:
    """``<sha256>  <path>`` for every file under ``out_dir``, sorted by path."""
    files = sorted(p for p in out_dir.rglob("*") if p.is_file())
    return [f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.relative_to(out_dir)}"
            for p in files]


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: trace_grid.py OUT_DIR", file=sys.stderr)
        return 2
    out_dir = Path(argv[0])
    out_dir.mkdir(parents=True, exist_ok=True)
    # report.json names each trace by the path it was written to, so the runs
    # use paths relative to OUT_DIR and the digests do not depend on where it is
    os.chdir(out_dir)
    run_grid(Path("."))
    print("\n".join(digests(Path("."))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
