"""Batched stencils against per-point evaluation on a pinned grid.

Each run is repeated on the same objective without its ``batch_evaluator``,
which makes every stencil loop over the scalar evaluator. Evaluation counts
and step sequences must match exactly; ``best_f`` may differ only by the
rounding of a matrix product over a block of points instead of one point at a
time. Rosenbrock has no matrix product, so its traces are byte-identical.
n = 70 puts both stencils across the 64-row block boundary.
"""

import dataclasses

import numpy as np
import pytest

from adafd import DfbConfig, DfcConfig, GradScheme, build_instance, dfb_run, dfc_run, emit_csv
from adafd.problems import FAMILIES, ROSENBROCK

NOISE = 1e-4


def _run(objective, solver, scheme, seed):
    run, config = (dfc_run, DfcConfig) if solver == "dfc" else (dfb_run, DfbConfig)
    n = objective.dim
    return run(objective, scheme, config(x1=np.zeros(n), budget=20 * n), NOISE, seed)


@pytest.mark.parametrize("n", [5, 70])
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("scheme", list(GradScheme))
@pytest.mark.parametrize("solver", ["dfc", "dfb"])
@pytest.mark.parametrize("family", FAMILIES)
def test_batched_run_matches_per_point_run(family, solver, scheme, seed, n, tmp_path):
    objective = build_instance(family, n, seed=seed).objective
    assert objective.batch_evaluator is not None
    batched = _run(objective, solver, scheme, seed)
    scalar = _run(dataclasses.replace(objective, batch_evaluator=None), solver, scheme, seed)

    assert batched.evals == scalar.evals
    assert [r.evals for r in batched.trace] == [r.evals for r in scalar.trace]
    assert [r.step_status for r in batched.trace] == [r.step_status for r in scalar.trace]
    assert batched.best_f == pytest.approx(scalar.best_f, rel=1e-12, abs=0.0)
    if family == ROSENBROCK:
        emit_csv(batched.trace, tmp_path / "batched.csv")
        emit_csv(scalar.trace, tmp_path / "scalar.csv")
        assert (tmp_path / "batched.csv").read_bytes() == (tmp_path / "scalar.csv").read_bytes()
