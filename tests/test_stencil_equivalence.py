"""Stencil kernels against per-point evaluation on a pinned grid.

Each run is repeated on the same objective without its ``stencil_evaluator``,
which makes every stencil loop over the scalar evaluator. Evaluation counts
and step sequences must match exactly; ``best_f`` may differ only by the
kernels' rounding (least squares and Rosenbrock in closed form, f(x) plus the
change the moved coordinate makes; image restoration the base residual plus
one column per point, instead of one matrix-vector product per point). At the
default ``problems.STENCIL_BLOCK_BYTES`` every kernel call here is one block,
so the last test shrinks the budget until n = 70 spans several blocks of the
one blocked kernel, image restoration's, in both schemes.
"""

import dataclasses

import numpy as np
import pytest

from adafd import DfbConfig, DfcConfig, GradScheme, build_instance, dfb_run, dfc_run
from adafd import problems
from adafd.problems import FAMILIES, IMAGE_RESTORATION

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
def test_stencil_run_matches_per_point_run(family, solver, scheme, seed, n):
    objective = build_instance(family, n, seed=seed).objective
    assert objective.stencil_evaluator is not None
    kernel = _run(objective, solver, scheme, seed)
    scalar = _run(dataclasses.replace(objective, stencil_evaluator=None), solver, scheme, seed)

    assert kernel.evals == scalar.evals
    assert [r.evals for r in kernel.trace] == [r.evals for r in scalar.trace]
    assert [r.step_status for r in kernel.trace] == [r.step_status for r in scalar.trace]
    assert kernel.best_f == pytest.approx(scalar.best_f, rel=1e-12, abs=0.0)


#: A block budget that splits an n = 70 image-restoration stencil (70
#: residuals per point) into 3 forward blocks of up to 29 coordinates and 5
#: central blocks of up to 14 coordinates.
SMALL_BLOCK_BYTES = 2**14


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("scheme", list(GradScheme))
@pytest.mark.parametrize("solver", ["dfc", "dfb"])
@pytest.mark.parametrize("family", [IMAGE_RESTORATION])
def test_multi_block_run_matches_per_point_run(family, solver, scheme, seed, monkeypatch):
    n = 70
    per = 1 if scheme is GradScheme.FORWARD else 2
    coords = SMALL_BLOCK_BYTES // (8 * n * per)
    assert -(-n // coords) >= 3  # the stencil spans at least 3 blocks
    monkeypatch.setattr(problems, "STENCIL_BLOCK_BYTES", SMALL_BLOCK_BYTES)
    test_stencil_run_matches_per_point_run(family, solver, scheme, seed, n)
