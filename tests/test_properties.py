"""Run-level contracts as properties over drawn problems, budgets and seeds.

Every registered solver and GDF runs on a drawn family, dimension, noise
level, budget, start and seed. Derandomized, so the examples are the same on
every run.
"""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adafd import GdfConfig, GradScheme, build_instance, emit_csv, gdf_run, run_solver
from adafd.harness import SOLVER_IDS, SOLVERS
from adafd.problems import FAMILIES, ROSENBROCK

GDF_IDS = ("gdf-fordif", "gdf-cendif")


@st.composite
def runs(draw):
    family = draw(st.sampled_from(FAMILIES))
    n = draw(st.integers(2, 6))
    noise = draw(st.one_of(st.just(0.0), st.floats(1e-10, 1e-2)))
    budget = draw(st.integers(n + 1, 40 * n))
    x1 = draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n))
    seed = draw(st.integers(0, 2**32 - 1))
    return family, n, noise, budget, np.array(x1), seed


def _run(solver_id, inst, budget, noise, x1, seed):
    if solver_id in GDF_IDS:
        scheme = GradScheme.FORWARD if solver_id == "gdf-fordif" else GradScheme.CENTRAL
        cfg = GdfConfig(x1=x1, budget=budget, c_seq=1.0, tau=1e-3)
        return gdf_run(inst.objective, scheme, cfg, noise, seed), scheme
    overrides = {"lipschitz": 1e3} if solver_id == "rg" and inst.family == ROSENBROCK else {}
    report = run_solver(solver_id, inst, budget, noise, seed, x1, overrides)
    return report, SOLVERS[solver_id][3]


def _csv_bytes(report, path: Path) -> bytes:
    emit_csv(report.trace, path)
    return path.read_bytes()


@pytest.mark.parametrize("solver_id", SOLVER_IDS + GDF_IDS)
@settings(derandomize=True, max_examples=20, deadline=None)
@given(case=runs())
def test_run_contracts(solver_id, case):
    family, n, noise, budget, x1, seed = case
    inst = build_instance(family, n, seed=seed)
    report, scheme = _run(solver_id, inst, budget, noise, x1, seed)
    trace = report.trace

    assert report.evals == report.declared_evals
    # no call starts at or past the budget: a stencil may overshoot, one point may not
    stencil = 1 if scheme is None else scheme.evals_per_call(n)
    assert report.evals - budget < stencil
    # strictly: the drawn runs reach no stop that costs nothing, whose record
    # would repeat the evals before it (test_gdf.py pins four)
    evals = [1] + [r.evals for r in trace]
    assert all(a < b for a, b in zip(evals, evals[1:]))
    assert report.truncated == (report.evals > evals[-1])

    bests = [r.f_best for r in trace] + [report.best_f]
    for a, b in zip(bests, bests[1:]):
        assert not b > a and (math.isnan(a) or not math.isnan(b))
    finite = [v for r in trace for v in (r.f_current, r.f_best) if math.isfinite(v)]
    assert all(report.best_f <= v for v in finite)
    if noise == 0.0 and trace and math.isfinite(trace[-1].f_current):
        assert inst.objective.evaluator(report.final_x) == trace[-1].f_current

    # the rules read C from the rows, which record the C each step ran with
    cfg = report.config
    for prev, row in zip(trace, trace[1:]):
        if solver_id.startswith("dfc") and row.step_status == "accepted":
            threshold = prev.f_current - cfg["kappa"] * (cfg["mu"] - 2.0) / (
                2.0 * row.C * cfg["mu"]) * row.grad_norm_approx**2
            assert row.f_current <= threshold
        if solver_id.startswith("dfb"):
            assert row.C == (prev.C * cfg["eta"] if prev.step_status == "null" else prev.C)

    if trace:
        again, _ = _run(solver_id, inst, budget, noise, x1, seed)
        with tempfile.TemporaryDirectory() as tmp:
            assert (_csv_bytes(report, Path(tmp) / "a.csv")
                    == _csv_bytes(again, Path(tmp) / "b.csv"))
