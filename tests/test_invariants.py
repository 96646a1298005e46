"""Run-level invariants that every registered solver must keep."""

from types import SimpleNamespace

import numpy as np
import pytest

from adafd import (
    GradScheme,
    ImfilConfig,
    Objective,
    build_instance,
    imfil_run,
    random_instance,
    run_solver,
)
from adafd.harness import SOLVER_IDS


@pytest.mark.parametrize("solver_id", SOLVER_IDS)
def test_truncated_means_the_last_record_missed_evaluations(solver_id):
    # a run is truncated exactly when its final operation was cut off at the
    # budget edge, i.e. when some evaluations are not covered by a record
    for n in (2, 5):
        inst = random_instance("least_squares", n=n, seed=n)
        for noise in (0.0, 1e-4):
            for budget in range(n + 1, 60):
                report = run_solver(solver_id, inst, budget, noise, seed=budget,
                                    x0=[0.0] * n)
                recorded = report.trace[-1].evals if report.trace else 1
                assert report.truncated == (report.evals > recorded), (n, noise, budget)


def test_imfil_linesearch_cut_by_the_budget_still_counts_toward_f_best():
    # slope 1 above x=1 and 1e-6 below: the forward stencil at x=1 with h=0.5
    # reads g=1, the trial at x=0 lowers f by 1e-6 but fails the Armijo test,
    # and a budget of 1 + 2 + 1 cuts the linesearch before its second trial
    obj = Objective(dim=1, evaluator=lambda x: 1.0 + (x[0] - 1.0) * (1.0 if x[0] >= 1.0 else 1e-6))
    cfg = ImfilConfig(x1=[1.0], budget=4, scales=[0.5])
    report = imfil_run(obj, GradScheme.FORWARD, cfg)
    assert report.truncated and report.trace == []
    assert report.evals == report.declared_evals == 4
    assert report.best_f == 1.0 - 1e-6


@pytest.mark.parametrize("solver_id", SOLVER_IDS)
def test_final_x_is_the_last_recorded_iterate(solver_id):
    # least squares n=5 from 0.5*1 with budget 1000 cuts Nelder-Mead off in a
    # shrink whose first new vertex (f = 3.06e-30) beats the last complete
    # simplex (f = 1.25e-29); final_x must still be the recorded best vertex
    cases = [(build_instance("least_squares", 5, seed=3), 1000, 0.5 * np.ones(5))]
    for n in (2, 5):
        inst = random_instance("least_squares", n=n, seed=n)
        cases += [(inst, budget, np.zeros(n)) for budget in (n + 1, 7 * n + 3, 200 * n)]
    for inst, budget, x0 in cases:
        report = run_solver(solver_id, inst, budget, 0.0, seed=0, x0=x0)
        if report.trace and np.isfinite(report.trace[-1].f_current):
            assert inst.objective.evaluator(report.final_x) == report.trace[-1].f_current, (
                inst.objective.dim, budget)


@pytest.mark.parametrize("solver_id", SOLVER_IDS)
def test_a_nan_start_value_does_not_poison_best_f(solver_id):
    # f(x) = x.x + sum(x) is NaN only at x1 = 0; best_f is the lowest other value
    def f(x):
        return float(x @ x + x.sum()) if x.any() else float("nan")

    inst = SimpleNamespace(objective=Objective(dim=3, evaluator=f,
                                               lipschitz_grad_fn=lambda: 2.0))
    report = run_solver(solver_id, inst, 600, 0.0, seed=0, x0=np.zeros(3))
    if solver_id.endswith("fordif") or solver_id == "rg":
        # a forward stencil or rg probe shares the NaN base value, so every
        # gradient and every later point is NaN: no value other than NaN is seen
        assert np.isnan(report.best_f)
        assert all(np.isnan(r.f_current) for r in report.trace)
        return
    assert not np.isnan(report.best_f)
    assert report.best_f <= min(r.f_best for r in report.trace if not np.isnan(r.f_best))
    if solver_id == "nelder-mead":
        assert report.best_f == report.trace[-1].f_current == pytest.approx(-0.75)
