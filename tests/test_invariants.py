"""Run-level invariants that every registered solver must keep."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from adafd import (
    BudgetExhausted,
    DfbConfig,
    GdfConfig,
    GradScheme,
    ImfilConfig,
    NelderMeadConfig,
    Objective,
    Oracle,
    RgConfig,
    ValidationError,
    build_instance,
    dfb_run,
    imfil_run,
    random_instance,
    run_solver,
)
from adafd import driver, gdf
from adafd.baselines import ImfilState, RgState, SimplexState, imfil_step, nelder_mead_step, rg_step
from adafd.driver import StepEvals
from adafd.harness import SOLVER_IDS, SOLVERS


@pytest.mark.parametrize("solver_id", SOLVER_IDS)
def test_an_x1_of_another_dimension_is_rejected_before_any_evaluation(solver_id):
    calls = []
    objective = Objective(dim=3, evaluator=lambda x: calls.append(x) or float(x @ x),
                          lipschitz_grad_fn=lambda: 2.0)
    with pytest.raises(ValidationError, match="x1 dimension does not match the objective"):
        run_solver(solver_id, SimpleNamespace(objective=objective), 50, 0.0, seed=0,
                   x0=np.zeros(2))
    assert calls == []


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


def _direct_step(rule: str, evals, x1):
    """Call one step rule directly from the evaluated start, bypassing drive's
    budget check before the step."""
    f1 = evals.oracle.evaluate(x1)
    if rule == "nelder-mead-init":
        cfg = NelderMeadConfig(x1=x1, budget=evals.budget)
        return nelder_mead_step(SimplexState(k=0, x=x1, f_x=f1), evals, None, cfg)
    if rule == "imfil-cendif":
        cfg = ImfilConfig(x1=x1, budget=evals.budget)
        return imfil_step(ImfilState(k=0, x=x1, f_x=f1), evals, GradScheme.CENTRAL, cfg)
    cfg = RgConfig(x1=x1, budget=evals.budget, lipschitz=1e3)
    state = RgState(k=0, x=x1, f_x=f1, directions=np.random.default_rng(0),
                    delta=cfg.smoothing, last_tau=1e-4)
    return rg_step(state, evals, None, cfg)


@pytest.mark.parametrize("rule, budget", [("nelder-mead-init", 3), ("imfil-cendif", 1),
                                          ("rg", 1)])
def test_a_step_called_directly_starts_no_evaluation_at_the_budget(rule, budget):
    oracle = Oracle(build_instance("rosenbrock", 5).objective)
    evals = StepEvals(oracle, budget)
    with pytest.raises(BudgetExhausted):
        _direct_step(rule, evals, np.zeros(5))
    assert oracle.eval_count == budget
    assert evals.cost == budget - 1


def _record_cut_off_steps(monkeypatch, module) -> list:
    """Record each step of ``module``'s runs that the budget cuts off: its
    ``StepEvals``, the evaluations the step made, the values it evaluated
    outside its stencils (at points other than its iterate), and how many of
    them it took through ``Oracle.evaluate_rows``."""
    cuts, evaluated = [], []
    evaluate, evaluate_rows = Oracle.evaluate, Oracle.evaluate_rows

    def recording_evaluate(self, x):
        value = evaluate(self, x)
        evaluated.append((np.array(x, dtype=float), value, False))
        return value

    def recording_rows(self, X):
        for x, value in zip(X, evaluate_rows(self, X)):
            evaluated.append((np.array(x, dtype=float), value, True))
            yield value

    def recording_drive(*args, step, **kwargs):
        def recording_step(state, evals, scheme, cfg):
            first, count = len(evaluated), evals.oracle.eval_count
            try:
                return step(state, evals, scheme, cfg)
            except BudgetExhausted:
                seen = [(v, rows) for x, v, rows in evaluated[first:]
                        if not np.array_equal(x, state.x)]
                cuts.append((evals, evals.oracle.eval_count - count, [v for v, _ in seen],
                             sum(rows for _, rows in seen)))
                raise
        return driver.drive(*args, step=recording_step, **kwargs)

    monkeypatch.setattr(Oracle, "evaluate", recording_evaluate)
    monkeypatch.setattr(Oracle, "evaluate_rows", recording_rows)
    monkeypatch.setattr(module, "drive", recording_drive)
    return cuts


@pytest.mark.parametrize("solver_id", SOLVER_IDS + ("gdf-fordif", "gdf-cendif"))
def test_a_cut_off_step_reports_its_cost_and_lowest_value(solver_id, monkeypatch):
    # every budget from 4 to 80 on least squares n=3 and Rosenbrock n=3 cuts
    # the runs off at every kind of operation: interval searches, decrease
    # tests, linesearches, simplex moves and probes; on both the linesearches
    # take their trials through Oracle.evaluate_rows, by Rosenbrock's
    # rows_evaluator or by one least-squares evaluator call per trial
    module = gdf if solver_id.startswith("gdf") else SOLVERS[solver_id][0]
    cuts = _record_cut_off_steps(monkeypatch, module)
    for inst in (random_instance("least_squares", n=3, seed=3), build_instance("rosenbrock", 3)):
        # Rosenbrock has no gradient-Lipschitz constant for rg to read
        rosenbrock_rg = solver_id == "rg" and inst.family == "rosenbrock"
        overrides = {"lipschitz": 1e3} if rosenbrock_rg else None
        for noise in (0.0, 1e-4):
            for budget in range(4, 81):
                if module is gdf:
                    scheme = (GradScheme.FORWARD if solver_id.endswith("fordif")
                              else GradScheme.CENTRAL)
                    cfg = GdfConfig(x1=np.zeros(3), budget=budget, tau=0.01)
                    gdf.gdf_run(inst.objective, scheme, cfg, noise, budget)
                else:
                    run_solver(solver_id, inst, budget, noise, seed=budget, x0=np.zeros(3),
                               overrides=overrides)
    assert cuts
    candidates, from_rows = [], 0
    linesearches = solver_id.startswith(("dfb", "imfil"))
    for ledger, spent, seen, rows in cuts:
        from_rows += rows
        assert ledger.cost == spent
        # DFB's and implicit filtering's candidates are all linesearch trials
        assert rows == (len(seen) if linesearches else 0)
        assert isinstance(ledger.low, float)
        if solver_id == "rg":
            seen = []  # the probe at x + sigma u is not an iterate value
        candidates += seen
        finite = [v for v in seen if not math.isnan(v)]
        expected = min(finite) if finite else math.nan
        assert ledger.low == expected or math.isnan(ledger.low) and math.isnan(expected)
    # DFB's and implicit filtering's linesearches and the simplex moves are
    # cut off after some candidate; the other steps end with their only one
    assert bool(candidates) == solver_id.startswith(("dfb", "nelder", "imfil"))
    # and DFB's and implicit filtering's take them as rows
    assert bool(from_rows) == linesearches


@pytest.mark.parametrize("solver_id", SOLVER_IDS + ("gdf-fordif",))
def test_the_declared_count_catches_a_step_that_bypasses_its_ledger(solver_id, monkeypatch):
    # drive declares what each step's StepEvals counted, not what the oracle
    # counted, so one evaluation per step made around the ledger still shows
    module = gdf if solver_id.startswith("gdf") else SOLVERS[solver_id][0]

    def bypassing_drive(*args, step, **kwargs):
        def bypassing_step(state, evals, scheme, cfg):
            evals.oracle.evaluate(state.x)
            return step(state, evals, scheme, cfg)
        return driver.drive(*args, step=bypassing_step, **kwargs)

    def run():
        if module is gdf:
            cfg = GdfConfig(x1=np.zeros(3), budget=60, tau=0.01)
            return gdf.gdf_run(inst.objective, GradScheme.FORWARD, cfg)
        return run_solver(solver_id, inst, 60, 0.0, seed=0, x0=np.zeros(3))

    inst = random_instance("least_squares", n=3, seed=3)
    honest = run()
    assert honest.evals == honest.declared_evals
    monkeypatch.setattr(module, "drive", bypassing_drive)
    report = run()
    assert report.trace and report.evals != report.declared_evals


@pytest.mark.parametrize("rule, scheme, settings, evals, last_record", [
    # the fourth step's search (one central stencil, 6 evaluations) runs before
    # its stepsize lookup finds the tau list spent
    ("gdf", GradScheme.CENTRAL, {"tau": [0.1] * 3}, 28, 22),
    # C_k and nu_k are looked up before the search, so the third step costs nothing
    ("gdf", GradScheme.FORWARD, {"tau": 0.1, "c_seq": [1.0] * 2}, 11, 11),
    ("gdf", GradScheme.FORWARD, {"tau": 0.1, "nu_seq": [0.1] * 2}, 11, 11),
    ("dfb", GradScheme.FORWARD, {"nu": [0.1] * 2}, 20, 20),
])
def test_a_step_cut_off_by_its_schedule_declares_its_search_cost(rule, scheme, settings, evals,
                                                                 last_record):
    objective = Objective(dim=3, evaluator=lambda x: float(x @ x))
    if rule == "gdf":
        report = gdf.gdf_run(objective, scheme, GdfConfig(x1=np.ones(3), budget=300, **settings))
    else:
        report = dfb_run(objective, scheme, DfbConfig(x1=np.ones(3), budget=300, **settings))
    assert report.termination == "schedule" and not report.truncated
    assert report.evals == report.declared_evals == evals
    assert report.trace[-1].evals == last_record


@pytest.mark.parametrize("solver_id", SOLVER_IDS)
def test_final_C_is_nan_for_a_solver_without_a_proxy(solver_id):
    inst = random_instance("least_squares", n=3, seed=3)
    report = run_solver(solver_id, inst, 200, 0.0, seed=0, x0=np.zeros(3))
    assert isinstance(report.final_C, float)
    if solver_id.startswith(("dfc", "dfb")):
        assert report.final_C >= 1.0
    else:
        assert math.isnan(report.final_C)
