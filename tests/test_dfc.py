import numpy as np
import pytest

from adafd import (
    DfcConfig,
    GradScheme,
    Oracle,
    SearchState,
    dfc_run,
    dfc_step,
    random_instance,
)
from adafd.driver import StepEvals

from conftest import constant_objective, sphere_objective


def _fresh_state(x, f_x, delta=1.0, C=1.0):
    return SearchState(k=0, x=np.asarray(x, float), delta=delta, C=C, f_x=f_x)


def test_step_accepts_hand_simulated_quadratic():
    # x = 1, kappa = 0.5: the interval search yields g = 2 with delta_next 0.25,
    # the candidate 1 - 0.5 * 2 = 0 satisfies f(0) = 0 <= 1 - (1/8) * 4 = 0.5
    obj = sphere_objective(1)
    oracle = Oracle(obj)
    cfg = DfcConfig(x1=[1.0], budget=100, delta1=1.0, c1=1.0, kappa=0.5)
    state = dfc_step(_fresh_state([1.0], 1.0), StepEvals(oracle, cfg.budget),
                     GradScheme.CENTRAL, cfg)
    assert state.last_step == "accepted"
    assert state.x[0] == pytest.approx(0.0, abs=1e-12)
    assert state.C == 1.0
    assert state.delta == pytest.approx(0.25)
    assert state.f_x == pytest.approx(0.0, abs=1e-12)
    assert state.last_tau == pytest.approx(0.5)


def test_step_rejects_with_oversized_kappa():
    # kappa = 10 overshoots to x' = -19 with f = 361 > 1 - 10 = -9: reject
    obj = sphere_objective(1)
    oracle = Oracle(obj)
    cfg = DfcConfig(x1=[1.0], budget=100, delta1=1.0, c1=1.0, kappa=10.0, r=2.0)
    evals = StepEvals(oracle, cfg.budget)
    state = dfc_step(_fresh_state([1.0], 1.0), evals, GradScheme.CENTRAL, cfg)
    assert state.last_step == "rejected"
    assert state.x[0] == 1.0
    assert state.f_x == 1.0
    assert state.C == 2.0  # escalated by exactly r
    assert evals.low == pytest.approx(361.0)


def test_step_stops_on_constant_objective():
    obj = constant_objective(1)
    oracle = Oracle(obj)
    cfg = DfcConfig(x1=[0.0], budget=10_000, i_max=8)
    state = dfc_step(_fresh_state([0.0], 3.0), StepEvals(oracle, cfg.budget),
                     GradScheme.CENTRAL, cfg)
    assert state.last_step == "stopped"
    assert state.x[0] == 0.0


def test_stepping_a_stopped_state_is_an_error():
    obj = constant_objective(1)
    oracle = Oracle(obj)
    cfg = DfcConfig(x1=[0.0], budget=10_000, i_max=4)
    state = dfc_step(_fresh_state([0.0], 3.0), StepEvals(oracle, cfg.budget),
                     GradScheme.CENTRAL, cfg)
    with pytest.raises(RuntimeError):
        dfc_step(state, StepEvals(oracle, cfg.budget), GradScheme.CENTRAL, cfg)


def test_budget_zero_reports_one_initial_evaluation():
    report = dfc_run(sphere_objective(2), GradScheme.CENTRAL,
                     DfcConfig(x1=[1.0, 1.0], budget=0))
    assert report.trace == []
    assert report.evals == 1
    assert report.declared_evals == 1
    assert report.best_f == 2.0


def test_sphere_run_reaches_floor_and_keeps_C_constant():
    cfg = DfcConfig(x1=[1.0, 1.0], budget=500)
    report = dfc_run(sphere_objective(2), GradScheme.CENTRAL, cfg)
    assert report.best_f <= 1e-8
    second_half = report.trace[len(report.trace) // 2:]
    assert all(r.C == second_half[0].C for r in second_half)
    assert report.evals == report.declared_evals


def test_least_squares_optimality_gap():
    # n = 10, m = 20 is an inconsistent system: the least-squares optimum
    # f* = ||b - A x_lsq||^2 is strictly positive (about 0.6 of f(0) here), so
    # progress is measured as the optimality gap, not the raw value.
    inst = random_instance("least_squares", 10, m=20, seed=42)
    x_opt, *_ = np.linalg.lstsq(inst.A, inst.b, rcond=None)
    f_opt = float(np.sum((inst.A @ x_opt - inst.b) ** 2))
    cfg = DfcConfig(x1=np.zeros(10), budget=2000)
    f_start = float(np.sum(inst.b**2))
    report = dfc_run(inst.objective, GradScheme.FORWARD, cfg)
    gap = report.best_f - f_opt
    assert gap <= 1e-3 * (f_start - f_opt)
    assert report.evals == report.declared_evals


def test_monotone_descent_and_step_one_postcondition():
    inst = random_instance("least_squares", 6, seed=3)
    cfg = DfcConfig(x1=np.zeros(6), budget=1200)
    for scheme in (GradScheme.FORWARD, GradScheme.CENTRAL):
        report = dfc_run(inst.objective, scheme, cfg)
        fs = [r.f_current for r in report.trace]
        assert all(b <= a for a, b in zip(fs, fs[1:]))
        for rec in report.trace:
            if rec.step_status == "stopped":
                continue
            assert rec.grad_norm_approx > cfg.mu * rec.C * rec.delta
            # equality of f across rejected steps, decrease on accepted ones
        for prev, rec in zip(report.trace, report.trace[1:]):
            if rec.step_status == "rejected":
                assert rec.f_current == prev.f_current


def test_accepted_decrease_inequality_as_evaluated():
    inst = random_instance("least_squares", 5, seed=9)
    cfg = DfcConfig(x1=np.zeros(5), budget=900)
    report = dfc_run(inst.objective, GradScheme.CENTRAL, cfg)
    prev_f = None
    for i, rec in enumerate(report.trace):
        if i == 0:
            prev_f = float(np.sum(inst.b**2))
        if rec.step_status == "accepted":
            required = cfg.kappa * (cfg.mu - 2) / (2 * rec.C * cfg.mu)
            assert prev_f - rec.f_current >= required * rec.grad_norm_approx**2 - 1e-15
        prev_f = rec.f_current
    assert any(r.step_status == "accepted" for r in report.trace)


def test_escalations_are_finite_and_bounded():
    kappa = 0.5
    for seed in (0, 1, 2):
        inst = random_instance("least_squares", 8, seed=seed)
        L = inst.objective.lipschitz_grad_constant
        cfg = DfcConfig(x1=np.zeros(8), budget=1600, kappa=kappa)
        report = dfc_run(inst.objective, GradScheme.FORWARD, cfg)
        escalations = sum(1 for r in report.trace if r.step_status == "rejected")
        bound = np.ceil(np.log2(max(L * np.sqrt(8) / 2, L * kappa) / cfg.c1)) + 1
        assert escalations <= bound
        # each escalation multiplies C by exactly r, and C never decreases
        assert report.final_C == pytest.approx(cfg.c1 * cfg.r**escalations)
        cs = [r.C for r in report.trace]
        assert all(b >= a for a, b in zip(cs, cs[1:]))


def test_rejected_steps_keep_iterate_and_delta_passes_forward():
    inst = random_instance("least_squares", 4, seed=5)
    cfg = DfcConfig(x1=np.zeros(4), budget=800)
    report = dfc_run(inst.objective, GradScheme.CENTRAL, cfg)
    for prev, rec, prev_x, x in zip(report.trace, report.trace[1:],
                                    report.iterates[1:], report.iterates[2:]):
        if rec.step_status == "rejected":
            assert np.array_equal(prev_x, x)
        assert rec.delta <= prev.delta  # the radius never grows across iterations


def test_budget_overshoot_is_at_most_one_call():
    inst = random_instance("least_squares", 10, seed=1)
    cfg = DfcConfig(x1=np.zeros(10), budget=500)
    report = dfc_run(inst.objective, GradScheme.CENTRAL, cfg)
    per_call = GradScheme.CENTRAL.evals_per_call(10)
    assert report.evals <= cfg.budget - 1 + per_call
    assert report.evals == report.declared_evals
    assert report.termination == "budget"


def test_infinite_stencil_values_shrink_the_interval():
    """f = ||x||^2 inside |x_i| < 0.5 and +inf outside, started near the wall:
    a stencil that crosses the wall fails the norm test, so the interval
    shrinks instead of a step being tried and C escalating."""
    from adafd import Objective

    def walled(x):
        return float(x @ x) if np.all(np.abs(x) < 0.5) else float("inf")

    obj = Objective(dim=5, evaluator=walled)
    cfg = DfcConfig(x1=0.4 * np.ones(5), budget=600)
    report = dfc_run(obj, GradScheme.FORWARD, cfg, 0.0, 0)
    assert report.trace
    assert all(rec.step_status != "rejected" for rec in report.trace)
    assert report.final_C == cfg.c1
    assert report.best_f < 1e-20
