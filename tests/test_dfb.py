import math

import numpy as np
import pytest

from adafd import (
    BudgetExhausted,
    DfbConfig,
    GradScheme,
    Objective,
    Oracle,
    SearchState,
    backtrack,
    dfb_run,
    dfb_step,
    estimate_rate,
    make_least_squares,
    make_rosenbrock,
)
from adafd.driver import StepEvals

from conftest import sphere_objective

#: The linesearch parameters the backtracking tests run with.
LS = DfbConfig(x1=[0.0], budget=0, beta=0.25, gamma=0.5, tau_bar=1.0)


def test_backtrack_hand_simulated_two_steps():
    # f(x) = x^2, x = 1, g = 2: t = 1 gives f(-1) = 1 > 0, t = 0.5 gives
    # f(0) = 0 <= 0.5, accepted after exactly two evaluations.
    oracle = Oracle(sphere_objective(1))
    evals = StepEvals(oracle, math.inf)
    res = backtrack(evals, np.array([1.0]), np.array([2.0]), f_x=1.0, cfg=LS, t_min=1e-10)
    assert res.sufficient
    assert res.t == pytest.approx(0.5)
    assert evals.cost == 2
    assert res.f_candidate == pytest.approx(0.0)
    assert oracle.eval_count == 2


@pytest.mark.parametrize("changes, t, trials", [
    ({"tau_bar": 0.5}, 0.5, 1),  # f(0) = 0 <= 1 - 0.25 * 0.5 * 4
    ({"gamma": 0.25}, 0.25, 2),  # f(0.5) = 0.25 <= 1 - 0.25 * 0.25 * 4
    ({"beta": 0.49}, 0.5, 2),  # f(0) = 0 <= 1 - 0.49 * 0.5 * 4
    ({"tau_bar": 0.9}, 0.45, 2),  # f(-0.8) = 0.64 > 0.1, then f(0.1) = 0.01 <= 0.55
])
def test_backtrack_reads_beta_gamma_and_tau_bar_from_its_config(changes, t, trials):
    # f(x) = x^2 from x = 1 along g = 2, as in the hand simulation above
    oracle = Oracle(sphere_objective(1))
    evals = StepEvals(oracle, math.inf)
    cfg = DfbConfig(x1=[0.0], budget=0, **changes)
    res = backtrack(evals, np.array([1.0]), np.array([2.0]), f_x=1.0, cfg=cfg, t_min=1e-10)
    assert res.sufficient
    assert res.t == pytest.approx(t)
    assert evals.cost == oracle.eval_count == trials


def test_backtrack_terminates_above_a_tiny_floor_for_good_directions(rng):
    # an estimate within half its own norm of the true gradient passes the
    # sufficient-decrease test at some step above any small enough floor
    obj = sphere_objective(3)
    for _ in range(20):
        x = rng.standard_normal(3)
        if np.linalg.norm(x) < 0.1:
            continue
        grad = 2.0 * x
        g = grad * float(rng.uniform(0.8, 1.2))
        res = backtrack(StepEvals(Oracle(obj), math.inf), x, g, f_x=float(x @ x), cfg=LS,
                        t_min=1e-12)
        assert res.sufficient
        assert res.t > 1e-12


def test_backtrack_ascent_direction_runs_to_the_floor():
    oracle = Oracle(sphere_objective(1))
    evals = StepEvals(oracle, math.inf)
    res = backtrack(evals, np.array([1.0]), np.array([-2.0]), f_x=1.0, cfg=LS, t_min=1e-10)
    assert not res.sufficient
    assert res.t < 1e-10
    # 1, 0.5, ..., first t below 1e-10 is 2^-34: 35 condition evaluations
    assert evals.cost == 35


def test_backtrack_rejects_zero_direction_and_bad_floor():
    evals = StepEvals(Oracle(sphere_objective(1)), math.inf)
    with pytest.raises(ValueError):
        backtrack(evals, np.ones(1), np.zeros(1), 1.0, LS, 1e-10)
    with pytest.raises(ValueError):
        backtrack(evals, np.ones(1), np.ones(1), 1.0, LS, 2.0)


@pytest.mark.parametrize("budget", [0, 1, 3])
def test_backtrack_cut_off_by_the_budget_reports_its_lowest_trial(budget):
    # f(x) = x^2 from x = 1 along the ascent direction: trials at 1 + 2t for
    # t = 1, 1/2, 1/4 are 9, 4 and 2.25, and none passes
    oracle = Oracle(sphere_objective(1))
    evals = StepEvals(oracle, budget)
    with pytest.raises(BudgetExhausted):
        backtrack(evals, np.array([1.0]), np.array([-2.0]), f_x=1.0, cfg=LS, t_min=1e-10)
    assert evals.cost == oracle.eval_count == budget
    assert isinstance(evals.low, float)
    if budget:
        assert evals.low == (1.0 + 2.0 * 0.5 ** (budget - 1)) ** 2
    else:
        assert math.isnan(evals.low)


def test_step_accept_composes_search_and_linesearch():
    obj = sphere_objective(1)
    oracle = Oracle(obj)
    cfg = DfbConfig(x1=[1.0], budget=100)
    state = SearchState(k=0, x=np.array([1.0]), delta=cfg.delta1, C=cfg.c1,
                        t_min=cfg.t_min1, f_x=1.0)
    state = dfb_step(state, StepEvals(oracle, cfg.budget), GradScheme.CENTRAL, cfg)
    assert state.last_step == "accepted"
    assert state.x[0] == pytest.approx(0.0, abs=1e-12)
    assert state.C == cfg.c1
    assert state.t_min == cfg.t_min1
    assert state.last_tau == pytest.approx(0.5)


def test_null_step_couples_C_and_floor_updates():
    # with the floor at 0.9 the workable t = 0.5 sits below it: the search
    # exits under the floor and the step must be null with the coupled updates
    obj = sphere_objective(1)
    oracle = Oracle(obj)
    cfg = DfbConfig(x1=[1.0], budget=200, t_min1=0.9, eta=2.0, gamma=0.5)
    state = SearchState(k=0, x=np.array([1.0]), delta=cfg.delta1, C=cfg.c1,
                        t_min=cfg.t_min1, f_x=1.0)
    state = dfb_step(state, StepEvals(oracle, cfg.budget), GradScheme.CENTRAL, cfg)
    assert state.last_step == "null"
    assert state.x[0] == 1.0 and state.f_x == 1.0
    assert state.C == cfg.c1 * cfg.eta
    assert state.t_min == pytest.approx(0.9 * cfg.gamma)
    # progress resumes within a few iterations (no infinite null-step tail)
    for _ in range(5):
        state = dfb_step(state, StepEvals(oracle, cfg.budget), GradScheme.CENTRAL, cfg)
        if state.last_tau > 0:
            break
    assert state.last_tau > 0


def test_a_floor_that_underflows_to_zero_stops_the_run_and_keeps_its_trace():
    # from t_min1 = 1e-320 the 12th null step halves the floor to 0.0, which no
    # trial step can fall below; the next backtrack used to raise a
    # ValidationError out of drive. eta = 1.01 keeps C far from overflowing.
    flat = Objective(dim=1, evaluator=lambda x: 0.0)
    cfg = DfbConfig(x1=[0.0], budget=100_000, nu=1e-3, eta=1.01, t_min1=1e-320)
    report = dfb_run(flat, GradScheme.FORWARD, cfg, noise_level=1e-3, seed=0)
    statuses = [r.step_status for r in report.trace]
    assert report.termination == "stationary" and statuses[-1] == "stopped"
    assert statuses.count("null") + 1 == 12
    assert report.evals == report.declared_evals < cfg.budget
    assert report.final_C == pytest.approx(1.01**12)


def test_rosenbrock_run_is_monotone_with_early_nulls_only():
    inst = make_rosenbrock(2)
    cfg = DfbConfig(x1=np.zeros(2), budget=4000)
    report = dfb_run(inst.objective, GradScheme.FORWARD, cfg)
    fs = [r.f_current for r in report.trace]
    assert all(b <= a for a, b in zip(fs, fs[1:]))
    fb = [r.f_best for r in report.trace]
    assert all(b <= a for a, b in zip(fb, fb[1:]))
    # coupling invariant: C escalations and floor reductions happen in lockstep
    nulls = sum(1 for r in report.trace if r.step_status == "null")
    assert report.final_C == pytest.approx(cfg.c1 * cfg.eta**nulls)
    # stabilization: the second half of the run has no null steps
    second_half = report.trace[len(report.trace) // 2:]
    assert all(r.step_status != "null" for r in second_half)
    assert report.evals == report.declared_evals


def test_stepsizes_live_on_the_geometric_grid():
    inst = make_rosenbrock(2)
    cfg = DfbConfig(x1=np.zeros(2), budget=2000)
    report = dfb_run(inst.objective, GradScheme.FORWARD, cfg)
    for rec in report.trace:
        assert rec.tau <= cfg.tau_bar
        if rec.tau == 0.0:
            continue
        j = math.log(rec.tau / cfg.tau_bar) / math.log(cfg.gamma)
        assert abs(j - round(j)) < 1e-9
        assert round(j) >= 0


def test_armijo_inequality_on_every_accepted_step():
    inst = make_rosenbrock(2)
    cfg = DfbConfig(x1=np.zeros(2), budget=3000)
    report = dfb_run(inst.objective, GradScheme.FORWARD, cfg)
    prev_f = 1.0  # f at the zero start
    for rec in report.trace:
        if rec.step_status == "accepted":
            assert prev_f - rec.f_current >= cfg.beta * rec.tau * rec.grad_norm_approx**2 - 1e-12
        else:
            assert rec.f_current == prev_f
        prev_f = rec.f_current


def test_sphere_linear_rate_with_gentler_shrink():
    # gamma = 0.5 lands t = 0.5 which zeroes a quadratic in one step; gamma =
    # 0.7 accepts t = 0.7 and contracts x by 0.4 per iteration instead
    cfg = DfbConfig(x1=np.ones(5), budget=3000, gamma=0.7)
    report = dfb_run(sphere_objective(5), GradScheme.CENTRAL, cfg)
    est = estimate_rate(report.trace, 0.0)
    assert est.kind == "linear"
    assert est.factor == pytest.approx(0.16, rel=0.05)  # (0.4)^2 in f
    norms = [np.linalg.norm(x) for x in report.iterates[1:]]
    ratios = [b / a for a, b in zip(norms, norms[1:]) if a > 0]
    assert all(r < 0.5 for r in ratios[-10:])


def test_noisy_run_completes_and_plateaus_near_noise_scale():
    # well-conditioned quadratic so the noise floor, not the budget, binds
    rng = np.random.default_rng(8)
    A = np.diag(rng.uniform(1.0, 2.0, size=10))
    b = rng.standard_normal(10)
    inst = make_least_squares(A, b)
    eps = 1e-4
    cfg = DfbConfig(x1=np.zeros(10), budget=20_000)
    report = dfb_run(inst.objective, GradScheme.FORWARD, cfg, noise_level=eps, seed=3)
    assert report.best_f <= 100 * eps
    # plateau: the last quarter of the run no longer improves materially
    fb = [r.f_best for r in report.trace]
    assert fb[-1] >= fb[3 * len(fb) // 4] - 50 * eps


def test_nu_sequence_validation_and_schedule_exhaustion():
    with pytest.raises(ValueError):
        DfbConfig(x1=[1.0], budget=10, beta=0.5)
    with pytest.raises(ValueError):
        DfbConfig(x1=[1.0], budget=10, t_min1=2.0)
    cfg = DfbConfig(x1=[1.0], budget=1000, nu=[0.1, 0.05])
    report = dfb_run(sphere_objective(1), GradScheme.FORWARD, cfg)
    assert report.termination == "schedule"
    assert len(report.trace) == 2


def test_linesearch_cut_off_by_the_budget_counts_toward_best_f():
    """Rosenbrock n=5, central, budget 71: the last linesearch is cut off after
    trials that saw a value below every recorded f_best."""
    x1 = np.zeros(5)
    report = dfb_run(make_rosenbrock(5).objective, GradScheme.CENTRAL,
                     DfbConfig(x1=x1, budget=71), 1e-4, 0)
    assert report.truncated
    assert report.evals == report.declared_evals == 71
    assert report.best_f < report.trace[-1].f_best
    assert report.best_f == pytest.approx(3.823630806389958, rel=1e-12)
