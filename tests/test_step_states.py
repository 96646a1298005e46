"""Step states are immutable named tuples, and no step rule mutates its input.

Every step rule is driven by hand from the evaluated start, one step at a
time, and each returned state is checked before it becomes the next input.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from adafd import (
    DfbConfig,
    DfcConfig,
    GdfConfig,
    GradScheme,
    ImfilConfig,
    NelderMeadConfig,
    Objective,
    Oracle,
    RgConfig,
    SearchState,
    build_instance,
    dfb_step,
    dfc_step,
    run_solver,
)
from adafd.baselines import (
    ImfilState,
    RgState,
    SimplexState,
    imfil_step,
    nelder_mead_step,
    rg_step,
)
from adafd.driver import BudgetExhausted, ScheduleExhausted, StepEvals
from adafd.gdf import gdf_step


def _start(rule, x1, f1):
    """The start state, the step function, its scheme and its config."""
    budget = 2000
    if rule == "dfc":
        cfg = DfcConfig(x1=x1, budget=budget)
        return SearchState(0, x1, cfg.delta1, cfg.c1, f1), dfc_step, GradScheme.FORWARD, cfg
    if rule == "dfb":
        cfg = DfbConfig(x1=x1, budget=budget)
        return (SearchState(0, x1, cfg.delta1, cfg.c1, f1, t_min=cfg.t_min1), dfb_step,
                GradScheme.CENTRAL, cfg)
    if rule == "gdf":
        cfg = GdfConfig(x1=x1, budget=budget, tau=1e-3)
        return SearchState(0, x1, cfg.delta1, np.nan, f1), gdf_step, GradScheme.FORWARD, cfg
    if rule == "imfil":
        cfg = ImfilConfig(x1=x1, budget=budget)
        return ImfilState(0, x1, f1), imfil_step, GradScheme.CENTRAL, cfg
    if rule == "rg":
        cfg = RgConfig(x1=x1, budget=budget, lipschitz=1e3)
        return (RgState(0, x1, f1, np.random.default_rng(0), cfg.smoothing, 1e-4), rg_step,
                None, cfg)
    cfg = NelderMeadConfig(x1=x1, budget=budget)
    return SimplexState(0, x1, f1), nelder_mead_step, None, cfg


def _arrays(state):
    return [a.tobytes() for a in (state.x, getattr(state, "verts", None),
                                  getattr(state, "fv", None)) if a is not None]


def _steps(rule, objective, x1, count=200):
    """Up to ``count`` states from ``rule``, each checked against its input."""
    oracle = Oracle(objective)
    state, step, scheme, cfg = _start(rule, x1, oracle.evaluate(x1))
    states = []
    for _ in range(count):
        before = _arrays(state)
        try:
            nxt = step(state, StepEvals(oracle, cfg.budget), scheme, cfg)
        except (BudgetExhausted, ScheduleExhausted):
            break
        assert _arrays(state) == before
        assert isinstance(nxt, tuple) and type(nxt) is type(state)
        for name in nxt._fields:
            with pytest.raises(AttributeError):
                setattr(nxt, name, getattr(nxt, name))
        states.append(nxt)
        if nxt.last_step == "stopped":
            break
        state = nxt
    return states


@pytest.mark.parametrize("rule", ["dfc", "dfb", "gdf", "imfil", "rg", "nelder-mead"])
def test_a_step_returns_a_new_immutable_state_and_leaves_its_input(rule):
    objective = build_instance("rosenbrock", 5).objective
    assert len(_steps(rule, objective, np.full(5, 0.5))) >= 100


def _same(a, b):
    """Field equality for step states: arrays by their bytes, generators by
    their state, NaN equal to NaN."""
    if isinstance(a, np.ndarray):
        return a.tobytes() == b.tobytes()
    if isinstance(a, np.random.Generator):
        return a.bit_generator.state == b.bit_generator.state
    return a == b or a != a and b != b


@pytest.mark.parametrize("rule", ["dfc", "dfb", "gdf", "imfil", "rg", "nelder-mead"])
def test_stepping_one_state_twice_gives_equal_states(rule):
    # rg used to draw its direction from the generator its input state holds
    objective, x1 = build_instance("rosenbrock", 5).objective, np.full(5, 0.5)
    state = _steps(rule, objective, x1, count=3)[-1]
    _, step, scheme, cfg = _start(rule, x1, state.f_x)
    first, second = (step(state, StepEvals(Oracle(objective, 1e-3, 7), cfg.budget), scheme, cfg)
                     for _ in range(2))
    assert first.k == state.k + 1
    assert all(_same(a, b) for a, b in zip(first, second)), rule


def _sorted_nan_last(fv):
    nan = np.isnan(fv)
    return not np.any(nan[:-1] & ~nan[1:]) and np.all(np.diff(fv[~nan]) >= 0)


@pytest.mark.parametrize("kind", ["rosenbrock", "speckled", "stairs"])
def test_every_simplex_is_sorted_with_nan_last_and_x_its_first_row(kind):
    # speckled: NaN on every other 1e-4-wide band of x_0, so the initial and
    # shrunk simplices hold NaN values; stairs: ties between vertices
    def f(x):
        if kind == "speckled" and int(abs(x[0]) * 1e4) % 2 == 0:
            return float("nan")
        if kind == "stairs":
            return float(np.floor(32.0 * (x @ x + x.sum())))
        return float(x @ x + x.sum())

    objective = (build_instance("rosenbrock", 4).objective if kind == "rosenbrock"
                 else Objective(dim=4, evaluator=f))
    states = _steps("nelder-mead", objective, np.zeros(4), count=300)
    assert {s.last_step for s in states} >= {"init", "reflect", "contract_in"}
    if kind == "speckled":
        assert sum(np.isnan(s.fv).any() for s in states) >= 10
    for state in states:
        assert _sorted_nan_last(state.fv)
        assert state.x.tobytes() == state.verts[0].tobytes()
        assert state.f_x == state.fv[0] or np.isnan(state.f_x) and np.isnan(state.fv[0])


@pytest.mark.parametrize("wall", ["nan", "inf"])
def test_implicit_filtering_never_steps_along_a_non_finite_estimate(wall):
    # nan: f = x.x + sum(x) is NaN only at x1 = 0, so every forward stencil
    # there reads NaN; inf: f is +inf beyond x_0 = 0.25, so the stencils at
    # x1 = 0.2 read an infinite slope until h < 0.05
    points = []

    def f(x):
        points.append(x.copy())
        if wall == "nan" and not x.any():
            return float("nan")
        if wall == "inf" and x[0] > 0.25:
            return float("inf")
        return float(x @ x + x.sum())

    x0 = np.zeros(3) if wall == "nan" else np.full(3, 0.2)
    report = run_solver("imfil-fordif", SimpleNamespace(objective=Objective(dim=3, evaluator=f)),
                        600, 0.0, seed=0, x0=x0)
    assert len(points) == report.evals
    assert all(np.isfinite(p).all() for p in points)
    assert report.trace[0].step_status == "stencil_fail"


@pytest.mark.parametrize("scheme", list(GradScheme), ids=lambda s: s.value)
@pytest.mark.parametrize("rule", ["dfc", "dfb", "gdf"])
def test_an_exhausted_search_stops_the_step_and_a_stopped_state_cannot_step(rule, scheme):
    # a constant objective gives a zero estimate at every interval, so the
    # search runs all i_max + 1 stencils and the step keeps its iterate
    x1, i_max = np.ones(3), 4
    oracle = Oracle(Objective(dim=3, evaluator=lambda x: 2.0))
    f1 = oracle.evaluate(x1)
    if rule == "dfc":
        cfg = DfcConfig(x1=x1, budget=2000, i_max=i_max, c1=3.0)
        state, step = SearchState(0, x1, cfg.delta1, cfg.c1, f1), dfc_step
    elif rule == "dfb":
        cfg = DfbConfig(x1=x1, budget=2000, i_max=i_max, c1=3.0)
        state, step = SearchState(0, x1, cfg.delta1, cfg.c1, f1, t_min=cfg.t_min1), dfb_step
    else:
        cfg = GdfConfig(x1=x1, budget=2000, i_max=i_max, c_seq=3.0, tau=0.1)
        state, step = SearchState(0, x1, cfg.delta1, np.nan, f1), gdf_step
    evals = StepEvals(oracle, cfg.budget)
    stopped = step(state, evals, scheme, cfg)
    assert stopped.last_step == "stopped" and stopped.k == 1
    assert stopped.x.tobytes() == x1.tobytes()
    assert stopped.f_x == f1 and stopped.C == 3.0
    if rule == "dfb":
        assert stopped.t_min == cfg.t_min1
    assert stopped.last_tau == 0.0
    assert np.isnan(evals.low)
    assert evals.cost == (i_max + 1) * scheme.evals_per_call(3)
    assert oracle.eval_count == 1 + evals.cost
    with pytest.raises(RuntimeError, match="cannot step a stopped solver state"):
        step(stopped, StepEvals(oracle, cfg.budget), scheme, cfg)
    assert oracle.eval_count == 1 + evals.cost
