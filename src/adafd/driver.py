"""The one run loop that every solver shares.

A solver is a step rule ``step(state, oracle, scheme, cfg) -> state``, its
initial state (a ``NamedTuple``) and a config that subclasses
:class:`StartConfig`. A step rule returns a new state, built once, and never
mutates the state it got or its arrays. The driver owns everything around it:
the initial evaluation, the budget check before every step, the declared-cost
sum, ``f_best``, the trace and iterates, and why the run stopped. Every step
rule reports alike: its cost in ``last_cost``, its curvature proxy in ``C``,
and the lowest value it evaluated at an iterate or candidate point in
``last_candidate_f``, or, when cut off mid-step, in the ``partial`` of the
:class:`BudgetExhausted` it raises. A step whose caller-supplied sequence ran
out raises :class:`ScheduleExhausted`. Both exceptions carry the cost of the
work done so far. NaN is the only "no value", and ``f_best`` ignores it: it is
NaN only while no other value has been seen.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from .oracle import Array, BudgetExhausted, Objective, Oracle
from .trace import RunReport, TraceRecord


class ScheduleExhausted(Exception):
    """A caller-supplied sequence ran out of entries before the budget did."""

    def __init__(self, declared_cost: int = 0):
        super().__init__("schedule exhausted")
        self.declared_cost = declared_cost


def schedule_value(rule, k: int, *args) -> float:
    """Entry k (1-based) of a constant, a sequence, or a rule ``rule(k, *args)``."""
    if callable(rule):
        return float(rule(k, *args))
    if isinstance(rule, numbers.Real):
        return float(rule)
    if k - 1 >= len(rule):
        raise ScheduleExhausted()
    return float(rule[k - 1])


@dataclass(frozen=True)
class StartConfig:
    """The start point ``x1``, coerced to a float array, and the evaluation
    ``budget``: the first fields of every solver config, which subclass it."""

    x1: Array
    budget: int

    def __post_init__(self):
        object.__setattr__(self, "x1", np.asarray(self.x1, dtype=float))
        if self.budget < 0:
            raise ValueError("budget must be nonnegative")


def settings(config_class) -> tuple:
    """The fields of a solver config (or class) after its :class:`StartConfig` ones."""
    return fields(config_class)[len(fields(StartConfig)):]


def config_dict(solver: str, scheme, cfg) -> dict:
    """A config's settings as JSON-ready values: sequences of numbers become
    lists of floats and rules "custom"; ``scheme`` is left out when it is None.
    ``report.json`` records ``x1`` and ``budget`` once per experiment."""
    out = {"solver": solver}
    if scheme is not None:
        out["scheme"] = scheme.value
    for f in settings(cfg):
        value = getattr(cfg, f.name)
        if callable(value):
            value = "custom"
        elif value is not None and not isinstance(value, numbers.Real):
            value = [float(v) for v in value]
        elif hasattr(value, "item"):  # a numpy scalar, which json cannot write
            value = value.item()
        out[f.name] = value
    return out


def lower(a: float, b: float) -> float:
    """The lower of two values, ignoring NaN: NaN only when both are NaN."""
    return b if b < a or a != a else a


def _ran_with_C(before, after) -> float:
    return before.C  # the step may escalate C; the record keeps the value it ran with


def drive(
    solver_id: str,
    objective: Objective,
    scheme,
    cfg,
    noise_level: float,
    seed: int,
    start: Callable,
    step: Callable,
    config: dict,
    trace_C: Callable = _ran_with_C,
    collect_iterates: bool = True,
) -> RunReport:
    """Run ``step`` from ``start(x1, f(x1))`` to the budget, a stationary stop or
    the end of a schedule. ``iterates`` holds every recorded ``state.x`` only
    with ``collect_iterates``."""
    if cfg.x1.shape != (objective.dim,):
        raise ValueError("x1 dimension does not match the objective")
    oracle = Oracle(objective, noise_level, seed)
    f_best = oracle.evaluate(cfg.x1)
    state = start(cfg.x1.copy(), f_best)
    declared = 1
    trace: list[TraceRecord] = []
    iterates = [state.x.copy()] if collect_iterates else []
    termination = "budget"
    truncated = False

    while oracle.eval_count < cfg.budget:
        before = state
        try:
            state = step(state, oracle, scheme, cfg)
        except BudgetExhausted as stop:
            declared += stop.declared_cost
            f_best = lower(f_best, stop.partial)  # values the cut-off step saw
            truncated = True
            break
        except ScheduleExhausted as stop:
            declared += stop.declared_cost
            termination = "schedule"
            break
        declared += state.last_cost
        f_best = lower(f_best, state.last_candidate_f)
        # positional, in CSV_COLUMNS order
        trace.append(TraceRecord(state.k, oracle.eval_count, state.f_x, f_best,
                                 state.last_g_norm, state.delta, trace_C(before, state),
                                 state.last_tau, state.last_step))
        if collect_iterates:
            iterates.append(state.x.copy())
        if state.last_step == "stopped":
            termination = "stationary"
            break

    return RunReport(
        solver_id=solver_id,
        trace=trace,
        final_x=state.x.copy(),
        best_f=f_best,
        evals=oracle.eval_count,
        declared_evals=declared,
        termination=termination,
        truncated=truncated,
        final_C=state.C,
        iterates=iterates,
        config=config,
    )
