"""The one run loop that every solver shares.

A solver is a step rule ``step(state, oracle, scheme, cfg) -> state`` plus its
initial state, a ``NamedTuple``. A step rule returns a new state, built once,
and never mutates the state it got or its arrays. The driver owns everything
around it: the initial evaluation, the budget check before every step, the
declared-cost sum, ``f_best``, the trace and iterates, and why the run
stopped. A step rule reports its cost in ``last_cost`` and the lowest value it
evaluated at an iterate or candidate point in ``last_candidate_f``; it raises
:class:`BudgetExhausted` when cut off mid-step and :class:`ScheduleExhausted`
when a caller-supplied sequence runs out, both carrying the cost of the work
done so far. A cut-off step may also pass the lowest value it evaluated as the
float ``partial`` of its :class:`BudgetExhausted`, which then still counts
toward ``f_best``.
``f_best`` ignores NaN: it is NaN only while no other value has been seen.
"""

from __future__ import annotations

import numbers
from dataclasses import fields, replace
from typing import Callable

import numpy as np

from .oracle import BudgetExhausted, Objective, Oracle
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


def check_start(cfg) -> None:
    """Coerce ``cfg.x1`` to a float array and check the budget, the two fields
    that every solver config carries."""
    object.__setattr__(cfg, "x1", np.asarray(cfg.x1, dtype=float))
    if cfg.budget < 0:
        raise ValueError("budget must be nonnegative")


def config_dict(solver: str, scheme, cfg) -> dict:
    """A config dataclass as JSON-ready values: sequences of numbers become lists
    of floats and rules "custom"; ``scheme`` is left out when it is None, and so
    are ``x1`` and ``budget``, which ``report.json`` records once per experiment."""
    out = {"solver": solver}
    if scheme is not None:
        out["scheme"] = scheme.value
    for f in fields(cfg):
        if f.name in ("x1", "budget"):
            continue
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


def _final_C(state) -> dict:
    return {"final_C": state.C}


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
    extras: Callable = _final_C,
    collect_iterates: bool = True,
) -> RunReport:
    """Run ``step`` from ``start(x1, f(x1))`` to the budget, a stationary stop or
    the end of a schedule; ``extras(state)`` adds solver-specific report fields.
    ``iterates`` holds every recorded ``state.x`` only with ``collect_iterates``."""
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
            if isinstance(stop.partial, float):  # values the cut-off step saw
                f_best = lower(f_best, stop.partial)
            truncated = True
            break
        except ScheduleExhausted as stop:
            declared += stop.declared_cost
            termination = "schedule"
            break
        declared += state.last_cost
        if state.last_candidate_f is not None:
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

    report = RunReport(
        solver_id=solver_id,
        trace=trace,
        final_x=state.x.copy(),
        best_f=f_best,
        evals=oracle.eval_count,
        declared_evals=declared,
        budget=cfg.budget,
        termination=termination,
        truncated=truncated,
        iterates=iterates,
        config=config,
    )
    return replace(report, **extras(state))
