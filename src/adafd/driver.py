"""The one run loop that every solver shares.

A solver is a step rule ``step(state, evals, scheme, cfg) -> state``, its
initial state (a ``NamedTuple``) and a config that subclasses
:class:`StartConfig`. A step rule returns a new state, built once, and never
mutates the state it got or its arrays. The driver owns everything around it:
the initial evaluation, the budget check before every step, the declared-cost
sum, ``f_best``, the trace and iterates, and why the run stopped. It hands
each step one :class:`StepEvals`, the step's ledger: every evaluation and
every budget check inside the step goes through it, and it is the one raiser
of :class:`BudgetExhausted`. After the step, however it ended, the driver adds
the ledger's ``cost`` to the declared cost and folds its ``low`` (the lowest
value evaluated at an iterate or candidate point) into ``f_best``, so a step
that is cut off by the budget, or raises :class:`ScheduleExhausted` when a
caller-supplied sequence runs out, still declares its work. Every step rule
reports its curvature proxy in ``C``. NaN is the only "no value", and
``f_best`` ignores it: it is NaN only while no other value has been seen. A
state whose ``last_step`` is "stopped" ends the run ``stationary``; for DFC,
DFB and GDF it comes from ``gradapprox.search_step`` when the interval search
is exhausted, and for DFB also from a null step whose floor underflows to 0.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, fields
from typing import Callable, Iterable, Iterator

import numpy as np

from .oracle import Array, Objective, Oracle, ValidationError, check_between, check_count
from .trace import RunReport, TraceRecord


class BudgetExhausted(RuntimeError):
    """Raised by :meth:`StepEvals.check` when a step would start an oracle call
    at or past its evaluation budget. The step's cost and lowest value so far
    stay in its :class:`StepEvals`, where :func:`drive` reads them."""


class ScheduleExhausted(Exception):
    """A caller-supplied sequence ran out of entries before the budget did."""


def schedule_value(rule, k: int, *args) -> float:
    """Entry k (1-based) of a constant, a sequence, or a rule ``rule(k, *args)``."""
    if callable(rule):
        return float(rule(k, *args))
    if isinstance(rule, numbers.Real):
        return float(rule)
    if k - 1 >= len(rule):
        raise ScheduleExhausted()
    return float(rule[k - 1])


def check_schedule(name: str, rule, positive: bool = True) -> None:
    """Reject a constant or sequence ``rule`` with an entry outside ``(0, inf)``,
    or, unless ``positive``, outside ``(-inf, inf)``. A callable is checked
    where it is used."""
    if rule is None or callable(rule):
        return
    low = 0.0 if positive else -math.inf
    for value in [rule] if isinstance(rule, numbers.Real) else rule:
        check_between(f"every entry of {name}", value, low)


@dataclass(frozen=True)
class StartConfig:
    """The start point ``x1``, coerced to a float array, and the evaluation
    ``budget``: the first fields of every solver config, which subclass it."""

    x1: Array
    budget: int

    def __post_init__(self):
        object.__setattr__(self, "x1", np.asarray(self.x1, dtype=float))
        check_count("budget", self.budget, -1)


def settings(config_class) -> tuple:
    """The fields of a solver config (or class) after its :class:`StartConfig` ones."""
    return fields(config_class)[len(fields(StartConfig)):]


def config_dict(cfg) -> dict:
    """A config's settings as JSON-ready values: sequences of numbers become
    lists of floats and rules "custom". ``report.json`` records ``x1`` and
    ``budget`` once per experiment, and the solver id is the run's own."""
    out = {}
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


def shrinking(t: float, factor: float, floor: float = 0.0) -> Iterator[float]:
    """The steps of a backtracking search, t, t * factor, (t * factor) * factor,
    ..., up to the first below ``floor``: without end for a positive t and floor 0."""
    while True:
        yield t
        if t < floor:
            return
        t *= factor


#: Linesearch trials that :meth:`StepEvals.linesearch` hands
#: :meth:`Oracle.evaluate_rows` in one block.
LINE_CHUNK = 8


def estimate_norm(v: Array) -> float:
    """The Euclidean norm of the 1-D float vector ``v``, bitwise
    ``np.linalg.norm(v)``: its own formula, sqrt(v . v), without its dispatch."""
    return math.sqrt(v.dot(v))


def lower(a: float, b: float) -> float:
    """The lower of two values, ignoring NaN: NaN only when both are NaN."""
    return b if b < a or a != a else a


class StepEvals:
    """The ledger of one step: its evaluations, each started only below the
    ``budget``.

    ``cost`` is the evaluations the step has declared and ``low`` the lowest
    value it evaluated at an iterate or candidate point (NaN while none).
    :func:`drive` builds one per step and reads both after the step, however
    it ended. This is the one place that raises :class:`BudgetExhausted`.
    """

    __slots__ = ("oracle", "budget", "cost", "low")

    def __init__(self, oracle: Oracle, budget: float):
        self.oracle = oracle
        self.budget = budget
        self.cost = 0
        self.low = math.nan

    def check(self) -> None:
        """Raise :class:`BudgetExhausted` if the budget is spent."""
        if self.oracle.eval_count >= self.budget:
            raise BudgetExhausted("evaluation budget exhausted")

    def point(self, x: Array, candidate: bool = True) -> float:
        """f(x) within the budget, counted in ``cost`` and, for an iterate or
        candidate point, folded into ``low``."""
        self.check()
        f = self.oracle.evaluate(x)
        self.cost += 1
        if candidate:
            self.low = lower(self.low, f)
        return f

    def linesearch(self, x: Array, d: Array, ts: Iterable[float], f_x: float, c: float,
                   d_sq: float) -> tuple:
        """``(t, passed, f)`` for the first t of the nonempty ``ts`` whose value
        f = f(x - t * d) passes ``f <= f_x - c * t * d_sq``, else for the last t.
        Each trial is a candidate, checked, counted and folded into ``low`` as by
        :meth:`point`, in turn; its point is built in a block of ``LINE_CHUNK``,
        bitwise ``x - t * d``, and its value taken from :meth:`Oracle.evaluate_rows`.
        """
        ts = iter(ts)
        while chunk := list(itertools.islice(ts, LINE_CHUNK)):
            values = self.oracle.evaluate_rows(x - np.multiply.outer(chunk, d))
            for t in chunk:
                self.check()
                f = next(values)
                self.cost += 1
                self.low = lower(self.low, f)
                if f <= f_x - c * t * d_sq:
                    return t, True, f
        return t, False, f


def _ran_with_C(before, after) -> float:
    return before.C  # the step may escalate C; the record keeps the value it ran with


def drive(
    solver: str,
    objective: Objective,
    scheme,
    cfg,
    noise_level: float,
    seed: int,
    start: Callable,
    step: Callable,
    trace_C: Callable = _ran_with_C,
    collect_iterates: bool = True,
) -> RunReport:
    """Run ``step`` from ``start(x1, f(x1))`` to the budget, a stationary stop or
    the end of a schedule. The report's id is ``solver`` and the scheme's suffix
    (as registered), its ``config`` is :func:`config_dict` of ``cfg``, and its
    ``iterates`` every recorded ``state.x`` only with ``collect_iterates``."""
    if cfg.x1.shape != (objective.dim,):
        raise ValidationError("x1 dimension does not match the objective")
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
        evals = StepEvals(oracle, cfg.budget)
        try:
            state = step(state, evals, scheme, cfg)
        except BudgetExhausted:
            truncated = True
            break
        except ScheduleExhausted:
            termination = "schedule"
            break
        finally:  # a cut-off step declares its work and the values it saw too
            declared += evals.cost
            f_best = lower(f_best, evals.low)
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
        solver_id=solver if scheme is None else f"{solver}-{scheme.suffix}",
        trace=trace,
        final_x=state.x.copy(),
        best_f=f_best,
        evals=oracle.eval_count,
        declared_evals=declared,
        termination=termination,
        truncated=truncated,
        final_C=state.C,
        iterates=iterates,
        config=config_dict(cfg),
    )
