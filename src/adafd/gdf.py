"""General derivative-free scheme with caller-supplied stepsizes and C sequence.

This is the skeleton the two main solvers specialize: only the adaptive
gradient search is fixed, while the stepsize tau_k, the proxy constants C_k,
and the error caps nu_k are all injected. Stepsizes may be a constant, an
explicit sequence, or a state-dependent rule tau_k = pi(k, x_k, g_k), which is
what local-convergence studies around nonisolated minimizers need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence, Union

from .driver import ScheduleExhausted, config_dict, drive, schedule_value
from .gradapprox import GradScheme, SearchConfig, adaptive_gradient
from .oracle import Array, BudgetExhausted, Objective, Oracle
from .trace import RunReport

TauPolicy = Union[float, Sequence[float], Callable[[int, Array, Array], float]]
SeqRule = Union[float, Sequence[float], Callable[[int], float]]


@dataclass(frozen=True)
class GdfConfig(SearchConfig):
    c_seq: SeqRule = 1.0
    tau: TauPolicy = 0.0
    nu_seq: Optional[SeqRule] = None


class GdfState(NamedTuple):
    """State after iteration ``k``; ``C`` is the proxy constant iteration k ran with."""

    k: int
    x: Array
    delta: float
    f_x: float
    C: float = float("nan")
    last_step: str = "init"  # "step" | "clamped" | "stopped" | "init"
    last_g_norm: float = float("nan")
    last_tau: float = 0.0
    last_candidate_f: float = float("nan")
    last_cost: int = 0


def gdf_step(state: GdfState, oracle: Oracle, scheme: GradScheme, cfg: GdfConfig) -> GdfState:
    """Advance one iteration x <- x - tau_k g_k under the injected policies.

    Negative stepsizes from a rule are clamped to 0 and flagged as status
    "clamped". Each iteration spends one extra evaluation on phi at the new
    iterate so the trace carries current values; a step that cannot afford it
    is dropped whole, leaving x intact.
    """
    k = state.k + 1
    c_k = schedule_value(cfg.c_seq, k)
    nu_k = None if cfg.nu_seq is None else schedule_value(cfg.nu_seq, k)
    res = adaptive_gradient(
        oracle, scheme, state.x, state.delta, c_k, cfg.mu, cfg.theta,
        nu_k=nu_k, i_max=cfg.i_max, budget=cfg.budget,
    )
    if res.exhausted:
        return GdfState(k, state.x, res.delta_next, state.f_x, c_k, "stopped", res.g_norm, 0.0,
                        float("nan"), res.cost)

    try:
        tau_k = schedule_value(cfg.tau, k, state.x, res.g)
    except ScheduleExhausted as stop:
        stop.declared_cost += res.cost
        raise
    if oracle.eval_count >= cfg.budget:
        raise BudgetExhausted("budget exhausted before the trace probe", declared_cost=res.cost)
    status = "step"
    if tau_k < 0.0:
        tau_k = 0.0
        status = "clamped"
    x = state.x - tau_k * res.g
    f_x = oracle.evaluate(x)
    return GdfState(k, x, res.delta_next, f_x, c_k, status, res.g_norm, tau_k, f_x, res.cost + 1)


def gdf_run(
    objective: Objective,
    scheme: GradScheme,
    cfg: GdfConfig,
    noise_level: float = 0.0,
    seed: int = 0,
) -> RunReport:
    """Iterate :func:`gdf_step` to the budget, a stationary stop or the end of a
    caller-supplied sequence; every evaluation is part of the declared accounting."""
    return drive(
        f"gdf-{scheme.value}", objective, scheme, cfg, noise_level, seed,
        start=lambda x, f: GdfState(k=0, x=x, delta=cfg.delta1, f_x=f),
        step=gdf_step,
        config=config_dict("gdf", scheme, cfg),
        trace_C=lambda before, after: after.C,
    )
