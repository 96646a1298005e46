"""Backtracking-stepsize derivative-free descent with a shrinking linesearch floor.

The linesearch restarts from tau_bar every iteration and halts either when the
sufficient-decrease test passes or when the trial step falls below the current
floor t_min. A floor hit is a null step: the iterate freezes while C grows by
eta and the floor shrinks by gamma, exactly one coupled pair per null step.
Designed for objectives whose gradient is only locally Lipschitz, so a
per-iteration error cap nu_k (decreasing to zero) caps the sampling interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence, Union

from .driver import config_dict, drive, lower, schedule_value
from .gradapprox import GradScheme, SearchConfig, adaptive_gradient
from .oracle import Array, BudgetExhausted, Objective, Oracle
from .trace import RunReport

NuRule = Union[float, Callable[[int], float], Sequence[float], None]


@dataclass(frozen=True)
class DfbConfig(SearchConfig):
    c1: float = 1.0
    eta: float = 2.0
    beta: float = 0.25
    gamma: float = 0.5
    tau_bar: float = 1.0
    t_min1: float = 1e-10
    nu: NuRule = None  # positive caps decreasing to 0; default: harmonic decay delta1 / k

    def __post_init__(self):
        super().__post_init__()
        if self.c1 <= 0:
            raise ValueError("c1 must be positive")
        if self.eta <= 1.0:
            raise ValueError("eta must exceed 1")
        if not 0.0 < self.beta < 0.5:
            raise ValueError("beta must lie strictly inside (0, 1/2)")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")
        if self.tau_bar <= 0:
            raise ValueError("tau_bar must be positive")
        if not 0.0 < self.t_min1 < self.tau_bar:
            raise ValueError("t_min1 must lie in (0, tau_bar)")


class BacktrackResult(NamedTuple):
    t: float
    sufficient: bool
    evals_used: int
    f_candidate: float  # value tested at the returned t
    min_f_seen: float   # lowest non-NaN candidate value seen; NaN if none


def backtrack(
    oracle: Oracle,
    x: Array,
    g: Array,
    f_x: float,
    beta: float,
    gamma: float,
    tau_bar: float,
    t_min: float,
    budget: Optional[int] = None,
) -> BacktrackResult:
    """Shrink t from tau_bar by gamma until sufficient decrease or the floor.

    The compound exit condition checks the decrease test first, then the floor:
    every loop pass costs one oracle evaluation, the search can therefore end
    below the floor with the decrease test satisfied (the caller still treats
    that as a floor hit), and ``sufficient`` reports the last evaluated test.
    """
    if not 0.0 < t_min < tau_bar:
        raise ValueError("need 0 < t_min < tau_bar")
    g_norm_sq = float(g @ g)
    if g_norm_sq <= 0.0:
        raise ValueError("backtracking requires a nonzero direction")
    t = tau_bar
    evals = 0
    min_f = float("nan")
    while True:
        if budget is not None and oracle.eval_count >= budget:
            # the trials already evaluated still count toward the run's f_best
            raise BudgetExhausted("budget exhausted during linesearch",
                                  partial=min_f, declared_cost=evals)
        f_cand = oracle.evaluate(x - t * g)
        evals += 1
        min_f = lower(min_f, f_cand)
        if f_cand <= f_x - beta * t * g_norm_sq:
            return BacktrackResult(t, True, evals, f_cand, min_f)
        if t < t_min:
            return BacktrackResult(t, False, evals, f_cand, min_f)
        t *= gamma


class DfbState(NamedTuple):
    k: int
    x: Array
    delta: float
    C: float
    t_min: float
    f_x: float
    last_step: str = "init"  # "accepted" | "null" | "stopped" | "init"
    last_g_norm: float = float("nan")
    last_tau: float = 0.0
    last_candidate_f: float = float("nan")  # lowest value the last linesearch saw
    last_cost: int = 0


def dfb_step(state: DfbState, oracle: Oracle, scheme: GradScheme, cfg: DfbConfig) -> DfbState:
    """Advance one iteration; raises :class:`BudgetExhausted` if cut off mid-step."""
    if state.last_step == "stopped":
        raise RuntimeError("cannot step a stopped solver state")
    k = state.k + 1
    nu_k = cfg.delta1 / k if cfg.nu is None else schedule_value(cfg.nu, k)
    res = adaptive_gradient(
        oracle, scheme, state.x, state.delta, state.C, cfg.mu, cfg.theta,
        nu_k=nu_k, i_max=cfg.i_max, budget=cfg.budget,
    )
    if res.exhausted:
        return DfbState(k, state.x, res.delta_next, state.C, state.t_min, state.f_x, "stopped",
                        res.g_norm, 0.0, float("nan"), res.cost)

    try:
        ls = backtrack(
            oracle, state.x, res.g, state.f_x, cfg.beta, cfg.gamma, cfg.tau_bar,
            state.t_min, budget=cfg.budget,
        )
    except BudgetExhausted as stop:
        stop.declared_cost += res.cost
        raise
    cost = res.cost + ls.evals_used
    if ls.t >= state.t_min:
        # the floor was never crossed, so the exit must have been a passed test
        return DfbState(k, state.x - ls.t * res.g, res.delta_next, state.C, state.t_min,
                        ls.f_candidate, "accepted", res.g_norm, ls.t, ls.min_f_seen, cost)
    return DfbState(k, state.x, res.delta_next, state.C * cfg.eta, state.t_min * cfg.gamma,
                    state.f_x, "null", res.g_norm, 0.0, ls.min_f_seen, cost)


def dfb_run(
    objective: Objective,
    scheme: GradScheme,
    cfg: DfbConfig,
    noise_level: float = 0.0,
    seed: int = 0,
) -> RunReport:
    """Run to budget exhaustion, a near-stationarity stop or the end of a finite nu
    sequence; return the full trace."""
    config = config_dict("dfb", scheme, cfg)
    if cfg.nu is None:
        config["nu"] = "harmonic(delta1/k)"
    return drive(
        f"dfb-{scheme.value}", objective, scheme, cfg, noise_level, seed,
        start=lambda x, f: DfbState(k=0, x=x, delta=cfg.delta1, C=cfg.c1,
                                    t_min=cfg.t_min1, f_x=f),
        step=dfb_step,
        config=config,
    )
