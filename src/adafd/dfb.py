"""Backtracking-stepsize derivative-free descent with a shrinking linesearch floor.

The linesearch restarts from tau_bar every iteration and halts either when the
sufficient-decrease test passes or when the trial step falls below the current
floor t_min. A floor hit is a null step: the iterate freezes while C grows by
eta and the floor shrinks by gamma, exactly one coupled pair per null step.
Designed for objectives whose gradient is only locally Lipschitz, so a
per-iteration error cap nu_k (decreasing to zero) caps the sampling interval.
An exhausted search (gradapprox.search_step) or a floor that underflows to 0
ends the run in a "stopped" state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence, Union

from .driver import StepEvals, check_between, check_schedule, drive, schedule_value, shrinking
from .gradapprox import GradScheme, SearchConfig, SearchState, search_step
from .oracle import Array, Objective
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
    nu: NuRule = None  # positive caps decreasing to 0; None (null in a report) is delta1 / k

    def __post_init__(self):
        super().__post_init__()
        check_between("c1", self.c1, 0.0)
        check_between("eta", self.eta, 1.0)
        check_between("beta", self.beta, 0.0, 0.5)
        check_between("gamma", self.gamma, 0.0, 1.0)
        check_between("tau_bar", self.tau_bar, 0.0)
        check_between("t_min1", self.t_min1, 0.0, self.tau_bar)
        check_schedule("nu", self.nu)


class BacktrackResult(NamedTuple):
    t: float
    sufficient: bool
    f_candidate: float  # value tested at the returned t


def backtrack(
    evals: StepEvals,
    x: Array,
    g: Array,
    f_x: float,
    cfg: DfbConfig,
    t_min: float,
) -> BacktrackResult:
    """Shrink t from ``cfg.tau_bar`` by ``cfg.gamma`` until sufficient decrease or the floor.

    The trials ``shrinking(cfg.tau_bar, cfg.gamma, t_min)`` end with the first
    step below the floor (0 at the latest). Each costs one oracle evaluation and
    is tested for decrease before the next, so the search can end below the
    floor with the test passed (the caller still treats that as a floor hit),
    and ``sufficient`` reports the last test. ``evals.linesearch`` declares the
    trials and holds their lowest value, also when the budget cuts it off.
    """
    check_between("t_min", t_min, 0.0, cfg.tau_bar)
    g_norm_sq = float(g @ g)
    if g_norm_sq <= 0.0:
        raise ValueError("backtracking requires a nonzero direction")
    steps = shrinking(cfg.tau_bar, cfg.gamma, t_min)
    return BacktrackResult(*evals.linesearch(x, g, steps, f_x, cfg.beta, g_norm_sq))


def dfb_step(state: SearchState, evals: StepEvals, scheme: GradScheme,
             cfg: DfbConfig) -> SearchState:
    """Advance one iteration; raises :class:`BudgetExhausted` if cut off mid-step."""
    k = state.k + 1
    nu_k = cfg.delta1 / k if cfg.nu is None else schedule_value(cfg.nu, k)

    def linesearch(res):
        ls = backtrack(evals, state.x, res.g, state.f_x, cfg, state.t_min)
        if ls.t >= state.t_min:
            # the floor was never crossed, so the exit must have been a passed test
            return SearchState(k, state.x - ls.t * res.g, res.delta_next, state.C,
                               ls.f_candidate, "accepted", res.g_norm, ls.t, state.t_min)
        t_min = state.t_min * cfg.gamma  # a floor of 0 is never crossed: stop, as at C = inf
        return SearchState(k, state.x, res.delta_next, state.C * cfg.eta, state.f_x,
                           "null" if t_min > 0.0 else "stopped", res.g_norm, 0.0, t_min)

    return search_step(state, evals, scheme, cfg, k, state.C, nu_k, linesearch)


def dfb_run(
    objective: Objective,
    scheme: GradScheme,
    cfg: DfbConfig,
    noise_level: float = 0.0,
    seed: int = 0,
) -> RunReport:
    """Run to budget exhaustion, a near-stationarity stop or the end of a finite nu
    sequence; return the full trace."""
    return drive(
        "dfb", objective, scheme, cfg, noise_level, seed,
        start=lambda x, f: SearchState(0, x, cfg.delta1, cfg.c1, f, t_min=cfg.t_min1),
        step=dfb_step,
    )
