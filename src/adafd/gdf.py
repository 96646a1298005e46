"""General derivative-free scheme with caller-supplied stepsizes and C sequence.

The scheme fixes only the adaptive interval search, which it shares with DFC
and DFB through :func:`gradapprox.search_step`; the stepsize tau_k, the proxy
constants C_k and the error caps nu_k are all injected. Stepsizes may be a
constant, an explicit sequence, or a state-dependent rule tau_k = pi(k, x_k, g_k),
which is what local-convergence studies around nonisolated minimizers need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

from .driver import StepEvals, check_between, check_schedule, drive, schedule_value
from .gradapprox import GradScheme, SearchConfig, SearchState, search_step
from .oracle import Array, Objective
from .trace import RunReport

TauPolicy = Union[float, Sequence[float], Callable[[int, Array, Array], float]]
SeqRule = Union[float, Sequence[float], Callable[[int], float]]


@dataclass(frozen=True)
class GdfConfig(SearchConfig):
    c_seq: SeqRule = 1.0
    tau: TauPolicy = 0.0
    nu_seq: Optional[SeqRule] = None

    def __post_init__(self):
        super().__post_init__()
        check_schedule("c_seq", self.c_seq)
        check_schedule("nu_seq", self.nu_seq)
        check_schedule("tau", self.tau, positive=False)  # a negative step is clamped


def gdf_step(state: SearchState, evals: StepEvals, scheme: GradScheme,
             cfg: GdfConfig) -> SearchState:
    """Advance one iteration x <- x - tau_k g_k under the injected policies.

    Negative stepsizes from a rule are clamped to 0 and flagged as status
    "clamped". Each iteration spends one extra evaluation on phi at the new
    iterate so the trace carries current values; a step that cannot afford it
    is dropped whole, leaving x intact.
    """
    k = state.k + 1
    c_k = schedule_value(cfg.c_seq, k)
    nu_k = None if cfg.nu_seq is None else schedule_value(cfg.nu_seq, k)

    def move(res):
        tau_k = schedule_value(cfg.tau, k, state.x, res.g)
        check_between("tau_k", tau_k, -math.inf)
        status = "step"
        if tau_k < 0.0:
            tau_k = 0.0
            status = "clamped"
        x = state.x - tau_k * res.g
        f_x = evals.point(x)
        return SearchState(k, x, res.delta_next, c_k, f_x, status, res.g_norm, tau_k)

    return search_step(state, evals, scheme, cfg, k, c_k, nu_k, move)


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
        "gdf", objective, scheme, cfg, noise_level, seed,
        start=lambda x, f: SearchState(0, x, cfg.delta1, math.nan, f),
        step=gdf_step,
        trace_C=lambda before, after: after.C,
    )
