"""Constant-stepsize derivative-free descent with an escalating curvature proxy.

Each iteration finds a finite-difference gradient estimate through the adaptive
interval search, then tests the candidate ``x - (kappa / C) g`` for sufficient
decrease. Failure keeps the iterate and multiplies C by r, so C climbs until
the implied stepsize ``kappa / C`` is small enough for the local curvature,
after which it stays constant. No Lipschitz constant is ever supplied.
An exhausted search ends the run in a "stopped" state (gradapprox.search_step).
"""

from __future__ import annotations

from dataclasses import dataclass

from .driver import StepEvals, check_between, drive
from .gradapprox import GradScheme, SearchConfig, SearchState, search_step
from .oracle import Objective
from .trace import RunReport


@dataclass(frozen=True)
class DfcConfig(SearchConfig):
    c1: float = 1.0
    r: float = 2.0
    kappa: float = 0.5

    def __post_init__(self):
        super().__post_init__()
        check_between("c1", self.c1, 0.0)
        check_between("r", self.r, 1.0)
        check_between("kappa", self.kappa, 0.0)


def dfc_step(state: SearchState, evals: StepEvals, scheme: GradScheme,
             cfg: DfcConfig) -> SearchState:
    """Advance one iteration; raises :class:`BudgetExhausted` if cut off mid-step."""

    def decrease_test(res):
        tau = cfg.kappa / state.C
        candidate = state.x - tau * res.g
        f_cand = evals.point(candidate)
        threshold = (state.f_x - cfg.kappa * (cfg.mu - 2.0) / (2.0 * state.C * cfg.mu)
                     * res.g_norm**2)
        if f_cand <= threshold:
            return SearchState(state.k + 1, candidate, res.delta_next, state.C, f_cand,
                               "accepted", res.g_norm, tau)
        return SearchState(state.k + 1, state.x, res.delta_next, state.C * cfg.r, state.f_x,
                           "rejected", res.g_norm)

    return search_step(state, evals, scheme, cfg, state.k + 1, state.C, None, decrease_test)


def dfc_run(
    objective: Objective,
    scheme: GradScheme,
    cfg: DfcConfig,
    noise_level: float = 0.0,
    seed: int = 0,
) -> RunReport:
    """Run to budget exhaustion or a near-stationarity stop; return the full trace."""
    return drive(
        "dfc", objective, scheme, cfg, noise_level, seed,
        start=lambda x, f: SearchState(0, x, cfg.delta1, cfg.c1, f),
        step=dfc_step,
    )
