"""Constant-stepsize derivative-free descent with an escalating curvature proxy.

Each iteration finds a finite-difference gradient estimate through the adaptive
interval search, then tests the candidate ``x - (kappa / C) g`` for sufficient
decrease. Failure keeps the iterate and multiplies C by r, so C climbs until
the implied stepsize ``kappa / C`` is small enough for the local curvature,
after which it stays constant. No Lipschitz constant is ever supplied.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .driver import config_dict, drive
from .gradapprox import GradScheme, SearchConfig, adaptive_gradient
from .oracle import Array, BudgetExhausted, Objective, Oracle
from .trace import RunReport


@dataclass(frozen=True)
class DfcConfig(SearchConfig):
    c1: float = 1.0
    r: float = 2.0
    kappa: float = 0.5

    def __post_init__(self):
        super().__post_init__()
        if self.c1 <= 0:
            raise ValueError("c1 must be positive")
        if self.r <= 1.0:
            raise ValueError("r must exceed 1")
        if self.kappa <= 0.0:
            raise ValueError("kappa must be positive")


class DfcState(NamedTuple):
    """Solver state after iteration ``k`` (k = 0 is the freshly initialized run)."""

    k: int
    x: Array
    delta: float
    C: float
    f_x: float
    last_step: str = "init"  # "accepted" | "rejected" | "stopped" | "init"
    last_g_norm: float = float("nan")
    last_tau: float = 0.0
    last_candidate_f: float = float("nan")
    last_cost: int = 0  # declared oracle cost of the last step


def dfc_step(state: DfcState, oracle: Oracle, scheme: GradScheme, cfg: DfcConfig) -> DfcState:
    """Advance one iteration; raises :class:`BudgetExhausted` if cut off mid-step."""
    if state.last_step == "stopped":
        raise RuntimeError("cannot step a stopped solver state")
    res = adaptive_gradient(
        oracle, scheme, state.x, state.delta, state.C, cfg.mu, cfg.theta,
        nu_k=None, i_max=cfg.i_max, budget=cfg.budget,
    )
    if res.exhausted:
        return DfcState(state.k + 1, state.x, res.delta_next, state.C, state.f_x, "stopped",
                        res.g_norm, 0.0, float("nan"), res.cost)

    if oracle.eval_count >= cfg.budget:
        raise BudgetExhausted("budget exhausted before the decrease test", declared_cost=res.cost)
    tau = cfg.kappa / state.C
    candidate = state.x - tau * res.g
    f_cand = oracle.evaluate(candidate)
    threshold = state.f_x - cfg.kappa * (cfg.mu - 2.0) / (2.0 * state.C * cfg.mu) * res.g_norm**2
    if f_cand <= threshold:
        return DfcState(state.k + 1, candidate, res.delta_next, state.C, f_cand, "accepted",
                        res.g_norm, tau, f_cand, res.cost + 1)
    return DfcState(state.k + 1, state.x, res.delta_next, state.C * cfg.r, state.f_x,
                    "rejected", res.g_norm, 0.0, f_cand, res.cost + 1)


def dfc_run(
    objective: Objective,
    scheme: GradScheme,
    cfg: DfcConfig,
    noise_level: float = 0.0,
    seed: int = 0,
) -> RunReport:
    """Run to budget exhaustion or a near-stationarity stop; return the full trace."""
    return drive(
        f"dfc-{scheme.value}", objective, scheme, cfg, noise_level, seed,
        start=lambda x, f: DfcState(k=0, x=x, delta=cfg.delta1, C=cfg.c1, f_x=f),
        step=dfc_step,
        config=config_dict("dfc", scheme, cfg),
    )
