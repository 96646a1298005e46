"""Reference competitors sharing the oracle and budget-accounting contract.

Faithful variants for comparative benchmarking, not ports of any specific
third-party codebase: a classical Nelder-Mead simplex, implicit filtering
(finite-difference gradients on an externally fixed decreasing scale schedule,
the designed contrast with the adaptive-interval solvers), and a two-point
Gaussian-smoothing random search that needs an explicit gradient-Lipschitz
constant for its stepsize.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple

import numpy as np

from .driver import ScheduleExhausted, drive
from .gradapprox import GradScheme, approx_gradient
from .oracle import Array, BudgetExhausted, Objective, Oracle
from .trace import RunReport, TraceRecord

NELDER_MEAD = "nelder_mead"
IMFIL = "imfil"
RG = "rg"


def default_imfil_scales(h0: float = 1.0, count: int = 12) -> list:
    return [h0 * 2.0 ** -j for j in range(count)]


@dataclass(frozen=True)
class BaselineConfig:
    solver_kind: str  # "nelder_mead" | "imfil" | "rg"
    x1: Array
    budget: int
    # random gradient-free extras
    rg_lipschitz: Optional[float] = None
    rg_smoothing: Optional[float] = None  # default 1e-6 * (1 + ||x1||)
    # implicit filtering extras
    imfil_scale_sequence: Optional[Sequence[float]] = None  # default 2^-j, 12 scales
    imfil_armijo: float = 1e-4
    imfil_ls_gamma: float = 0.5
    imfil_max_backtracks: int = 10
    # Nelder-Mead extras: reflection, expansion, contraction, shrink
    nm_coefficients: Tuple[float, float, float, float] = (1.0, 2.0, 0.5, 0.5)

    def __post_init__(self):
        object.__setattr__(self, "x1", np.asarray(self.x1, dtype=float))
        if self.budget < 0:
            raise ValueError("budget must be nonnegative")
        if self.solver_kind == RG:
            if self.rg_lipschitz is None or self.rg_lipschitz <= 0:
                raise ValueError("rg requires a positive rg_lipschitz constant")
        elif self.solver_kind == IMFIL:
            scales = self.scales()
            if not scales:
                raise ValueError("imfil needs a nonempty scale sequence")
            if any(s <= 0 for s in scales):
                raise ValueError("imfil scales must be positive")
            if not all(a > b for a, b in zip(scales, scales[1:])):
                raise ValueError("imfil scales must be strictly decreasing")
        elif self.solver_kind != NELDER_MEAD:
            raise ValueError(f"unknown solver kind {self.solver_kind!r}")

    def scales(self) -> list:
        if self.imfil_scale_sequence is None:
            return default_imfil_scales()
        return [float(s) for s in self.imfil_scale_sequence]

    def smoothing(self) -> float:
        if self.rg_smoothing is not None:
            return float(self.rg_smoothing)
        return 1e-6 * (1.0 + float(np.linalg.norm(self.x1)))


def _checked_eval(oracle: Oracle, x: Array, budget: int) -> float:
    if oracle.eval_count >= budget:
        raise BudgetExhausted()
    return oracle.evaluate(x)


def nelder_mead_run(
    objective: Objective,
    cfg: BaselineConfig,
    noise_level: float = 0.0,
    seed: int = 0,
) -> RunReport:
    """Classical reflect/expand/contract/shrink simplex search.

    The initial simplex places one vertex at x1 and one at
    ``x1 + 0.05 * max(|x1_i|, 1) * e_i`` per coordinate.
    """
    n = objective.dim
    if cfg.budget < n + 1:
        raise ValueError("budget must cover the initial simplex (dim + 1 evaluations)")
    rho, chi, psi, sigma = cfg.nm_coefficients
    oracle = Oracle(objective, noise_level, seed)

    verts = [cfg.x1.copy()]
    for i in range(n):
        v = cfg.x1.copy()
        v[i] += 0.05 * max(abs(v[i]), 1.0)
        verts.append(v)
    fv = [oracle.evaluate(v) for v in verts]
    declared = n + 1
    f_best = min(fv)
    trace = [
        TraceRecord(iter=0, evals=oracle.eval_count, f_current=f_best, f_best=f_best,
                    grad_norm_approx=float("nan"), delta=float("nan"),
                    C=float("nan"), tau=float("nan"), step_status="init")
    ]
    k = 0
    truncated = False

    while oracle.eval_count < cfg.budget:
        k += 1
        order = np.argsort(fv, kind="stable")
        verts = [verts[i] for i in order]
        fv = [fv[i] for i in order]
        centroid = np.mean(verts[:-1], axis=0)
        status = "reflect"
        try:
            xr = centroid + rho * (centroid - verts[-1])
            fr = _checked_eval(oracle, xr, cfg.budget)
            declared += 1
            f_best = min(f_best, fr)
            if fv[0] <= fr < fv[-2]:
                verts[-1], fv[-1] = xr, fr
            elif fr < fv[0]:
                xe = centroid + chi * rho * (centroid - verts[-1])
                fe = _checked_eval(oracle, xe, cfg.budget)
                declared += 1
                f_best = min(f_best, fe)
                if fe < fr:
                    verts[-1], fv[-1] = xe, fe
                    status = "expand"
                else:
                    verts[-1], fv[-1] = xr, fr
            else:
                if fr < fv[-1]:
                    xc = centroid + psi * (xr - centroid)
                    fc = _checked_eval(oracle, xc, cfg.budget)
                    declared += 1
                    f_best = min(f_best, fc)
                    if fc <= fr:
                        verts[-1], fv[-1] = xc, fc
                        status = "contract_out"
                    else:
                        status = "shrink"
                else:
                    xcc = centroid - psi * (centroid - verts[-1])
                    fcc = _checked_eval(oracle, xcc, cfg.budget)
                    declared += 1
                    f_best = min(f_best, fcc)
                    if fcc < fv[-1]:
                        verts[-1], fv[-1] = xcc, fcc
                        status = "contract_in"
                    else:
                        status = "shrink"
                if status == "shrink":
                    for i in range(1, n + 1):
                        verts[i] = verts[0] + sigma * (verts[i] - verts[0])
                        fv[i] = _checked_eval(oracle, verts[i], cfg.budget)
                        declared += 1
                        f_best = min(f_best, fv[i])
        except BudgetExhausted:
            truncated = True
            break
        trace.append(
            TraceRecord(iter=k, evals=oracle.eval_count, f_current=float(min(fv)),
                        f_best=f_best, grad_norm_approx=float("nan"),
                        delta=float("nan"), C=float("nan"), tau=float("nan"),
                        step_status=status)
        )

    i_best = int(np.argmin(fv))
    return RunReport(
        solver_id="nelder-mead",
        trace=trace,
        final_x=verts[i_best].copy(),
        best_f=f_best,
        evals=oracle.eval_count,
        declared_evals=declared,
        budget=cfg.budget,
        termination="budget",
        truncated=truncated,
        config={"solver": "nelder_mead", "coefficients": list(cfg.nm_coefficients),
                "budget": cfg.budget, "x1": [float(v) for v in cfg.x1]},
    )


@dataclass(frozen=True)
class ImfilState:
    """State after iteration ``k``; ``delta`` is the scale iteration k sampled at."""

    k: int
    x: Array
    f_x: float
    scale: int = 0  # index of the scale the next iteration samples at
    delta: float = float("nan")
    last_step: str = "init"  # "accepted" | "ls_fail" | "stencil_fail" | "init"
    last_g_norm: float = float("nan")
    last_tau: float = 0.0
    last_candidate_f: Optional[float] = None
    last_cost: int = 0

    C = float("nan")  # no curvature proxy


def imfil_step(state: ImfilState, oracle: Oracle, scheme: GradScheme,
               cfg: BaselineConfig) -> ImfilState:
    """One gradient step at the current scale; a too-small estimate (norm at
    most h) or a failed backtracking search advances the schedule instead."""
    scales = cfg.scales()
    if state.scale >= len(scales):
        raise ScheduleExhausted()
    h = scales[state.scale]
    g = approx_gradient(oracle, scheme, state.x, h)
    cost = scheme.evals_per_call(state.x.shape[0])
    g_norm = float(np.linalg.norm(g))
    failed = replace(state, k=state.k + 1, scale=state.scale + 1, delta=h,
                     last_g_norm=g_norm, last_tau=0.0, last_candidate_f=None,
                     last_cost=cost)
    if g_norm <= h:
        return replace(failed, last_step="stencil_fail")
    t = 1.0
    min_f = np.inf
    for trial in range(cfg.imfil_max_backtracks):
        if oracle.eval_count >= cfg.budget:
            raise BudgetExhausted("budget exhausted during linesearch", partial=min_f,
                                  declared_cost=cost + trial)
        candidate = state.x - t * g
        f_cand = oracle.evaluate(candidate)
        min_f = min(min_f, f_cand)
        if f_cand <= state.f_x - cfg.imfil_armijo * t * g_norm**2:
            return replace(failed, x=candidate, f_x=f_cand, scale=state.scale,
                           last_step="accepted", last_tau=t, last_candidate_f=min_f,
                           last_cost=cost + trial + 1)
        t *= cfg.imfil_ls_gamma
    return replace(failed, last_step="ls_fail", last_candidate_f=min_f,
                   last_cost=cost + cfg.imfil_max_backtracks)


def imfil_run(
    objective: Objective,
    scheme: GradScheme,
    cfg: BaselineConfig,
    noise_level: float = 0.0,
    seed: int = 0,
) -> RunReport:
    """Implicit filtering: :func:`imfil_step` along the configured scale schedule.

    The sampling interval h walks down the schedule no matter what the iterates
    do. The run ends when the budget or the schedule is exhausted.
    """
    config = {"solver": "imfil", "scheme": scheme.value, "budget": cfg.budget,
              "scales": cfg.scales(), "armijo": cfg.imfil_armijo,
              "ls_gamma": cfg.imfil_ls_gamma,
              "max_backtracks": cfg.imfil_max_backtracks,
              "x1": [float(v) for v in cfg.x1]}
    return drive(
        f"imfil-{scheme.value}", objective, scheme, cfg, noise_level, seed,
        start=lambda x, f: ImfilState(k=0, x=x, f_x=f),
        step=imfil_step,
        config=config,
        extras=lambda state: {"iterates": []},
    )


def rg_run(
    objective: Objective,
    cfg: BaselineConfig,
    noise_level: float = 0.0,
    seed: int = 0,
) -> RunReport:
    """Two-point Gaussian random search with stepsize 1 / (4 (n + 4) L).

    Each iteration samples u ~ N(0, I), forms
    ``g = ((phi(x + sigma u) - phi(x)) / sigma) u`` and steps along -g;
    exactly two evaluations per iteration.
    """
    if cfg.rg_lipschitz is None:
        raise ValueError("rg requires rg_lipschitz")
    n = objective.dim
    noise_ss, dir_ss = np.random.SeedSequence(seed).spawn(2)
    oracle = Oracle(objective, noise_level,
                    rng_seed=int(noise_ss.generate_state(1, np.uint64)[0]))
    directions = np.random.default_rng(dir_ss)
    sigma = cfg.smoothing()
    step = 1.0 / (4.0 * (n + 4) * cfg.rg_lipschitz)

    x = cfg.x1.copy()
    f_x = oracle.evaluate(x)
    declared = 1
    f_best = f_x
    trace: list[TraceRecord] = []
    k = 0
    truncated = False

    while oracle.eval_count < cfg.budget:
        k += 1
        u = directions.standard_normal(n)
        try:
            f_probe = _checked_eval(oracle, x + sigma * u, cfg.budget)
            declared += 1
            if oracle.eval_count >= cfg.budget:
                raise BudgetExhausted()
            g = ((f_probe - f_x) / sigma) * u
            x = x - step * g
            f_x = oracle.evaluate(x)
            declared += 1
        except BudgetExhausted:
            truncated = True
            break
        f_best = min(f_best, f_x)
        trace.append(
            TraceRecord(iter=k, evals=oracle.eval_count, f_current=f_x, f_best=f_best,
                        grad_norm_approx=float(np.linalg.norm(g)), delta=sigma,
                        C=float("nan"), tau=step, step_status="step")
        )

    return RunReport(
        solver_id="rg",
        trace=trace,
        final_x=x.copy(),
        best_f=f_best,
        evals=oracle.eval_count,
        declared_evals=declared,
        budget=cfg.budget,
        termination="budget",
        truncated=truncated,
        config={"solver": "rg", "budget": cfg.budget, "lipschitz": cfg.rg_lipschitz,
                "smoothing": sigma, "step": step, "x1": [float(v) for v in cfg.x1]},
    )
