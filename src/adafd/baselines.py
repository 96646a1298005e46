"""Reference competitors sharing the oracle and budget-accounting contract.

Faithful variants for comparative benchmarking, not ports of any specific
third-party codebase: a classical Nelder-Mead simplex, implicit filtering
(finite-difference gradients on an externally fixed decreasing scale schedule,
the designed contrast with the adaptive-interval solvers), and a two-point
Gaussian-smoothing random search that needs an explicit gradient-Lipschitz
constant for its stepsize.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .driver import ScheduleExhausted, StartConfig, config_dict, drive, lower
from .gradapprox import GradScheme, approx_gradient
from .oracle import Array, BudgetExhausted, Objective, Oracle
from .trace import RunReport


def default_imfil_scales(h0: float = 1.0, count: int = 12) -> list:
    return [h0 * 2.0 ** -j for j in range(count)]


@dataclass(frozen=True)
class NelderMeadConfig(StartConfig):
    # reflection, expansion, contraction, shrink
    coefficients: Tuple[float, float, float, float] = (1.0, 2.0, 0.5, 0.5)

    def __post_init__(self):
        super().__post_init__()
        coefficients = tuple(self.coefficients)
        if len(coefficients) != 4 or not all(map(math.isfinite, coefficients)):
            raise ValueError("nelder-mead coefficients must be four finite numbers "
                             "(reflection, expansion, contraction, shrink)")
        rho, chi, psi, sigma = coefficients
        # Lagarias, Reeds, Wright and Wright (1998), eq. (2.1)
        if not (rho > 0 and chi > 1 and chi > rho and 0 < psi < 1 and 0 < sigma < 1):
            raise ValueError("nelder-mead coefficients need rho > 0, chi > 1, chi > rho, "
                             "0 < psi < 1 and 0 < sigma < 1")


@dataclass(frozen=True)
class ImfilConfig(StartConfig):
    scales: Sequence[float] = tuple(default_imfil_scales())  # strictly decreasing
    armijo: float = 1e-4
    ls_gamma: float = 0.5
    max_backtracks: int = 10

    def __post_init__(self):
        super().__post_init__()
        scales = tuple(float(s) for s in self.scales)
        object.__setattr__(self, "scales", scales)
        if not scales:
            raise ValueError("imfil needs a nonempty scale sequence")
        if any(s <= 0 for s in scales):
            raise ValueError("imfil scales must be positive")
        if not all(a > b for a, b in zip(scales, scales[1:])):
            raise ValueError("imfil scales must be strictly decreasing")


@dataclass(frozen=True)
class RgConfig(StartConfig):
    lipschitz: Optional[float] = None  # required
    smoothing: Optional[float] = None  # default 1e-6 * (1 + ||x1||)

    def __post_init__(self):
        super().__post_init__()
        if self.lipschitz is None or not (math.isfinite(self.lipschitz) and self.lipschitz > 0):
            raise ValueError("rg requires a positive, finite lipschitz constant")
        smoothing = self.smoothing
        if smoothing is None:
            smoothing = 1e-6 * (1.0 + float(np.linalg.norm(self.x1)))
        if not (math.isfinite(smoothing) and smoothing > 0):
            raise ValueError("rg smoothing must be positive and finite")
        object.__setattr__(self, "smoothing", float(smoothing))


class SimplexState(NamedTuple):
    """Simplex after iteration ``k``: vertex rows ``verts`` with values ``fv``,
    sorted by value (stably, NaN last), so ``x`` is row 0 and ``f_x`` its
    value; ``verts`` is None before the first step. ``last_step`` is "init",
    "reflect", "expand", "contract_out", "contract_in" or "shrink". A step
    returns a new state with fresh arrays and never mutates the one it got."""

    k: int
    x: Array
    f_x: float
    verts: Optional[Array] = None
    fv: Optional[Array] = None
    last_step: str = "init"
    last_candidate_f: float = math.nan
    last_cost: int = 0

    delta = C = last_g_norm = last_tau = float("nan")  # no interval, proxy, gradient or step


def _lowest(seen: list) -> float:
    """The lowest non-NaN value in ``seen``; NaN when there is none."""
    if len(seen) < 2:
        return seen[0] if seen else math.nan
    low = min(np.inf, *seen)  # folded from inf, so a NaN hides no later value
    return low if low != np.inf or np.inf in seen else math.nan


def _simplex(k: int, verts: Array, fv: Array, status: str, seen: list) -> SimplexState:
    """The simplex after an init or shrink step that evaluated the values
    ``seen``, its rows stably sorted by value with NaN last."""
    order = np.argsort(fv, kind="stable")
    verts, fv = verts[order], fv[order]
    return SimplexState(k, verts[0], fv.item(0), verts, fv, status, _lowest(seen), len(seen))


def _probe(oracle: Oracle, x: Array, budget: int, seen: list) -> float:
    """Evaluate x within the budget; ``seen`` collects the step's values."""
    if oracle.eval_count >= budget:
        raise BudgetExhausted(partial=_lowest(seen), declared_cost=len(seen))
    f = oracle.evaluate(x)
    seen.append(f)
    return f


def nelder_mead_step(state: SimplexState, oracle: Oracle, scheme,
                     cfg: NelderMeadConfig) -> SimplexState:
    """One reflect/expand/contract/shrink iteration on the simplex sorted by value.

    The first call builds the initial simplex instead: one vertex at x1 and one
    at ``x1 + 0.05 * max(|x1_i|, 1) * e_i`` per coordinate, reported as
    iteration 0. A step cut off by the budget leaves the simplex as it was.
    """
    if state.verts is None:
        n = state.x.shape[0]
        verts = np.tile(state.x, (n + 1, 1))
        for i in range(n):
            verts[i + 1, i] += 0.05 * max(abs(verts[i + 1, i]), 1.0)
        seen: list = []
        for v in verts[1:]:
            _probe(oracle, v, cfg.budget, seen)
        return _simplex(0, verts, np.array([state.f_x] + seen), "init", seen)

    rho, chi, psi, sigma = cfg.coefficients
    verts, fv = state.verts, state.fv
    f_low, f_second, f_worst = fv.item(0), fv.item(-2), fv.item(-1)
    centroid = np.add.reduce(verts[:-1], axis=0)  # np.mean's sum, bit for bit
    centroid /= len(fv) - 1
    d = centroid - verts[-1]
    seen: list = []
    status = "reflect"
    x_new = xr = centroid + rho * d
    f_new = fr = _probe(oracle, xr, cfg.budget, seen)
    # the reflection stays when f_low <= fr < f_second, or when fr < f_low and
    # the expansion is no lower
    if fr < f_low:
        xe = centroid + chi * rho * d
        fe = _probe(oracle, xe, cfg.budget, seen)
        if fe < fr:
            x_new, f_new, status = xe, fe, "expand"
    elif not fr < f_second:  # contract outside when fr beats the worst vertex, else inside
        outside = fr < f_worst
        xc = centroid + psi * (xr - centroid) if outside else centroid - psi * d
        fc = _probe(oracle, xc, cfg.budget, seen)
        if (fc <= fr) if outside else (fc < f_worst):
            x_new, f_new = xc, fc
            status = "contract_out" if outside else "contract_in"
        else:
            shrunk = verts[0] + sigma * (verts[1:] - verts[0])
            values = [f_low] + [_probe(oracle, v, cfg.budget, seen) for v in shrunk]
            return _simplex(state.k + 1, np.concatenate((verts[:1], shrunk)), np.array(values),
                            "shrink", seen)
    # the new vertex replaces the worst one where a stable argsort would put
    # it, after every value not above it
    p = int(fv[:-1].searchsorted(f_new, side="right"))
    verts = np.concatenate((verts[:p], x_new[None], verts[p:-1]))
    fv = np.concatenate((fv[:p], (f_new,), fv[p:-1]))
    return SimplexState(state.k + 1, verts[0], fv.item(0), verts, fv, status, _lowest(seen),
                        len(seen))


def nelder_mead_run(
    objective: Objective,
    cfg: NelderMeadConfig,
    noise_level: float = 0.0,
    seed: int = 0,
) -> RunReport:
    """Classical reflect/expand/contract/shrink simplex search: the initial
    simplex, then :func:`nelder_mead_step` until the budget is exhausted.

    ``final_x`` is the best vertex of the last complete simplex.
    """
    if cfg.budget < objective.dim + 1:
        raise ValueError("budget must cover the initial simplex (dim + 1 evaluations)")
    return drive(
        "nelder-mead", objective, None, cfg, noise_level, seed,
        start=lambda x, f: SimplexState(k=0, x=x, f_x=f),
        step=nelder_mead_step,
        config=config_dict("nelder_mead", None, cfg),
        collect_iterates=False,
    )


class ImfilState(NamedTuple):
    """State after iteration ``k``; ``delta`` is the scale iteration k sampled at."""

    k: int
    x: Array
    f_x: float
    scale: int = 0  # index of the scale the next iteration samples at
    delta: float = float("nan")
    last_step: str = "init"  # "accepted" | "ls_fail" | "stencil_fail" | "init"
    last_g_norm: float = float("nan")
    last_tau: float = 0.0
    last_candidate_f: float = math.nan
    last_cost: int = 0

    C = float("nan")  # no curvature proxy


def imfil_step(state: ImfilState, oracle: Oracle, scheme: GradScheme,
               cfg: ImfilConfig) -> ImfilState:
    """One gradient step at the current scale; a too-small estimate (norm at
    most h) or a failed backtracking search advances the schedule instead."""
    if state.scale >= len(cfg.scales):
        raise ScheduleExhausted()
    if oracle.eval_count >= cfg.budget:
        raise BudgetExhausted()
    h = cfg.scales[state.scale]
    g = approx_gradient(oracle, scheme, state.x, h)
    cost = scheme.evals_per_call(state.x.shape[0])
    g_norm = float(np.linalg.norm(g))
    if not h < g_norm < math.inf:  # too small, or a NaN or infinite estimate
        return ImfilState(state.k + 1, state.x, state.f_x, state.scale + 1, h, "stencil_fail",
                          g_norm, 0.0, math.nan, cost)
    t = 1.0
    min_f = math.nan
    for trial in range(cfg.max_backtracks):
        if oracle.eval_count >= cfg.budget:
            raise BudgetExhausted("budget exhausted during linesearch", partial=min_f,
                                  declared_cost=cost + trial)
        candidate = state.x - t * g
        f_cand = oracle.evaluate(candidate)
        min_f = lower(min_f, f_cand)
        if f_cand <= state.f_x - cfg.armijo * t * g_norm**2:
            return ImfilState(state.k + 1, candidate, f_cand, state.scale, h, "accepted",
                              g_norm, t, min_f, cost + trial + 1)
        t *= cfg.ls_gamma
    return ImfilState(state.k + 1, state.x, state.f_x, state.scale + 1, h, "ls_fail", g_norm,
                      0.0, min_f, cost + cfg.max_backtracks)


def imfil_run(
    objective: Objective,
    scheme: GradScheme,
    cfg: ImfilConfig,
    noise_level: float = 0.0,
    seed: int = 0,
) -> RunReport:
    """Implicit filtering: :func:`imfil_step` along the configured scale schedule.

    The sampling interval h walks down the schedule no matter what the iterates
    do. The run ends when the budget or the schedule is exhausted.
    """
    return drive(
        f"imfil-{scheme.value}", objective, scheme, cfg, noise_level, seed,
        start=lambda x, f: ImfilState(k=0, x=x, f_x=f),
        step=imfil_step,
        config=config_dict("imfil", scheme, cfg),
        collect_iterates=False,
    )


class RgState(NamedTuple):
    """State after iteration ``k``; ``delta`` is the smoothing radius sigma and
    ``last_tau`` the fixed stepsize, both set once per run."""

    k: int
    x: Array
    f_x: float
    directions: np.random.Generator
    delta: float
    last_tau: float
    last_g_norm: float = float("nan")
    last_candidate_f: float = math.nan
    last_cost: int = 0
    last_step: str = "init"  # "step" | "init"

    C = float("nan")  # no curvature proxy


def rg_step(state: RgState, oracle: Oracle, scheme, cfg: RgConfig) -> RgState:
    """One probe at ``x + sigma u`` with u ~ N(0, I), then a step along
    ``-((phi(x + sigma u) - phi(x)) / sigma) u``; the probe value is not an
    iterate value, so it stays out of ``f_best``."""
    if oracle.eval_count >= cfg.budget:
        raise BudgetExhausted()
    sigma = state.delta
    u = state.directions.standard_normal(state.x.shape[0])
    f_probe = oracle.evaluate(state.x + sigma * u)
    if oracle.eval_count >= cfg.budget:
        raise BudgetExhausted(declared_cost=1)
    g = ((f_probe - state.f_x) / sigma) * u
    x = state.x - state.last_tau * g
    f_x = oracle.evaluate(x)
    return RgState(state.k + 1, x, f_x, state.directions, sigma, state.last_tau,
                   math.sqrt(g.dot(g)), f_x, 2, "step")  # np.linalg.norm's own formula


def rg_run(
    objective: Objective,
    cfg: RgConfig,
    noise_level: float = 0.0,
    seed: int = 0,
) -> RunReport:
    """Two-point Gaussian random search with stepsize 1 / (4 (n + 4) L):
    :func:`rg_step` until the budget is exhausted, exactly two evaluations per
    iteration. Noise and directions draw from two streams spawned from ``seed``.
    """
    noise_ss, dir_ss = np.random.SeedSequence(seed).spawn(2)
    directions = np.random.default_rng(dir_ss)
    step = 1.0 / (4.0 * (objective.dim + 4) * cfg.lipschitz)
    config = config_dict("rg", None, cfg)
    config["step"] = step
    return drive(
        "rg", objective, None, cfg, noise_level,
        int(noise_ss.generate_state(1, np.uint64)[0]),
        start=lambda x, f: RgState(k=0, x=x, f_x=f, directions=directions,
                                   delta=cfg.smoothing, last_tau=step),
        step=rg_step,
        config=config,
        collect_iterates=False,
    )
