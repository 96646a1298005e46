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
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple

import numpy as np

from .driver import ScheduleExhausted, check_start, config_dict, drive, lower
from .gradapprox import GradScheme, approx_gradient
from .oracle import Array, BudgetExhausted, Objective, Oracle
from .trace import RunReport


def default_imfil_scales(h0: float = 1.0, count: int = 12) -> list:
    return [h0 * 2.0 ** -j for j in range(count)]


@dataclass(frozen=True)
class NelderMeadConfig:
    x1: Array
    budget: int
    # reflection, expansion, contraction, shrink
    coefficients: Tuple[float, float, float, float] = (1.0, 2.0, 0.5, 0.5)

    def __post_init__(self):
        check_start(self)
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
class ImfilConfig:
    x1: Array
    budget: int
    scales: Sequence[float] = tuple(default_imfil_scales())  # strictly decreasing
    armijo: float = 1e-4
    ls_gamma: float = 0.5
    max_backtracks: int = 10

    def __post_init__(self):
        check_start(self)
        scales = tuple(float(s) for s in self.scales)
        object.__setattr__(self, "scales", scales)
        if not scales:
            raise ValueError("imfil needs a nonempty scale sequence")
        if any(s <= 0 for s in scales):
            raise ValueError("imfil scales must be positive")
        if not all(a > b for a, b in zip(scales, scales[1:])):
            raise ValueError("imfil scales must be strictly decreasing")


@dataclass(frozen=True)
class RgConfig:
    x1: Array
    budget: int
    lipschitz: Optional[float] = None  # required
    smoothing: Optional[float] = None  # default 1e-6 * (1 + ||x1||)

    def __post_init__(self):
        check_start(self)
        if self.lipschitz is None or self.lipschitz <= 0:
            raise ValueError("rg requires a positive lipschitz constant")
        smoothing = self.smoothing
        if smoothing is None:
            smoothing = 1e-6 * (1.0 + float(np.linalg.norm(self.x1)))
        if not (math.isfinite(smoothing) and smoothing > 0):
            raise ValueError("rg smoothing must be positive and finite")
        object.__setattr__(self, "smoothing", float(smoothing))


@dataclass  # not frozen, as RgState: that costs about 1.5 us a step; no step mutates one
class SimplexState:
    """Simplex after iteration ``k``: vertex rows ``verts`` with values ``fv``,
    ``x`` its best vertex and ``f_x`` that vertex's value; ``verts`` is None
    before the first step. ``last_step`` is "init", "reflect", "expand",
    "contract_out", "contract_in" or "shrink".

    Row order: the rows are sorted by value (stably, NaN last), except that
    after a reflect, expand or contract step the last row, the vertex the step
    replaced, may be out of place. ``x`` is row 0, or that last row when its
    value is strictly lower."""

    k: int
    x: Array
    f_x: float
    verts: Optional[Array] = None
    fv: Optional[Array] = None
    last_step: str = "init"
    last_candidate_f: Optional[float] = None
    last_cost: int = 0

    delta = C = last_g_norm = last_tau = float("nan")  # no interval, proxy, gradient or step


def _lowest(seen: list) -> float:
    """The lowest non-NaN value in ``seen``; NaN when there is none."""
    low = min(np.inf, *seen)  # folded from inf, so a NaN hides no later value
    return low if low != np.inf or np.inf in seen else math.nan


def _simplex(k: int, verts: Array, fv: Array, status: str, seen: list) -> SimplexState:
    """The simplex after an init or shrink step that evaluated the values
    ``seen``, its rows stably sorted by value with NaN last."""
    order = np.argsort(fv, kind="stable")
    verts, fv = verts[order], fv[order]
    return SimplexState(k, verts[0], fv.item(0), verts, fv, status, _lowest(seen), len(seen))


def _sorted(state: SimplexState) -> Tuple[Array, Array]:
    """Fresh copies of the state's rows, stably sorted by value with NaN last.

    Only the last row can be out of place, so it is moved to where a stable
    argsort would put it: after every value not above it.
    """
    verts, fv = state.verts, state.fv
    p = int(fv[:-1].searchsorted(fv[-1], side="right"))
    return (np.concatenate((verts[:p], verts[-1:], verts[p:-1])),
            np.concatenate((fv[:p], fv[-1:], fv[p:-1])))


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
        seen = [oracle.evaluate(v) for v in verts[1:]]
        return _simplex(0, verts, np.array([state.f_x] + seen), "init", seen)

    rho, chi, psi, sigma = cfg.coefficients
    verts, fv = _sorted(state)
    centroid = np.add.reduce(verts[:-1], axis=0) / (len(fv) - 1)  # np.mean's sum, bit for bit
    seen: list = []
    status = "reflect"
    xr = centroid + rho * (centroid - verts[-1])
    fr = _probe(oracle, xr, cfg.budget, seen)
    if fv[0] <= fr < fv[-2]:
        verts[-1], fv[-1] = xr, fr
    elif fr < fv[0]:
        xe = centroid + chi * rho * (centroid - verts[-1])
        fe = _probe(oracle, xe, cfg.budget, seen)
        if fe < fr:
            verts[-1], fv[-1] = xe, fe
            status = "expand"
        else:
            verts[-1], fv[-1] = xr, fr
    else:  # contract outside when fr beats the worst vertex, else inside
        outside = fr < fv[-1]
        if outside:
            xc = centroid + psi * (xr - centroid)
        else:
            xc = centroid - psi * (centroid - verts[-1])
        fc = _probe(oracle, xc, cfg.budget, seen)
        if (fc <= fr) if outside else (fc < fv[-1]):
            verts[-1], fv[-1] = xc, fc
            status = "contract_out" if outside else "contract_in"
        else:
            status = "shrink"
            verts[1:] = verts[0] + sigma * (verts[1:] - verts[0])
            for i in range(1, len(fv)):
                fv[i] = _probe(oracle, verts[i], cfg.budget, seen)
            return _simplex(state.k + 1, verts, fv, status, seen)
    # rows 0..n-1 are sorted, so the best vertex is row 0 unless the new last
    # row is strictly lower, as a stable argsort would order them
    best = len(fv) - 1 if fv[-1] < fv[0] else 0
    return SimplexState(state.k + 1, verts[best], fv.item(best), verts, fv, status,
                        _lowest(seen), len(seen))


def _no_extras(state) -> dict:
    return {}


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
        extras=_no_extras,
        collect_iterates=False,
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
               cfg: ImfilConfig) -> ImfilState:
    """One gradient step at the current scale; a too-small estimate (norm at
    most h) or a failed backtracking search advances the schedule instead."""
    if state.scale >= len(cfg.scales):
        raise ScheduleExhausted()
    h = cfg.scales[state.scale]
    g = approx_gradient(oracle, scheme, state.x, h)
    cost = scheme.evals_per_call(state.x.shape[0])
    g_norm = float(np.linalg.norm(g))
    failed = replace(state, k=state.k + 1, scale=state.scale + 1, delta=h,
                     last_g_norm=g_norm, last_tau=0.0, last_candidate_f=None,
                     last_cost=cost)
    if g_norm <= h:
        return replace(failed, last_step="stencil_fail")
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
            return replace(failed, x=candidate, f_x=f_cand, scale=state.scale,
                           last_step="accepted", last_tau=t, last_candidate_f=min_f,
                           last_cost=cost + trial + 1)
        t *= cfg.ls_gamma
    return replace(failed, last_step="ls_fail", last_candidate_f=min_f,
                   last_cost=cost + cfg.max_backtracks)


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
        extras=_no_extras,
        collect_iterates=False,
    )


@dataclass  # not frozen: that costs ~1.5 us a step, 4% of a run; no step mutates one
class RgState:
    """State after iteration ``k``; ``delta`` is the smoothing radius sigma and
    ``last_tau`` the fixed stepsize, both set once per run."""

    k: int
    x: Array
    f_x: float
    directions: np.random.Generator
    delta: float
    last_tau: float
    last_g_norm: float = float("nan")
    last_candidate_f: Optional[float] = None
    last_cost: int = 0
    last_step: str = "init"  # "step" | "init"

    C = float("nan")  # no curvature proxy


def rg_step(state: RgState, oracle: Oracle, scheme, cfg: RgConfig) -> RgState:
    """One probe at ``x + sigma u`` with u ~ N(0, I), then a step along
    ``-((phi(x + sigma u) - phi(x)) / sigma) u``; the probe value is not an
    iterate value, so it stays out of ``f_best``."""
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
        extras=_no_extras,
        collect_iterates=False,
    )
