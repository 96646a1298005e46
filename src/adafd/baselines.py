"""Reference competitors sharing the oracle and budget-accounting contract.

Faithful variants for comparative benchmarking, not ports of any specific
third-party codebase: a classical Nelder-Mead simplex, implicit filtering
(finite-difference gradients on an externally fixed decreasing scale schedule,
the designed contrast with the adaptive-interval solvers), and a two-point
Gaussian-smoothing random search whose stepsize needs a gradient-Lipschitz
constant: the configured one, or else the objective's.
"""

from __future__ import annotations

import copy
import itertools
import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .driver import (StartConfig, StepEvals, ValidationError, check_between, check_count, drive,
                     estimate_norm, schedule_value, shrinking)
from .gradapprox import GradScheme, stencil_gradient
from .oracle import Array, Objective
from .trace import RunReport


def default_imfil_scales(h0: float = 1.0, count: int = 12) -> list:
    return [h0 * 2.0 ** -j for j in range(count)]


@dataclass(frozen=True)
class NelderMeadConfig(StartConfig):
    # reflection, expansion, contraction, shrink
    coefficients: Tuple[float, float, float, float] = (1.0, 2.0, 0.5, 0.5)

    def __post_init__(self):
        super().__post_init__()
        if len(self.coefficients) != 4:
            raise ValidationError("nelder-mead coefficients must be four numbers "
                                  "(reflection, expansion, contraction, shrink)")
        rho, chi, psi, sigma = self.coefficients
        # Lagarias, Reeds, Wright and Wright (1998), eq. (2.1)
        check_between("coefficients: reflection rho", rho, 0.0)
        check_between("coefficients: expansion chi", chi, max(1.0, rho))
        check_between("coefficients: contraction psi", psi, 0.0, 1.0)
        check_between("coefficients: shrink sigma", sigma, 0.0, 1.0)


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
        for s in scales:
            check_between("imfil scale", s, 0.0)
        if not all(a > b for a, b in zip(scales, scales[1:])):
            raise ValueError("imfil scales must be strictly decreasing")
        check_between("armijo", self.armijo, 0.0, 1.0)
        check_between("ls_gamma", self.ls_gamma, 0.0, 1.0)
        check_count("max_backtracks", self.max_backtracks, 0)


@dataclass(frozen=True)
class RgConfig(StartConfig):
    lipschitz: Optional[float] = None  # default: the objective's lipschitz_grad_constant
    smoothing: Optional[float] = None  # default 1e-6 * (1 + ||x1||)

    def __post_init__(self):
        super().__post_init__()
        if self.lipschitz is not None:
            check_between("lipschitz", self.lipschitz, 0.0)
        smoothing = self.smoothing
        if smoothing is None:
            smoothing = 1e-6 * (1.0 + float(np.linalg.norm(self.x1)))
        check_between("smoothing", smoothing, 0.0)
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

    delta = C = last_g_norm = last_tau = float("nan")  # no interval, proxy, gradient or step


def _simplex(k: int, verts: Array, fv: Array, status: str) -> SimplexState:
    """The simplex after an init or shrink step, its rows stably sorted by
    value with NaN last."""
    order = np.argsort(fv, kind="stable")
    verts, fv = verts[order], fv[order]
    return SimplexState(k, verts[0], fv.item(0), verts, fv, status)


def nelder_mead_step(state: SimplexState, evals: StepEvals, scheme,
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
        values = [state.f_x] + [evals.point(v) for v in verts[1:]]
        return _simplex(0, verts, np.array(values), "init")

    rho, chi, psi, sigma = cfg.coefficients
    verts, fv = state.verts, state.fv
    f_low, f_second, f_worst = fv.item(0), fv.item(-2), fv.item(-1)
    centroid = np.add.reduce(verts[:-1], axis=0)  # np.mean's sum, bit for bit
    centroid /= len(fv) - 1
    d = centroid - verts[-1]
    status = "reflect"
    x_new = xr = centroid + rho * d
    f_new = fr = evals.point(xr)
    # the reflection stays when f_low <= fr < f_second, or when fr < f_low and
    # the expansion is no lower
    if fr < f_low:
        xe = centroid + chi * rho * d
        fe = evals.point(xe)
        if fe < fr:
            x_new, f_new, status = xe, fe, "expand"
    elif not fr < f_second:  # contract outside when fr beats the worst vertex, else inside
        outside = fr < f_worst
        xc = centroid + psi * (xr - centroid) if outside else centroid - psi * d
        fc = evals.point(xc)
        if (fc <= fr) if outside else (fc < f_worst):
            x_new, f_new = xc, fc
            status = "contract_out" if outside else "contract_in"
        else:
            shrunk = verts[0] + sigma * (verts[1:] - verts[0])
            values = [f_low] + [evals.point(v) for v in shrunk]
            return _simplex(state.k + 1, np.concatenate((verts[:1], shrunk)), np.array(values),
                            "shrink")
    # the new vertex replaces the worst one where a stable argsort would put
    # it, after every value not above it
    p = int(fv[:-1].searchsorted(f_new, side="right"))
    verts = np.concatenate((verts[:p], x_new[None], verts[p:-1]))
    fv = np.concatenate((fv[:p], (f_new,), fv[p:-1]))
    return SimplexState(state.k + 1, verts[0], fv.item(0), verts, fv, status)


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
    return drive(
        "nelder-mead", objective, None, cfg, noise_level, seed,
        start=lambda x, f: SimplexState(k=0, x=x, f_x=f),
        step=nelder_mead_step,
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

    C = float("nan")  # no curvature proxy


def imfil_step(state: ImfilState, evals: StepEvals, scheme: GradScheme,
               cfg: ImfilConfig) -> ImfilState:
    """One gradient step at the current scale; a too-small estimate (norm at
    most h) or a failed backtracking search advances the schedule instead."""
    h = schedule_value(cfg.scales, state.scale + 1)
    g = stencil_gradient(evals, scheme, state.x, h)
    g_norm = estimate_norm(g)
    if not h < g_norm < math.inf:  # too small, or a NaN or infinite estimate
        return ImfilState(state.k + 1, state.x, state.f_x, state.scale + 1, h, "stencil_fail",
                          g_norm)
    steps = itertools.islice(shrinking(1.0, cfg.ls_gamma), cfg.max_backtracks)
    t, passed, f_cand = evals.linesearch(state.x, g, steps, state.f_x, cfg.armijo, g_norm**2)
    if passed:
        return ImfilState(state.k + 1, state.x - t * g, f_cand, state.scale, h, "accepted",
                          g_norm, t)
    return ImfilState(state.k + 1, state.x, state.f_x, state.scale + 1, h, "ls_fail", g_norm)


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
        "imfil", objective, scheme, cfg, noise_level, seed,
        start=lambda x, f: ImfilState(k=0, x=x, f_x=f),
        step=imfil_step,
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
    last_step: str = "init"  # "step" | "init"

    C = float("nan")  # no curvature proxy


def rg_step(state: RgState, evals: StepEvals, scheme, cfg: RgConfig) -> RgState:
    """One probe at ``x + sigma u`` with u ~ N(0, I), then a step along
    ``-((phi(x + sigma u) - phi(x)) / sigma) u``; the probe value is not an
    iterate value, so it stays out of ``f_best``."""
    sigma = state.delta
    directions = copy.deepcopy(state.directions)  # the new state holds the advanced copy
    u = directions.standard_normal(state.x.shape[0])
    f_probe = evals.point(state.x + sigma * u, candidate=False)
    g = ((f_probe - state.f_x) / sigma) * u
    x = state.x - state.last_tau * g
    f_x = evals.point(x)
    return RgState(state.k + 1, x, f_x, directions, sigma, state.last_tau,
                   estimate_norm(g), "step")


def rg_run(
    objective: Objective,
    cfg: RgConfig,
    noise_level: float = 0.0,
    seed: int = 0,
) -> RunReport:
    """Two-point Gaussian random search with stepsize 1 / (4 (n + 4) L):
    :func:`rg_step` until the budget is exhausted, exactly two evaluations per
    iteration. Noise and directions draw from two streams spawned from ``seed``.
    L is ``cfg.lipschitz``, else the objective's constant; the run's config records L.
    """
    if cfg.lipschitz is None:
        L = objective.lipschitz_grad_constant
        if L is None:
            raise ValidationError("rg needs a gradient-Lipschitz constant; this objective has none")
        cfg = replace(cfg, lipschitz=L)  # which checks L as a configured one is checked
    noise_ss, dir_ss = np.random.SeedSequence(seed).spawn(2)
    directions = np.random.default_rng(dir_ss)
    step = 1.0 / (4.0 * (objective.dim + 4) * cfg.lipschitz)
    return drive(
        "rg", objective, None, cfg, noise_level,
        int(noise_ss.generate_state(1, np.uint64)[0]),
        start=lambda x, f: RgState(k=0, x=x, f_x=f, directions=directions,
                                   delta=cfg.smoothing, last_tau=step),
        step=rg_step,
        collect_iterates=False,
    )
