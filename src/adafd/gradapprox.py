"""Finite-difference gradient estimates and the shared adaptive interval search.

The adaptive search keeps the sampling interval as large as possible: starting
from the incoming radius it shrinks by a factor theta only until the estimate's
norm clears a threshold proportional to the interval itself. No knowledge of a
noise level or Lipschitz constant is required.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .driver import StartConfig, StepEvals, check_between, check_count, estimate_norm
from .oracle import Array, Oracle


@dataclass(frozen=True)
class SearchConfig(StartConfig):
    """The fields that every interval-search config carries after ``x1`` and
    ``budget``: the search parameters delta1, theta, mu and i_max, which
    :func:`adaptive_gradient` reads from here. ``DfcConfig``, ``DfbConfig``
    and ``GdfConfig`` add their own fields after these."""

    delta1: float = 0.1
    theta: float = 0.5
    mu: float = 4.0
    # Interval reductions per search: at theta = 1/2 the last interval is 2**-60 of the
    # radius, and a gradient that fails the norm test there is taken as near-stationary.
    i_max: int = 60

    def __post_init__(self):
        super().__post_init__()
        check_between("delta1", self.delta1, 0.0)
        check_between("theta", self.theta, 0.0, 1.0)
        check_between("mu", self.mu, 2.0)
        check_count("i_max", self.i_max, 0)


class GradScheme(enum.Enum):
    """Finite-difference stencil choice, with its exact per-call oracle cost."""

    FORWARD = "forward"
    CENTRAL = "central"

    def evals_per_call(self, dim: int) -> int:
        return dim + 1 if self is GradScheme.FORWARD else 2 * dim

    @property
    def suffix(self) -> str:
        """The end of a registered solver id that uses this scheme, as in "dfc-fordif"."""
        return "fordif" if self is GradScheme.FORWARD else "cendif"


def forward_diff(oracle: Oracle, x: Array, delta: float) -> Array:
    """Forward-difference gradient estimate; costs exactly dim + 1 evaluations.

    One :meth:`Oracle.evaluate_stencil` call gives the base value phi(x),
    shared across all coordinates and charged first, and the points
    x + delta e_i, in order of i.
    """
    check_between("sampling interval", delta, 0.0)
    f0, values = oracle.evaluate_stencil(x, np.array([delta]), base=True)
    return (values[:, 0] - f0) / delta


def central_diff(oracle: Oracle, x: Array, delta: float) -> Array:
    """Central-difference gradient estimate; costs exactly 2 * dim evaluations,
    at x + delta e_i and x - delta e_i for i = 0, 1, ..."""
    check_between("sampling interval", delta, 0.0)
    values = oracle.evaluate_stencil(x, np.array([delta, -delta]))
    return (values[:, 0] - values[:, 1]) / (2.0 * delta)


def stencil_gradient(evals: StepEvals, scheme: GradScheme, x: Array, delta: float) -> Array:
    """:func:`forward_diff` or :func:`central_diff`, as ``scheme`` says, as one
    unit of a step: started only below the budget of ``evals`` and declared in
    its ``cost``."""
    evals.check()
    diff = forward_diff if scheme is GradScheme.FORWARD else central_diff
    g = diff(evals.oracle, x, delta)
    evals.cost += scheme.evals_per_call(x.shape[0])
    return g


def fd_error_bound(lipschitz_const: float, dim: int, delta: float) -> float:
    """Guaranteed noiseless error bound L * sqrt(dim) * delta / 2.

    Valid for both stencils whenever the gradient is Lipschitz with constant
    ``lipschitz_const`` on the probed ball.
    """
    check_between("lipschitz_const", lipschitz_const, 0.0)
    check_between("delta", delta, 0.0)
    return lipschitz_const * np.sqrt(dim) * delta / 2.0


class AdaptiveGradResult(NamedTuple):
    """Outcome of one adaptive interval search.

    Unless ``exhausted``, the accepted estimate satisfies
    ``g_norm > mu * c_k * delta_next`` and ``delta_next = theta**inner_steps * delta_k``.
    ``g_norm`` is ``norm(g)``, the value the test compared. The search spent
    ``inner_steps + 1`` stencil calls, or none when an exhausted search stopped
    before its first stencil; the run's ledger, its :class:`StepEvals`, declares them.
    """

    g: Array
    delta_next: float
    inner_steps: int
    exhausted: bool
    g_norm: float


def adaptive_gradient(
    evals: StepEvals,
    scheme: GradScheme,
    x: Array,
    delta_k: float,
    c_k: float,
    cfg: SearchConfig,
    nu_k: Optional[float] = None,
) -> AdaptiveGradResult:
    """Find the largest interval theta**i * delta_k whose estimate passes the norm test.

    Tries i = 0, 1, ..., i_max, with theta, mu and i_max read from ``cfg``,
    which checked them. At each i the estimate is computed at interval
    ``min(theta**i * delta_k, nu_k)`` (just ``theta**i * delta_k`` when ``nu_k``
    is None), while the acceptance threshold ``mu * c_k * theta**i * delta_k``
    always uses the unclamped radius. An estimate with a non-finite norm (an
    infinite or NaN value in its stencil) never passes, so the interval shrinks.
    Returns the first accepted estimate, or ``exhausted=True`` with the last one
    if no i qualifies. The search also stops, exhausted, before a stencil whose
    interval no longer moves any coordinate of x (``x + interval == x``), where
    every difference would be zero or pure noise. If that happens at i = 0, no
    stencil ran: ``g`` and ``g_norm`` are NaN.

    Each stencil goes through :func:`stencil_gradient`: ``evals`` declares it,
    and raises :class:`BudgetExhausted` if its budget is spent before the
    stencil starts. Stencil values are neither iterate nor candidate values,
    so ``evals.low`` is left as it was.
    """
    check_between("delta_k", delta_k, 0.0)
    if not c_k > 0:  # not check_between: DFC's escalation C *= r may reach +inf
        raise ValueError(f"c_k must be positive, got {c_k!r}")
    if nu_k is not None:
        check_between("nu_k", nu_k, 0.0)

    x = np.asarray(x, dtype=float)
    norm = math.nan
    radius = delta_k
    ran = 0  # stencils evaluated; equals i at the top of each pass
    for i in range(cfg.i_max + 1):
        radius = cfg.theta**i * delta_k
        interval = radius if nu_k is None else min(radius, nu_k)
        if interval <= 0.0 or (x + interval == x).all():
            break  # below the float spacing of x (or underflowed): nothing to evaluate
        g = stencil_gradient(evals, scheme, x, interval)
        ran += 1
        norm = estimate_norm(g)
        if math.isfinite(norm) and norm > cfg.mu * c_k * radius:
            return AdaptiveGradResult(g, radius, i, False, norm)
    if not ran:
        g = np.full(x.shape[0], np.nan)  # no estimate: no stencil ran
    return AdaptiveGradResult(g, radius, max(ran - 1, 0), True, norm)


class SearchState(NamedTuple):
    """State of DFC, DFB or GDF after iteration ``k`` (k = 0 is the freshly
    initialized run).

    ``C`` is, for DFC and DFB, the proxy after the step's escalation; for GDF,
    the ``C_k`` its step ran with (NaN at k = 0). ``last_step`` is "accepted"
    or "rejected" for DFC, "accepted" or "null" for DFB, "step" or "clamped"
    for GDF, and "init" or "stopped" for all three. ``t_min`` is DFB's
    linesearch floor; it stays NaN for DFC and GDF.
    """

    k: int
    x: Array
    delta: float
    C: float
    f_x: float
    last_step: str = "init"
    last_g_norm: float = float("nan")
    last_tau: float = 0.0
    t_min: float = float("nan")


def search_step(state: SearchState, evals: StepEvals, scheme: GradScheme, cfg: SearchConfig,
                k: int, c_k: float, nu_k: Optional[float], then: Callable) -> SearchState:
    """Step ``k`` of DFC, DFB or GDF: the search at ``(c_k, nu_k)`` from ``state``,
    then ``then(res)``, all declared in ``evals``. An exhausted search stops the
    run, keeping ``x``, ``f_x`` and ``t_min``."""
    if state.last_step == "stopped":
        raise RuntimeError("cannot step a stopped solver state")
    res = adaptive_gradient(evals, scheme, state.x, state.delta, c_k, cfg, nu_k)
    if res.exhausted:
        return state._replace(k=k, C=c_k, delta=res.delta_next, last_step="stopped",
                              last_g_norm=res.g_norm, last_tau=0.0)
    return then(res)
