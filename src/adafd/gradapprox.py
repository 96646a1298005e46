"""Finite-difference gradient estimates and the shared adaptive interval search.

The adaptive search keeps the sampling interval as large as possible: starting
from the incoming radius it shrinks by a factor theta only until the estimate's
norm clears a threshold proportional to the interval itself. No knowledge of a
noise level or Lipschitz constant is required.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .driver import StartConfig
from .oracle import Array, BudgetExhausted, Oracle

#: Default cap on the number of interval reductions in one adaptive search.
#: With theta = 1/2 the smallest interval tried is 2**-60 times the incoming
#: radius; a gradient that cannot pass the norm test by then is treated as a
#: near-stationarity signal (the exact-zero-gradient case would never pass).
DEFAULT_I_MAX = 60


@dataclass(frozen=True)
class SearchConfig(StartConfig):
    """The fields that every interval-search config carries after ``x1`` and
    ``budget``: the search parameters delta1, theta, mu and i_max.
    ``DfcConfig``, ``DfbConfig`` and ``GdfConfig`` add their own fields after
    these."""

    delta1: float = 0.1
    theta: float = 0.5
    mu: float = 4.0
    i_max: int = DEFAULT_I_MAX

    def __post_init__(self):
        super().__post_init__()
        if self.delta1 <= 0:
            raise ValueError("delta1 must be positive")
        if not 0.0 < self.theta < 1.0:
            raise ValueError("theta must lie in (0, 1)")
        if self.mu <= 2.0:
            raise ValueError("mu must exceed 2")
        if self.i_max < 1:
            raise ValueError("i_max must be positive")


class GradScheme(enum.Enum):
    """Finite-difference stencil choice, with its exact per-call oracle cost."""

    FORWARD = "forward"
    CENTRAL = "central"

    def evals_per_call(self, dim: int) -> int:
        return dim + 1 if self is GradScheme.FORWARD else 2 * dim


def forward_diff(oracle: Oracle, x: Array, delta: float) -> Array:
    """Forward-difference gradient estimate; costs exactly dim + 1 evaluations.

    The base value phi(x) is evaluated once and shared across all coordinates,
    then the points x + delta e_i, in order of i.
    """
    if delta <= 0:
        raise ValueError(f"sampling interval must be positive, got {delta}")
    f0 = oracle.evaluate(x)
    values = oracle.evaluate_stencil(x, np.array([delta]))
    return (values[:, 0] - f0) / delta


def central_diff(oracle: Oracle, x: Array, delta: float) -> Array:
    """Central-difference gradient estimate; costs exactly 2 * dim evaluations,
    at x + delta e_i and x - delta e_i for i = 0, 1, ..."""
    if delta <= 0:
        raise ValueError(f"sampling interval must be positive, got {delta}")
    values = oracle.evaluate_stencil(x, np.array([delta, -delta]))
    return (values[:, 0] - values[:, 1]) / (2.0 * delta)


def approx_gradient(oracle: Oracle, scheme: GradScheme, x: Array, delta: float) -> Array:
    if scheme is GradScheme.FORWARD:
        return forward_diff(oracle, x, delta)
    return central_diff(oracle, x, delta)


def fd_error_bound(lipschitz_const: float, dim: int, delta: float) -> float:
    """Guaranteed noiseless error bound L * sqrt(dim) * delta / 2.

    Valid for both stencils whenever the gradient is Lipschitz with constant
    ``lipschitz_const`` on the probed ball.
    """
    if lipschitz_const <= 0:
        raise ValueError("lipschitz_const must be positive")
    if delta <= 0:
        raise ValueError("delta must be positive")
    return lipschitz_const * np.sqrt(dim) * delta / 2.0


class AdaptiveGradResult(NamedTuple):
    """Outcome of one adaptive interval search.

    Unless ``exhausted``, the accepted estimate satisfies
    ``g_norm > mu * c_k * delta_next`` and ``delta_next = theta**inner_steps * delta_k``.
    ``g_norm`` is ``norm(g)``, the value the test compared, and ``cost`` is the
    evaluations the search spent: ``inner_steps + 1`` stencil calls, or none
    when an exhausted search stopped before its first stencil.
    """

    g: Array
    delta_next: float
    inner_steps: int
    exhausted: bool
    g_norm: float
    cost: int


def adaptive_gradient(
    oracle: Oracle,
    scheme: GradScheme,
    x: Array,
    delta_k: float,
    c_k: float,
    mu: float,
    theta: float,
    nu_k: Optional[float] = None,
    i_max: int = DEFAULT_I_MAX,
    budget: Optional[int] = None,
) -> AdaptiveGradResult:
    """Find the largest interval theta**i * delta_k whose estimate passes the norm test.

    Tries i = 0, 1, ..., i_max. At each i the estimate is computed at interval
    ``min(theta**i * delta_k, nu_k)`` (just ``theta**i * delta_k`` when ``nu_k``
    is None), while the acceptance threshold ``mu * c_k * theta**i * delta_k``
    always uses the unclamped radius. An estimate with a non-finite norm (an
    infinite or NaN value in its stencil) never passes, so the interval shrinks.
    Returns the first accepted estimate, or ``exhausted=True`` with the last one
    if no i qualifies. The search also stops, exhausted, before a stencil whose
    interval no longer moves any coordinate of x (``x + interval == x``), where
    every difference would be zero or pure noise. If that happens at i = 0, no
    stencil ran: the cost is 0 and ``g`` and ``g_norm`` are NaN.

    Raises :class:`BudgetExhausted` if ``budget`` would be crossed before
    starting a stencil call, with the cost of the stencils already run; its
    ``partial`` is NaN, as stencil values are neither iterate nor candidate
    values.
    """
    if delta_k <= 0:
        raise ValueError("delta_k must be positive")
    if c_k <= 0:
        raise ValueError("c_k must be positive")
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie in (0, 1)")
    if mu <= 2.0:
        raise ValueError("mu must exceed 2")
    if nu_k is not None and nu_k <= 0:
        raise ValueError("nu_k must be positive when given")

    x = np.asarray(x, dtype=float)
    per_call = scheme.evals_per_call(x.shape[0])
    g = np.full(x.shape[0], np.nan)  # no estimate until a stencil runs
    norm = float("nan")
    radius = delta_k
    ran = 0  # stencils evaluated; equals i at the top of each pass
    for i in range(i_max + 1):
        radius = theta**i * delta_k
        interval = radius if nu_k is None else min(radius, nu_k)
        if interval <= 0.0 or np.all(x + interval == x):
            break  # below the float spacing of x (or underflowed): nothing to evaluate
        if budget is not None and oracle.eval_count >= budget:
            raise BudgetExhausted("budget exhausted during interval search",
                                  declared_cost=ran * per_call)
        g = approx_gradient(oracle, scheme, x, interval)
        ran += 1
        norm = float(np.linalg.norm(g))
        if np.isfinite(norm) and norm > mu * c_k * radius:
            return AdaptiveGradResult(g, radius, i, False, norm, ran * per_call)
    return AdaptiveGradResult(g, radius, max(ran - 1, 0), True, norm, ran * per_call)
