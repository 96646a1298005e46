"""Black-box objective oracle with evaluation counting and bounded uniform noise.

Solvers only ever see an :class:`Oracle`; analytic gradients attached to an
:class:`Objective` are for validation and diagnostics and are never consulted
by any optimization loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

Array = np.ndarray


class BudgetExhausted(RuntimeError):
    """Raised when a solver would start an oracle call past its evaluation budget.

    Carries whatever partial state the interrupted operation had produced, plus
    the operation's completed oracle cost so the caller's declared-cost
    bookkeeping stays exact.
    """

    def __init__(self, message: str = "evaluation budget exhausted", partial=None,
                 declared_cost: int = 0):
        super().__init__(message)
        self.partial = partial
        self.declared_cost = declared_cost


@dataclass(frozen=True)
class Objective:
    """A deterministic scalar function on R^dim, optionally with validation extras.

    ``analytic_gradient`` and ``lipschitz_grad_constant`` are metadata for tests
    and diagnostics only; the solver-facing surface is ``Oracle.evaluate`` and
    ``Oracle.evaluate_batch``.

    ``lipschitz_grad_fn``, when given, is a zero-argument callable returning the
    gradient-Lipschitz constant. It is called on each read of
    ``lipschitz_grad_constant`` and never otherwise, so a costly one should
    cache its value (the benchmark families do); copies made with
    ``dataclasses.replace`` share the callable and so its cache.

    ``batch_evaluator``, when given, maps a k-by-dim array whose rows are points
    to the 1-D array of their k values; it must equal ``evaluator`` row by row
    up to rounding. It receives any 2-D float array, in any memory layout
    (``Oracle.evaluate_batch`` converts the dtype, not the layout). Of the
    benchmark families' evaluators, the two matrix families work in the buffer
    of their one matrix product, and Rosenbrock's copies a non-contiguous
    array to a contiguous one, computes its terms over that flat buffer,
    including the pairs that straddle two rows, and drops those. Without it,
    batches loop over ``evaluator``.
    """

    dim: int
    evaluator: Callable[[Array], float]
    analytic_gradient: Optional[Callable[[Array], Array]] = None
    lipschitz_grad_fn: Optional[Callable[[], float]] = None
    batch_evaluator: Optional[Callable[[Array], Array]] = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"objective dimension must be positive, got {self.dim}")

    @property
    def lipschitz_grad_constant(self) -> Optional[float]:
        """``lipschitz_grad_fn()``, or None when the objective has no constant."""
        if self.lipschitz_grad_fn is None:
            return None
        L = self.lipschitz_grad_fn()
        if L < 0:
            raise ValueError("lipschitz_grad_constant must be nonnegative")
        return L


@dataclass
class Oracle:
    """Counting access point to a noisy objective phi(x) = f(x) + xi(x).

    With ``noise_level`` epsilon > 0, each call adds an independent draw from
    U(-epsilon, epsilon); draws are reproducible from ``rng_seed`` and the call
    sequence (generator: numpy PCG64 via ``default_rng``). Noise is drawn per
    call, so re-evaluating the same point re-draws. With epsilon = 0 the exact
    value f(x) is returned and the generator is never advanced.

    An Oracle is single-owner mutable state: concurrent runs must construct
    independent oracles (same Objective, distinct seeds).
    """

    objective: Objective
    noise_level: float = 0.0
    rng_seed: int = 0
    eval_count: int = field(default=0, init=False)

    def __post_init__(self):
        if self.noise_level < 0:
            raise ValueError("noise_level must be nonnegative")
        self._rng = np.random.default_rng(self.rng_seed)

    def evaluate(self, x: Array) -> float:
        """Return phi(x) and advance the evaluation counter by exactly one."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.objective.dim,):
            raise ValueError(
                f"point has shape {x.shape}, objective expects ({self.objective.dim},)"
            )
        self.eval_count += 1
        value = float(self.objective.evaluator(x))
        if self.noise_level > 0.0:
            value += float(self._rng.uniform(-self.noise_level, self.noise_level))
        return value

    def evaluate_batch(self, X: Array) -> Array:
        """Return phi at each row of X and advance the counter by the row count.

        Counter and noise stream end exactly as after one ``evaluate`` call per
        row in row order (k scalar draws and one draw of size k read the same
        PCG64 stream); the values are equal up to the batch evaluator's rounding,
        and bitwise equal when the objective has no ``batch_evaluator``.
        """
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.objective.dim:
            raise ValueError(
                f"points have shape {X.shape}, objective expects (k, {self.objective.dim})"
            )
        k = X.shape[0]
        self.eval_count += k
        batch = self.objective.batch_evaluator
        if batch is None:
            values = np.array([float(self.objective.evaluator(x)) for x in X])
        else:
            values = np.asarray(batch(X), dtype=float)
            if values.shape != (k,):
                raise ValueError(
                    f"batch evaluator returned shape {values.shape} for {k} points"
                )
        if self.noise_level > 0.0:
            values = values + self._rng.uniform(-self.noise_level, self.noise_level, size=k)
        return values

    def reset_counter(self) -> None:
        """Zero the evaluation counter and rewind the noise stream to its seed."""
        self.eval_count = 0
        self._rng = np.random.default_rng(self.rng_seed)
