"""Black-box objective oracle with evaluation counting and bounded uniform noise.

Solvers only ever see an :class:`Oracle`; analytic gradients attached to an
:class:`Objective` are for validation and diagnostics and are never consulted
by any optimization loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

Array = np.ndarray


class BudgetExhausted(RuntimeError):
    """Raised when a solver would start an oracle call past its evaluation budget.

    ``partial`` is the lowest value the interrupted step evaluated at an
    iterate or candidate point, NaN when it evaluated none; ``declared_cost``
    is the step's completed oracle cost, so the caller's declared-cost
    bookkeeping stays exact.
    """

    def __init__(self, message: str = "evaluation budget exhausted",
                 partial: float = math.nan, declared_cost: int = 0):
        super().__init__(message)
        self.partial = partial
        self.declared_cost = declared_cost


@dataclass(frozen=True)
class Objective:
    """A deterministic scalar function on R^dim, optionally with validation extras.

    ``analytic_gradient`` and ``lipschitz_grad_constant`` are metadata for tests
    and diagnostics only; the solver-facing surface is ``Oracle.evaluate`` and
    ``Oracle.evaluate_stencil``.

    ``lipschitz_grad_fn``, when given, is a zero-argument callable returning the
    gradient-Lipschitz constant. It is called on each read of
    ``lipschitz_grad_constant`` and never otherwise, so a costly one should
    cache its value (the benchmark families do; least squares' 2 sigma_max(A)^2
    is exact to rounding, from one LAPACK eigenvalue call); copies made with
    ``dataclasses.replace`` share the callable and so its cache.

    ``stencil_evaluator``, when given, evaluates a whole finite-difference
    stencil around one base point: ``stencil_evaluator(x, steps)`` returns a
    ``(dim, len(steps))`` array whose entry ``[i, j]`` is f at x with
    coordinate i set to the float ``x[i] + steps[j]`` (the other coordinates
    unchanged). It must equal ``evaluator`` at those points up to rounding,
    and it must not write to ``x``; ``x`` and ``steps`` are 1-D float arrays.
    This lets a kernel reuse the base point's work: of the benchmark families,
    Rosenbrock's adds to f(x) the changes of the two chained terms that hold
    the moved coordinate, O(1) per point; least squares moves coordinate i by
    its real displacement s = (x_i + step) - x_i in closed form,
    f0 + s (2 a_i^T r0 + s ||a_i||^2) with r0 = A x - b, also O(1) per point;
    and image restoration adds the moved coordinate's column, times s, to the
    base residual. All three are equal to ``evaluator`` up to rounding. Each
    finite-difference stencil reaches it in one call, so it bounds its own
    temporaries: the built-in kernels do the base point's work once per call,
    and the image-restoration one walks the coordinates in blocks of at most
    ``problems.STENCIL_BLOCK_BYTES`` of scratch. Without it, a stencil loops
    over ``evaluator``.
    """

    dim: int
    evaluator: Callable[[Array], float]
    analytic_gradient: Optional[Callable[[Array], Array]] = None
    lipschitz_grad_fn: Optional[Callable[[], float]] = None
    stencil_evaluator: Optional[Callable[[Array, Array], Array]] = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"objective dimension must be positive, got {self.dim}")

    @property
    def lipschitz_grad_constant(self) -> Optional[float]:
        """``lipschitz_grad_fn()``, or None when the objective has no constant."""
        if self.lipschitz_grad_fn is None:
            return None
        L = self.lipschitz_grad_fn()
        if not L >= 0:  # NaN too, as a matrix with a non-finite entry gives
            raise ValueError(f"lipschitz_grad_constant must be nonnegative, got {L}")
        return L


#: Noise values the oracle draws from its generator at a time. Values are
#: taken from the chunk in call order, so each point gets the draw it would
#: get from one generator call per point.
NOISE_CHUNK = 256


@dataclass
class Oracle:
    """Counting access point to a noisy objective phi(x) = f(x) + xi(x).

    With ``noise_level`` epsilon > 0, each evaluated point adds an independent
    draw from U(-epsilon, epsilon); draws are reproducible from ``rng_seed``
    and the call sequence (generator: numpy PCG64 via ``default_rng``). Noise
    is drawn per point, so re-evaluating the same point re-draws. The oracle
    reads ahead ``NOISE_CHUNK`` values at a time (more for a larger stencil)
    and takes them in call order, so the values are bitwise those of one
    generator call per point. With epsilon = 0 the exact value f(x) is
    returned and the generator is never advanced. ``noise_level`` is read when
    a chunk is drawn, so it must not change after construction.

    An Oracle is single-owner mutable state: concurrent runs must construct
    independent oracles (same Objective, distinct seeds).
    """

    objective: Objective
    noise_level: float = 0.0
    rng_seed: int = 0
    eval_count: int = field(default=0, init=False)

    def __post_init__(self):
        if not 0.0 <= self.noise_level < np.inf:
            raise ValueError("noise_level must be finite and nonnegative")
        self.reset_counter()

    def _noise(self, k: int) -> Array:
        """The next k values of the noise stream, drawn ahead in chunks."""
        at = self._noise_at
        if at + k > self._noise_chunk.shape[0]:
            fresh = self._rng.uniform(-self.noise_level, self.noise_level,
                                      size=max(NOISE_CHUNK, k))
            self._noise_chunk = np.concatenate((self._noise_chunk[at:], fresh))
            at = 0
        self._noise_at = at + k
        return self._noise_chunk[at:at + k]

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
            value += float(self._noise(1)[0])
        return value

    def evaluate_stencil(self, x: Array, steps: Array) -> Array:
        """Return phi at the points x + steps[j] e_i, i = 0, ..., dim - 1, as a
        ``(dim, len(steps))`` array, and advance the counter by its size.

        Point ``[i, j]`` is x with coordinate i set to the float
        ``x[i] + steps[j]``. Counter and noise stream end exactly as after
        one ``evaluate`` call per point in row order, ``[0, 0], [0, 1], ...``;
        the values are equal up to the stencil evaluator's rounding, and
        bitwise equal when the objective has no ``stencil_evaluator``.
        """
        x = np.asarray(x, dtype=float)
        steps = np.asarray(steps, dtype=float)
        n = self.objective.dim
        if x.shape != (n,):
            raise ValueError(f"point has shape {x.shape}, objective expects ({n},)")
        if steps.ndim != 1:
            raise ValueError(f"steps must be 1-D, got shape {steps.shape}")
        shape = (n, steps.shape[0])
        self.eval_count += shape[0] * shape[1]
        hook = self.objective.stencil_evaluator
        if hook is None:
            values = np.empty(shape)
            for i, j in np.ndindex(shape):
                y = x.copy()
                y[i] += steps[j]
                values[i, j] = self.objective.evaluator(y)
        else:
            values = np.asarray(hook(x, steps), dtype=float)
            if values.shape != shape:
                raise ValueError(
                    f"stencil evaluator returned shape {values.shape}, expected {shape}"
                )
        if self.noise_level > 0.0:
            values = values + self._noise(values.size).reshape(shape)
        return values

    def reset_counter(self) -> None:
        """Zero the evaluation counter and rewind the noise stream to its seed,
        dropping the values read ahead."""
        self.eval_count = 0
        self._rng = np.random.default_rng(self.rng_seed)
        self._noise_chunk = np.empty(0)
        self._noise_at = 0
