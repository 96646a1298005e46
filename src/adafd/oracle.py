"""Black-box objective oracle with evaluation counting and bounded uniform noise.

Solvers only ever see an :class:`Oracle`; analytic gradients attached to an
:class:`Objective` are for validation and diagnostics and are never consulted
by any optimization loop.

Every other module imports this one, so the argument rules and their
:class:`ValidationError` live here too; ``driver`` re-exports them.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

import numpy as np

Array = np.ndarray


class ValidationError(ValueError):
    """A request or parameter that breaks a rule: a bad id, dim, count or range."""


def check_between(name: str, value, low: float, high: float = math.inf) -> None:
    """Reject a ``value`` outside the open interval ``(low, high)``; NaN and
    +-inf always lie outside it."""
    if not low < value < high:
        raise ValidationError(f"{name} must be in ({low:g}, {high:g}), got {value!r}")


def check_count(name: str, value, low: float) -> None:
    """Reject a ``value`` that is not an integer (a bool is not one), then one
    that :func:`check_between` rejects for ``(low, inf)``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    check_between(name, value, low)


def check_noise_level(value) -> None:
    """Reject a ``value`` that is not a finite, nonnegative real number (a bool is not one)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0 <= value < math.inf:
        raise ValidationError(f"noise level must be finite and nonnegative, got {value!r}")


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
    pair ``(f_x, values)``. ``f_x`` is f(x), bitwise ``evaluator(x)``, NaN
    included (the standard ``rows_evaluator`` keeps), and ``values`` is a
    ``(dim, len(steps))`` array whose entry ``[i, j]`` is f at x with
    coordinate i set to the float ``x[i] + steps[j]`` (the other coordinates
    unchanged). ``values`` must equal ``evaluator`` at those points up to
    rounding, and the kernel must not write to ``x``; ``x`` and ``steps`` are
    1-D float arrays. This lets a kernel reuse the base point's work, which
    it needs for f(x) anyway, and a forward stencil take f(x) from the same
    call: of the benchmark families, Rosenbrock's adds to f(x) the changes of
    the two chained terms that hold the moved coordinate, O(1) per point;
    least squares moves coordinate i by its real displacement
    s = (x_i + step) - x_i in closed form, f0 + s (2 a_i^T r0 + s ||a_i||^2)
    with r0 = A x - b, also O(1) per point; and image restoration adds the
    moved coordinate's column, times s, to the base residual. All three
    compute f(x) by the scalar evaluator's own operations, their values equal
    ``evaluator`` up to rounding, and they return :func:`pointwise_stencil`
    (the loop a stencil runs without a kernel), beside the f(x) they
    computed, where the base work, f(x) or image restoration's A x - b, is
    not finite. Each stencil reaches the kernel in one call, so it bounds its
    own temporaries: the built-in kernels do the base point's work once per
    call, and the image-restoration one blocks its scratch by
    ``problems.STENCIL_BLOCK_BYTES``.

    ``rows_evaluator``, when given, evaluates the rows of a ``(k, dim)`` float
    array ``X`` in one call: ``rows_evaluator(X)`` returns a ``(k,)`` array
    whose entry j is bitwise ``evaluator(X[j])``, NaN included, not merely
    equal up to rounding, and it must not write to ``X``. Linesearch trials
    reach it a block at a time through :meth:`Oracle.evaluate_rows`, which
    serves objectives without one too and charges only the rows taken, so
    under that contract a run with it is bitwise the run without it. Of the
    benchmark families only Rosenbrock has one, its terms reduced along each
    row as the scalar evaluator reduces them; least squares has none, since
    both ``X @ A.T`` and its closed form round differently from ``A @ x``.
    """

    dim: int
    evaluator: Callable[[Array], float]
    analytic_gradient: Optional[Callable[[Array], Array]] = None
    lipschitz_grad_fn: Optional[Callable[[], float]] = None
    stencil_evaluator: Optional[Callable[[Array, Array], tuple]] = None
    rows_evaluator: Optional[Callable[[Array], Array]] = None

    def __post_init__(self):
        check_count("objective dimension", self.dim, 0)

    @property
    def lipschitz_grad_constant(self) -> Optional[float]:
        """``lipschitz_grad_fn()``, or None when the objective has no constant."""
        if self.lipschitz_grad_fn is None:
            return None
        L = self.lipschitz_grad_fn()
        if not L >= 0:  # NaN too, as a matrix with a non-finite entry gives
            raise ValueError(f"lipschitz_grad_constant must be nonnegative, got {L}")
        return L


def pointwise_stencil(evaluator: Callable[[Array], float], x: Array, steps: Array) -> Array:
    """``Objective.stencil_evaluator``'s entries by one ``evaluator`` call per point."""
    values = np.empty((x.shape[0], steps.shape[0]))
    for i, j in np.ndindex(values.shape):
        y = x.copy()
        y[i] += steps[j]
        values[i, j] = evaluator(y)
    return values


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
    a chunk is drawn, so it must not change after construction. Each route
    charges a value (counts it, then adds its noise draw) only once the
    evaluator has returned it in the expected shape: ``evaluate`` and
    ``evaluate_rows`` one point at a time, ``evaluate_stencil`` all at once,
    its base value first, to the same counter and noise values.

    An Oracle is single-owner mutable state: concurrent runs must construct
    independent oracles (same Objective, distinct seeds).
    """

    objective: Objective
    noise_level: float = 0.0
    rng_seed: int = 0
    eval_count: int = field(default=0, init=False)

    def __post_init__(self):
        check_noise_level(self.noise_level)
        self.reset_counter()

    def _take(self, k: int) -> int:
        """Take the next k values of the noise stream, drawn ahead in chunks;
        they are ``_noise_chunk[at:at + k]`` for the returned ``at``."""
        at = self._noise_at
        if at + k > self._noise_chunk.shape[0]:
            fresh = self._rng.uniform(-self.noise_level, self.noise_level,
                                      size=max(NOISE_CHUNK, k))
            self._noise_chunk = np.concatenate((self._noise_chunk[at:], fresh))
            at = 0
        self._noise_at = at + k
        return at

    def _charge(self, value) -> float:
        """Count one evaluation and return ``value`` plus the next noise draw."""
        value = float(value)
        self.eval_count += 1
        if self.noise_level > 0.0:
            at = self._take(1)  # which may draw a new chunk
            value += self._noise_chunk.item(at)
        return value

    def evaluate(self, x: Array) -> float:
        """Return phi(x) and advance the evaluation counter by exactly one."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.objective.dim,):
            raise ValueError(
                f"point has shape {x.shape}, objective expects ({self.objective.dim},)"
            )
        return self._charge(self.objective.evaluator(x))

    def evaluate_rows(self, X: Array) -> Iterator[float]:
        """Yield phi at each row of the ``(k, dim)`` array X, in row order, from
        one ``rows_evaluator`` call made when the first value is taken or, with
        no such hook, one ``evaluator`` call per row taken.

        A value is counted and given its noise draw only when it is taken, so
        after j values the counter and noise stream stand, and the values are
        bitwise, as after one ``evaluate`` call per row on the first j rows;
        rows not taken cost nothing.
        """
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.objective.dim:
            raise ValueError(f"rows have shape {X.shape}, objective expects "
                             f"(k, {self.objective.dim})")
        hook = self.objective.rows_evaluator
        if hook is None:
            values = map(self.objective.evaluator, X)  # lazy: only the rows taken
        else:
            values = np.asarray(hook(X), dtype=float)
            if values.shape != X.shape[:1]:
                raise ValueError(f"rows evaluator returned shape {values.shape}, "
                                 f"expected {X.shape[:1]}")
        for value in values:
            yield self._charge(value)

    def evaluate_stencil(self, x: Array, steps: Array, base: bool = False):
        """Return phi at the points x + steps[j] e_i, i = 0, ..., dim - 1, as a
        ``(dim, len(steps))`` array, and advance the counter by its size; with
        ``base``, return ``(phi(x), values)`` and advance it by one more.

        Point ``[i, j]`` is x with coordinate i set to the float
        ``x[i] + steps[j]``. The objective's ``stencil_evaluator`` gives f(x)
        and the values in one call; without one, ``evaluator`` is called at x
        (only with ``base``) and then at each point. Nothing is charged until
        every value is there in the expected shape. Counter and noise stream
        then end exactly as after ``evaluate(x)`` (only with ``base``) and one
        ``evaluate`` call per point in row order, ``[0, 0], [0, 1], ...``;
        phi(x) is bitwise that ``evaluate(x)``, and the values are equal up to
        the stencil evaluator's rounding, bitwise when the objective has no
        ``stencil_evaluator``.
        """
        x = np.asarray(x, dtype=float)
        steps = np.asarray(steps, dtype=float)
        n = self.objective.dim
        if x.shape != (n,):
            raise ValueError(f"point has shape {x.shape}, objective expects ({n},)")
        if steps.ndim != 1:
            raise ValueError(f"steps must be 1-D, got shape {steps.shape}")
        shape = (n, steps.shape[0])
        hook = self.objective.stencil_evaluator
        if hook is None:
            f_x = self.objective.evaluator(x) if base else None
            values = pointwise_stencil(self.objective.evaluator, x, steps)
        else:
            f_x, values = hook(x, steps)
            values = np.asarray(values, dtype=float)
        if values.shape != shape:
            raise ValueError(f"stencil evaluator returned shape {values.shape}, expected {shape}")
        if base:
            f_x = float(f_x)
        charged = base + values.size
        self.eval_count += charged
        if self.noise_level > 0.0:
            at = self._take(charged)
            if base:
                f_x += self._noise_chunk.item(at)
            values = values + self._noise_chunk[at + base:at + charged].reshape(shape)
        return (f_x, values) if base else values

    def reset_counter(self) -> None:
        """Zero the evaluation counter and rewind the noise stream to its seed,
        dropping the values read ahead."""
        self.eval_count = 0
        self._rng = np.random.default_rng(self.rng_seed)
        self._noise_chunk = np.empty(0)
        self._noise_at = 0
