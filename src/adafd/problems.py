"""Benchmark objective families with seeded generation and validation gradients.

Three families: quadratic least-squares residuals, a log-damped nonconvex
variant of them, and the chained Rosenbrock function. The first two carry
exact gradient-Lipschitz constants (spectral norm, respectively max absolute
row sum of 2 A^T A), computed on first read and cached, since only the rg
baseline reads them; Rosenbrock's gradient is only locally Lipschitz so no
constant is stored.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .oracle import Array, Objective

LEAST_SQUARES = "least_squares"
IMAGE_RESTORATION = "image_restoration"
ROSENBROCK = "rosenbrock"
FAMILIES = (LEAST_SQUARES, IMAGE_RESTORATION, ROSENBROCK)


class PowerIterationError(RuntimeError):
    """Power iteration failed to settle; ``last_estimate`` holds the final value."""

    def __init__(self, message: str, last_estimate: float):
        super().__init__(message)
        self.last_estimate = last_estimate


def spectral_norm(M: Array, tol: float = 1e-8, max_iter: int = 10_000) -> float:
    """Largest singular value of M by power iteration on M^T M."""
    M = np.asarray(M, dtype=float)
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix entries must be finite")
    S = M.T @ M
    n = S.shape[0]
    v = np.random.default_rng(0).standard_normal(n)
    v /= np.linalg.norm(v)
    lam = 0.0
    w = S @ v
    for _ in range(max_iter):
        norm_w = float(np.linalg.norm(w))
        if norm_w == 0.0:
            return 0.0
        v = w / norm_w
        w = S @ v  # the Rayleigh quotient's product is the next iteration's
        lam_new = float(v @ w)
        if abs(lam_new - lam) <= tol * max(abs(lam_new), 1e-300):
            return float(np.sqrt(max(lam_new, 0.0)))
        lam = lam_new
    raise PowerIterationError(
        f"power iteration did not converge within {max_iter} iterations",
        last_estimate=float(np.sqrt(max(lam, 0.0))),
    )


@dataclass(frozen=True)
class ProblemInstance:
    """Immutable benchmark instance; safe to share across concurrent runs."""

    family: str
    dim: int
    objective: Objective
    A: Optional[Array] = None
    b: Optional[Array] = None
    m: Optional[int] = None
    seed: Optional[int] = None  # set by random_instance; report.json records it


#: Bytes of scratch per block of a built-in stencil kernel. The kernels'
#: temporaries hold one value per term of each point: m residuals for the
#: matrix families, n - 1 chained terms for Rosenbrock. A kernel splits the
#: coordinates it is asked for into blocks of STENCIL_BLOCK_BYTES //
#: (8 * terms * len(steps)) coordinates (at least one) and reuses one buffer
#: of that size for every block, so its scratch stays under glibc's heap-trim
#: threshold and its pages are not returned to the OS and faulted in again.
#: At 512 KiB a block holds 164 forward or 82 central coordinates of a
#: Rosenbrock n = 400 stencil, 163 or 81 of a square least-squares one, and
#: 32 or 16 at m = 2000.
STENCIL_BLOCK_BYTES = 2**19


def _stencil_blocks(lo: int, hi: int, steps: Array, terms: int, block) -> Array:
    """The (hi - lo, len(steps)) stencil values, block by block.

    ``block(a, b, T, out)`` fills ``out``, the rows of coordinates a, ..., b - 1,
    using the scratch ``T`` of shape (b - a, len(steps), terms). Every block
    shares one buffer of at most ``STENCIL_BLOCK_BYTES`` (but at least one
    coordinate's worth)."""
    p = steps.shape[0]
    values = np.empty((hi - lo, p))
    coords = max(1, STENCIL_BLOCK_BYTES // max(1, 8 * terms * p))
    buf = np.empty(min(coords, hi - lo) * p * terms)
    for a in range(lo, hi, coords):
        b = min(a + coords, hi)
        block(a, b, buf[:(b - a) * p * terms].reshape(b - a, p, terms),
              values[a - lo:b - lo])
    return values


def _residual_stencil(A: Array, b: Array, x: Array, lo: int, hi: int,
                      steps: Array, reduce) -> Array:
    """A matrix family's stencil values: ``reduce(R, out)`` sums the block of
    residuals R into ``out``, destroying R. The residual A y - b at a stencil
    point y of ``Objective.stencil_evaluator`` is the base residual A x - b,
    computed once per call, plus the moved coordinate's column of A times the
    displacement that coordinate really has, (x_i + step) - x_i. That is O(m)
    per point instead of a matrix-vector product's O(m n), equal up to
    rounding."""
    r0 = A @ x
    r0 -= b
    base = x[lo:hi, None]
    moved = (base + steps) - base
    AT = A.T

    def block(i: int, j: int, R: Array, out: Array) -> None:
        np.multiply(AT[i:j, None, :], moved[i - lo:j - lo, :, None], out=R)
        R += r0
        reduce(R, out)

    return _stencil_blocks(lo, hi, steps, A.shape[0], block)


def make_least_squares(A: Array, b: Array) -> ProblemInstance:
    """f(x) = ||A x - b||^2 with gradient 2 A^T (A x - b)."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2 or b.ndim != 1 or A.shape[0] != b.shape[0]:
        raise ValueError(f"incompatible shapes A{A.shape}, b{b.shape}")
    m, n = A.shape

    def f(x: Array) -> float:
        r = A @ x
        r -= b
        return float(r @ r)

    def reduce(R: Array, out: Array) -> None:
        np.add.reduce(np.square(R, out=R), axis=2, out=out)

    def f_stencil(x: Array, lo: int, hi: int, steps: Array) -> Array:
        return _residual_stencil(A, b, x, lo, hi, steps, reduce)

    def grad(x: Array) -> Array:
        return 2.0 * (A.T @ (A @ x - b))

    @functools.cache
    def lipschitz() -> float:
        return 2.0 * spectral_norm(A.T @ A)

    objective = Objective(dim=n, evaluator=f, analytic_gradient=grad,
                          lipschitz_grad_fn=lipschitz, stencil_evaluator=f_stencil)
    return ProblemInstance(family=LEAST_SQUARES, dim=n, objective=objective,
                           A=A, b=b, m=m)


def make_image_restoration(A: Array, b: Array) -> ProblemInstance:
    """f(x) = sum_i log(1 + (A x - b)_i^2), the log-damped nonconvex residual."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"square matrix required, got {A.shape}")
    if b.shape != (A.shape[0],):
        raise ValueError(f"incompatible shapes A{A.shape}, b{b.shape}")
    n = A.shape[0]

    def f(x: Array) -> float:
        # log1p(r * r) summed, in r's own buffer
        r = A @ x
        r -= b
        np.multiply(r, r, out=r)
        return float(np.add.reduce(np.log1p(r, out=r)))

    def reduce(R: Array, out: Array) -> None:
        np.multiply(R, R, out=R)
        np.add.reduce(np.log1p(R, out=R), axis=2, out=out)

    def f_stencil(x: Array, lo: int, hi: int, steps: Array) -> Array:
        return _residual_stencil(A, b, x, lo, hi, steps, reduce)

    def grad(x: Array) -> Array:
        r = A @ x - b
        return A.T @ (2.0 * r / (1.0 + r * r))

    @functools.cache
    def lipschitz() -> float:
        return 2.0 * float(np.max(np.sum(np.abs(A.T @ A), axis=1)))

    objective = Objective(dim=n, evaluator=f, analytic_gradient=grad,
                          lipschitz_grad_fn=lipschitz, stencil_evaluator=f_stencil)
    return ProblemInstance(family=IMAGE_RESTORATION, dim=n, objective=objective,
                           A=A, b=b, m=n)


def _rosenbrock_terms(head: Array, tail: Array) -> Array:
    """The chained Rosenbrock terms 100 (tail - head^2)^2 + (head - 1)^2, in two
    buffers, computed term by term as that expression would compute them."""
    a = np.square(head, dtype=float)
    np.subtract(tail, a, out=a)
    np.square(a, out=a)
    np.multiply(100.0, a, out=a)
    b = np.subtract(head, 1.0)
    np.square(b, out=b)
    return np.add(a, b, out=a)


def make_rosenbrock(n: int) -> ProblemInstance:
    """Chained Rosenbrock; global minimum 0 at the all-ones point."""
    if n < 2:
        raise ValueError("rosenbrock needs dimension >= 2")

    def f(x: Array) -> float:
        return float(np.add.reduce(_rosenbrock_terms(x[:-1], x[1:])))

    def f_stencil(x: Array, lo: int, hi: int, steps: Array) -> Array:
        # Each point's n - 1 terms are the base point's, except the two that
        # hold the moved coordinate i: term i - 1 as its tail, term i as its
        # head. Each row is then summed as f sums its terms.
        p = steps.shape[0]
        terms = _rosenbrock_terms(x[:-1], x[1:])
        moved = x[lo:hi, None] + steps
        first, last = min(max(lo, 1), hi), min(hi, n - 1)
        left = _rosenbrock_terms(np.repeat(x[first - 1:hi - 1, None], p, axis=1),
                                 moved[first - lo:])
        right = _rosenbrock_terms(moved[:last - lo], x[lo + 1:last + 1, None])
        # In a block starting at coordinate a, term i - 1 (left) or i (right)
        # of coordinate i's point j lies (i - a) * row + j * (n - 1) + a - 1
        # (left) or + a (right) values into the block: a strided view of it.
        row = p * (n - 1) + 1

        def block(a: int, b: int, T: Array, out: Array) -> None:
            T[:] = terms
            size = T.itemsize
            strides = (size * row, size * (n - 1))
            i = max(a, 1)
            np.ndarray((b - i, p), buffer=T, offset=size * ((i - a) * row + a - 1),
                       strides=strides)[:] = left[i - first:b - first]
            i = min(b, n - 1)
            np.ndarray((i - a, p), buffer=T, offset=size * a,
                       strides=strides)[:] = right[a - lo:i - lo]
            np.add.reduce(T, axis=2, out=out)

        return _stencil_blocks(lo, hi, steps, n - 1, block)

    def grad(x: Array) -> Array:
        g = np.zeros_like(x)
        g[:-1] += -400.0 * x[:-1] * (x[1:] - x[:-1] ** 2) + 2.0 * (x[:-1] - 1.0)
        g[1:] += 200.0 * (x[1:] - x[:-1] ** 2)
        return g

    objective = Objective(dim=n, evaluator=f, analytic_gradient=grad,
                          stencil_evaluator=f_stencil)
    return ProblemInstance(family=ROSENBROCK, dim=n, objective=objective)


def random_instance(family: str, n: int, m: Optional[int] = None,
                    seed: int = 0) -> ProblemInstance:
    """Generate A and b with i.i.d. standard Gaussian entries from one seed.

    Least squares uses an m-by-n matrix (m defaults to n); the log-damped
    family is square by construction.
    """
    if family == IMAGE_RESTORATION and m is not None and m != n:
        raise ValueError("this family is square; m must equal n or be omitted")
    makers = {LEAST_SQUARES: make_least_squares, IMAGE_RESTORATION: make_image_restoration}
    if family not in makers:
        raise ValueError(f"family {family!r} is not randomly generated from (A, b)")
    m = n if m is None else m
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n))
    return replace(makers[family](A, rng.standard_normal(m)), seed=seed)


def build_instance(family: str, n: int, m: Optional[int] = None,
                   seed: int = 0) -> ProblemInstance:
    """Uniform entry point: random (A, b) families or deterministic Rosenbrock."""
    if family == ROSENBROCK:
        if m is not None:
            raise ValueError("rosenbrock has no m; omit it")
        return make_rosenbrock(n)
    return random_instance(family, n, m=m, seed=seed)


def load_instance_spec(path) -> ProblemInstance:
    """Rebuild the instance of an experiment from its results directory or its
    ``report.json``, whose ``manifest.problem`` holds the recipe (family, n, m,
    instance_seed); matrices are regenerated from the seed, never stored."""
    path = Path(path)
    if path.is_dir():
        path = path / "report.json"
    try:
        with open(path) as fh:
            problem = json.load(fh)["manifest"]["problem"]
        family, seed = problem["family"], problem["instance_seed"]
        if family != ROSENBROCK and seed is None:
            raise ValueError("no instance_seed to regenerate A and b from")
        return build_instance(family, problem["n"], m=problem["m"], seed=seed)
    except KeyError as exc:
        raise ValueError(f"{path}: no key {exc} in the report") from exc
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from exc
