"""Benchmark objective families with seeded generation and validation gradients.

Three families: quadratic least-squares residuals, a log-damped nonconvex
variant of them, and the chained Rosenbrock function. The first two carry
gradient-Lipschitz constants, computed on first read and cached, since only
the rg baseline reads them: least squares' 2 sigma_max(A)^2, exact to rounding
(the largest eigenvalue of A^T A from one LAPACK call), and for the log-damped
family the max absolute row sum of 2 A^T A, an upper bound. Rosenbrock's
gradient is only locally Lipschitz so no constant is stored.

Each family also has a stencil kernel (``Objective.stencil_evaluator``) that
reuses the base point's work. Least squares and Rosenbrock are in closed form,
O(1) per point: f(x) plus the change the moved coordinate makes. Image
restoration adds one column of A to the base residual, O(n) per point, in
blocks of ``STENCIL_BLOCK_BYTES`` of scratch. All three equal the scalar
evaluator up to rounding.
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


#: Bytes of scratch per block of the image-restoration stencil kernel (the
#: Rosenbrock and least-squares ones are in closed form and need no blocks).
#: Its temporaries hold n residuals per point, so it splits the coordinates
#: into blocks of STENCIL_BLOCK_BYTES // (8 * n * len(steps)) coordinates (at
#: least one) and reuses one buffer of that size for every block; its scratch
#: stays under glibc's heap-trim threshold, so its pages are not returned to
#: the OS and faulted in again. At 512 KiB a block holds 163 forward or 81
#: central coordinates of an n = 400 stencil.
STENCIL_BLOCK_BYTES = 2**19


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

    @functools.cache
    def column_norms() -> Array:
        return np.einsum("ij,ij->j", A, A)

    def f_stencil(x: Array, steps: Array) -> Array:
        # Moving coordinate i by s = (x_i + step) - x_i, the displacement it
        # really has, gives ||r0 + s a_i||^2 = f0 + s (2 a_i^T r0 + s ||a_i||^2)
        # with r0 = A x - b and f0 = r0^T r0: O(1) per point once the call has
        # r0 and the slopes 2 a_i^T r0.
        r0 = A @ x
        r0 -= b
        s = (x[:, None] + steps) - x[:, None]
        values = s * column_norms()[:, None]
        values += 2.0 * (r0 @ A)[:, None]
        values *= s
        values += r0 @ r0
        return values

    def grad(x: Array) -> Array:
        return 2.0 * (A.T @ (A @ x - b))

    @functools.cache
    def lipschitz() -> float:
        return 2.0 * float(np.linalg.eigvalsh(A.T @ A)[-1])

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

    def f_stencil(x: Array, steps: Array) -> Array:
        # log1p has no closed form in the displacement, so each point's
        # residual is built: the base residual r0 = A x - b, computed once per
        # call, plus the moved coordinate's column of A times the displacement
        # that coordinate really has, (x_i + step) - x_i. That is O(m) per
        # point instead of a matrix-vector product's O(m n), equal up to
        # rounding.
        r0 = A @ x
        r0 -= b
        moved = (x[:, None] + steps) - x[:, None]
        AT = A.T
        p = steps.shape[0]
        values = np.empty((n, p))
        coords = max(1, STENCIL_BLOCK_BYTES // max(1, 8 * n * p))
        scratch = np.empty((min(coords, n), p, n))
        for i in range(0, n, coords):
            j = min(i + coords, n)
            R = scratch[:j - i]
            np.multiply(AT[i:j, None, :], moved[i:j, :, None], out=R)
            R += r0
            np.multiply(R, R, out=R)
            np.add.reduce(np.log1p(R, out=R), axis=2, out=values[i:j])
        return values

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
    """The chained Rosenbrock terms 100 (tail - head^2)^2 + (head - 1)^2, computed
    term by term as that expression would compute them; head and tail
    broadcast."""
    a = np.subtract(tail, np.square(head, dtype=float))
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

    def f_stencil(x: Array, steps: Array) -> Array:
        # Moving coordinate i changes only term i - 1 (i is its tail) and term
        # i (i is its head), so entry [i, j] is f(x) plus those two terms'
        # changes: O(1) per point, equal to f up to rounding. A term the move
        # leaves unchanged adds exactly 0, so a base term that overflowed to
        # +inf keeps the value +inf instead of giving inf - inf = NaN.
        terms = _rosenbrock_terms(x[:-1], x[1:])
        moved = x[:, None] + steps
        f0 = np.add.reduce(terms)
        values = np.full((n, steps.shape[0]), f0)
        old = terms[:, None]
        tail = _rosenbrock_terms(x[:-1, None], moved[1:])  # term i with x[i + 1] moved
        head = _rosenbrock_terms(moved[:-1], x[1:, None])  # term i with x[i] moved
        with np.errstate(invalid="ignore"):  # inf - inf, only where f(x) = inf: redone below
            for new, rows in ((tail, values[1:]), (head, values[:-1])):
                rows += np.subtract(new, old, out=np.zeros_like(new), where=new != old)
        if not np.isfinite(f0):
            # A move that makes an overflowed term finite again gave NaN above;
            # with f(x) finite, only a NaN step gives NaN, as on the scalar route.
            for i, j in zip(*np.nonzero(np.isnan(values))):
                y = x.copy()
                y[i] = moved[i, j]
                values[i, j] = f(y)
        return values

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
