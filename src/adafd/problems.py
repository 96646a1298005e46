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
from dataclasses import dataclass, replace
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
    seed: Optional[int] = None  # set when generated via random_instance


def _residual_stencil(A: Array, b: Array, x: Array, lo: int, hi: int,
                      steps: Array) -> Array:
    """The residuals A y - b at the stencil points y of ``Objective.stencil_evaluator``,
    as a C-ordered (hi - lo, len(steps), m) array: the base residual A x - b
    plus the moved coordinate's column of A times the displacement that
    coordinate really has, (x_i + step) - x_i. That is O(m) per point instead
    of a matrix-vector product's O(m n), equal up to rounding."""
    r0 = A @ x
    r0 -= b
    base = x[lo:hi, None]
    moved = (base + steps) - base
    R = np.empty((hi - lo, steps.shape[0], A.shape[0]))
    np.multiply(A[:, lo:hi].T[:, None, :], moved[:, :, None], out=R)
    R += r0
    return R


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

    def f_stencil(x: Array, lo: int, hi: int, steps: Array) -> Array:
        R = _residual_stencil(A, b, x, lo, hi, steps)
        return np.add.reduce(np.square(R, out=R), axis=2)

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

    def f_stencil(x: Array, lo: int, hi: int, steps: Array) -> Array:
        R = _residual_stencil(A, b, x, lo, hi, steps)
        np.multiply(R, R, out=R)
        return np.add.reduce(np.log1p(R, out=R), axis=2)

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
        T = np.empty((hi - lo, p, n - 1))
        T[:] = _rosenbrock_terms(x[:-1], x[1:])
        moved = x[lo:hi, None] + steps
        i = np.arange(max(lo, 1), hi)
        T[i - lo, :, i - 1] = _rosenbrock_terms(
            np.broadcast_to(x[i - 1, None], (i.size, p)), moved[i - lo])
        i = np.arange(lo, min(hi, n - 1))
        T[i - lo, :, i] = _rosenbrock_terms(moved[i - lo], x[i + 1, None])
        return np.add.reduce(T, axis=2)

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
        return make_rosenbrock(n)
    return random_instance(family, n, m=m, seed=seed)


def save_instance_spec(instance: ProblemInstance, path) -> None:
    """Persist the recipe (family, dims, seed); matrices are never stored.

    Only regenerable instances qualify: seed-generated (A, b) families or
    Rosenbrock.
    """
    lines = [f"family = {instance.family}", f"n = {instance.dim}"]
    if instance.family == ROSENBROCK:
        pass
    elif instance.seed is not None:
        lines.append(f"m = {instance.m}")
        lines.append(f"seed = {instance.seed}")
    else:
        raise ValueError("instance was built from explicit matrices; no recipe to save")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_instance_spec(path) -> ProblemInstance:
    """Rebuild an instance from a recipe file written by :func:`save_instance_spec`."""
    fields = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            fields[key.strip()] = value.strip()
    family = fields.get("family")
    if family not in FAMILIES:
        raise ValueError(f"{path}: unknown family {family!r}")
    n = int(fields["n"])
    if family == ROSENBROCK:
        return make_rosenbrock(n)
    return random_instance(family, n, m=int(fields["m"]), seed=int(fields["seed"]))
