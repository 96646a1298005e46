"""Benchmark objective families with seeded generation and validation gradients.

Three families: quadratic least-squares residuals, a log-damped nonconvex
variant of them, and the chained Rosenbrock function. The first two carry
gradient-Lipschitz constants, computed on first read and cached, since only
the rg baseline reads them: least squares' 2 sigma_max(A)^2, exact to rounding
(the largest eigenvalue of A^T A from one LAPACK call), and for the log-damped
family the max absolute row sum of 2 A^T A, an upper bound. Rosenbrock's
gradient is only locally Lipschitz so no constant is stored.

Each family also has a stencil kernel (``Objective.stencil_evaluator``) that
reuses the base point's work and returns f(x) from it, bitwise the scalar
evaluator's, so a forward stencil evaluates its base nowhere else. Least
squares and Rosenbrock are in closed form, O(1) per point: f(x) plus the
change the moved coordinate makes. Image restoration adds one column of A to
the base residual, O(n) per point, in blocks of ``STENCIL_BLOCK_BYTES`` of
scratch. All three equal the scalar evaluator up to rounding, point by point
where the base work is not finite.
Rosenbrock also evaluates linesearch trials a block of rows at a time
(``Objective.rows_evaluator``), bitwise equal to the scalar evaluator; least
squares has no such hook, because every batched form of it rounds differently.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .driver import ValidationError, check_count
from .oracle import Array, Objective, pointwise_stencil

LEAST_SQUARES = "least_squares"
IMAGE_RESTORATION = "image_restoration"
ROSENBROCK = "rosenbrock"
FAMILIES = (LEAST_SQUARES, IMAGE_RESTORATION, ROSENBROCK)


@dataclass(frozen=True)
class ProblemInstance:
    """Immutable benchmark instance; safe to share across concurrent runs.

    :func:`random_instance` hands the last seeded recipe's object out again,
    so consecutive experiments with that recipe share it: its A and b are
    read-only, and what its objective computes once (column norms, L) is
    computed once for all of them."""

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


def _frozen(a) -> Array:
    """``a`` as a read-only float array: ``a`` itself if it already is one that
    owns its data, as ``random_instance``'s draw is, else a copy."""
    kept = isinstance(a, np.ndarray) and a.base is None and not a.flags.writeable
    out = np.asarray(a, dtype=float) if kept else np.array(a, dtype=float)
    out.flags.writeable = False
    return out


def make_least_squares(A: Array, b: Array) -> ProblemInstance:
    """f(x) = ||A x - b||^2 with gradient 2 A^T (A x - b), on :func:`_frozen` A and b."""
    A, b = _frozen(A), _frozen(b)
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

    def f_stencil(x: Array, steps: Array) -> tuple:
        # Moving coordinate i by s = (x_i + step) - x_i, the displacement it
        # really has, gives ||r0 + s a_i||^2 = f0 + s (2 a_i^T r0 + s ||a_i||^2)
        # with r0 = A x - b and f0 = r0^T r0, computed as f computes it: O(1)
        # per point once the call has r0 and the slopes 2 a_i^T r0.
        r0 = A @ x
        r0 -= b
        f0 = r0 @ r0
        if not math.isfinite(f0):  # the closed form cannot hold: point by point
            return f0, pointwise_stencil(f, x, steps)
        s = (x[:, None] + steps) - x[:, None]
        values = s * column_norms()[:, None]
        values += 2.0 * (r0 @ A)[:, None]
        values *= s
        values += f0
        return f0, values

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
    A, b = _frozen(A), _frozen(b)
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

    def f_stencil(x: Array, steps: Array) -> tuple:
        # log1p has no closed form in the displacement, so each point's
        # residual is built: the base residual r0 = A x - b, computed once per
        # call (and f0 from it as f computes it), plus the moved coordinate's
        # column of A times the displacement that coordinate really has,
        # (x_i + step) - x_i. That is O(m) per point instead of a
        # matrix-vector product's O(m n), equal up to rounding while r0 is
        # finite; otherwise it is evaluated point by point.
        r0 = A @ x
        r0 -= b
        f0 = np.add.reduce(np.log1p(r0 * r0))
        if not np.isfinite(r0).all():
            return f0, pointwise_stencil(f, x, steps)
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
        return f0, values

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
    check_count("n", n, 1)  # the chain needs two coordinates

    def f(x: Array) -> float:
        return float(np.add.reduce(_rosenbrock_terms(x[:-1], x[1:])))

    def f_stencil(x: Array, steps: Array) -> tuple:
        # Moving coordinate i changes only term i - 1 (i is its tail) and term
        # i (i is its head), so entry [i, j] is f(x), reduced as f reduces it,
        # plus those two terms' changes: O(1) per point, equal to f up to
        # rounding. A term the move leaves unchanged adds exactly 0. With f(x)
        # not finite (an overflowed term), a change is inf - inf, so the points
        # are evaluated one by one.
        terms = _rosenbrock_terms(x[:-1], x[1:])
        f0 = np.add.reduce(terms)
        if not math.isfinite(f0):
            return f0, pointwise_stencil(f, x, steps)
        moved = x[:, None] + steps
        values = np.empty((n, steps.shape[0]))
        values.fill(f0)
        old = terms[:, None]
        values[1:] += _rosenbrock_terms(x[:-1, None], moved[1:]) - old  # x[i + 1] moved
        values[:-1] += _rosenbrock_terms(moved[:-1], x[1:, None]) - old  # x[i] moved
        return f0, values

    def f_rows(X: Array) -> Array:
        # each row reduced as f reduces its terms, so bitwise f(X[j])
        return np.add.reduce(_rosenbrock_terms(X[:, :-1], X[:, 1:]), axis=1)

    def grad(x: Array) -> Array:
        g = np.zeros_like(x)
        g[:-1] += -400.0 * x[:-1] * (x[1:] - x[:-1] ** 2) + 2.0 * (x[:-1] - 1.0)
        g[1:] += 200.0 * (x[1:] - x[:-1] ** 2)
        return g

    objective = Objective(dim=n, evaluator=f, analytic_gradient=grad,
                          stencil_evaluator=f_stencil, rows_evaluator=f_rows)
    return ProblemInstance(family=ROSENBROCK, dim=n, objective=objective)


_MAKERS = {LEAST_SQUARES: make_least_squares, IMAGE_RESTORATION: make_image_restoration}


def check_recipe(family: str, n, m=None) -> None:
    """Reject a recipe (family, n, m) that no family builds, one message per rule;
    Rosenbrock's chain needs n >= 2, and m = 0 would make f = 0 everywhere."""
    if family not in FAMILIES:
        raise ValidationError(f"unknown problem family {family!r}; known: {', '.join(FAMILIES)}")
    check_count("n", n, 1 if family == ROSENBROCK else 0)
    if m is None:
        return
    if family == ROSENBROCK:
        raise ValidationError("rosenbrock has no m; omit it")
    check_count("m", m, 0)
    if family == IMAGE_RESTORATION and m != n:
        raise ValidationError("image_restoration is square; m must equal n or be omitted")

#: Largest A and b, 8 m (n + 1) bytes, that :func:`random_instance` keeps for
#: the next call (about 720 by 720); a larger draw is never kept.
_SHARED_BYTES_MAX = 4 << 20


def random_instance(family: str, n: int, m: Optional[int] = None,
                    seed: Optional[int] = 0) -> ProblemInstance:
    """Generate A and b with i.i.d. standard Gaussian entries from one seed.

    Least squares uses an m-by-n matrix (m defaults to n); the log-damped
    family is square by construction. The last seeded recipe (family, n, m,
    seed) drawn is kept, A and b read-only, if they take at most 4 MiB: a
    noise sweep, one experiment per noise level on one recipe, draws it
    once. ``seed=None`` draws from OS entropy, afresh on every call.
    """
    check_recipe(family, n, m)
    if family not in _MAKERS:
        raise ValidationError(f"family {family!r} is not randomly generated from (A, b)")
    n, m = int(n), int(n if m is None else m)
    if seed is None:
        return _draw(family, n, m, None)
    check_count("seed", seed, -1)
    if 8 * m * (n + 1) > _SHARED_BYTES_MAX:
        return _draw(family, n, m, int(seed))
    return _draw_seeded(family, n, m, int(seed))


def _draw(family: str, n: int, m: int, seed: Optional[int]) -> ProblemInstance:
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n))
    b = rng.standard_normal(m)
    A.flags.writeable = b.flags.writeable = False  # may be shared; the maker copies neither
    return replace(_MAKERS[family](A, b), seed=seed)


# One entry: the last recipe stays alive until another is drawn.
_draw_seeded = functools.lru_cache(maxsize=1)(_draw)


def build_instance(family: str, n: int, m: Optional[int] = None,
                   seed: int = 0) -> ProblemInstance:
    """Uniform entry point: random (A, b) families or deterministic Rosenbrock."""
    check_recipe(family, n, m)
    if family == ROSENBROCK:
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
