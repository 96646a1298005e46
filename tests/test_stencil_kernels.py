"""The built-in stencil evaluators against the scalar evaluators at the points
they stand for.

Entry ``[r, j]`` of ``stencil_evaluator(x, lo, hi, steps)`` is f at x with
coordinate ``lo + r`` set to ``x[lo + r] + steps[j]``; the references here build
each of those points and call ``evaluator`` on it. Rosenbrock's kernel patches
two terms into the base point's and must be bitwise the scalar value; the
least-squares and image-restoration kernels add one column to the base
residual, which rounds differently from a matrix-vector product per point.
"""

import numpy as np
import pytest

from adafd import make_rosenbrock, random_instance

NS = (2, 3, 100, 400)
STEPS = (1e-8, 1e-3, 1.0, 1e3)
MATRIX_RTOL = 1e-14
BLOCKS = ("start", "interior", "end", "whole")


def _block(n, where):
    """(lo, hi) of a block at lo = 0, in the interior, ending at hi = n, or of
    the whole stencil."""
    k = max(1, n // 8)
    mid = n // 3
    return {"start": (0, k), "interior": (mid, min(mid + k, n)), "end": (n - k, n),
            "whole": (0, n)}[where]


def _base(n, seed=0):
    rng = np.random.default_rng(n + seed)
    scales = np.array([1e-3, 1.0, 1e3])[rng.integers(0, 3, size=n)]
    return rng.uniform(-2.0, 2.0, n) * scales


def _scalar_stencil(objective, x, lo, hi, steps):
    """The scalar evaluator at each point the stencil entries stand for."""
    values = np.empty((hi - lo, len(steps)))
    for r in range(hi - lo):
        for j, step in enumerate(steps):
            y = x.copy()
            y[lo + r] = x[lo + r] + step
            values[r, j] = objective.evaluator(y)
    return values


@pytest.mark.parametrize("where", BLOCKS)
@pytest.mark.parametrize("step", STEPS)
@pytest.mark.parametrize("n", NS)
def test_rosenbrock_stencil_is_bitwise_the_scalar_evaluator(n, step, where):
    objective = make_rosenbrock(n).objective
    x = _base(n)
    lo, hi = _block(n, where)
    for steps in (np.array([step]), np.array([step, -step])):
        got = objective.stencil_evaluator(x, lo, hi, steps)
        assert got.shape == (hi - lo, len(steps))
        expected = _scalar_stencil(objective, x, lo, hi, steps)
        assert got.tobytes() == expected.tobytes(), steps


@pytest.mark.parametrize("where", BLOCKS)
@pytest.mark.parametrize("step", STEPS)
@pytest.mark.parametrize("n", NS)
@pytest.mark.parametrize("family", ["least_squares", "image_restoration"])
def test_matrix_family_stencils_match_the_scalar_evaluator(family, n, step, where):
    objective = random_instance(family, n, seed=n).objective
    x = _base(n)
    lo, hi = _block(n, where)
    for steps in (np.array([step]), np.array([step, -step])):
        got = objective.stencil_evaluator(x, lo, hi, steps)
        assert got.shape == (hi - lo, len(steps))
        expected = _scalar_stencil(objective, x, lo, hi, steps)
        np.testing.assert_allclose(got, expected, rtol=MATRIX_RTOL, atol=0.0)


def test_least_squares_stencil_of_a_tall_matrix():
    instance = random_instance("least_squares", 7, m=19, seed=4)
    x = _base(7)
    steps = np.array([1e-3, -1e-3])
    got = instance.objective.stencil_evaluator(x, 2, 6, steps)
    expected = _scalar_stencil(instance.objective, x, 2, 6, steps)
    np.testing.assert_allclose(got, expected, rtol=MATRIX_RTOL, atol=0.0)


def _instances(n):
    return [make_rosenbrock(n), random_instance("least_squares", n, seed=n),
            random_instance("image_restoration", n, seed=n)]


@pytest.mark.parametrize("n", (2, 3, 100))
@pytest.mark.parametrize("bad", (np.inf, -np.inf, np.nan))
def test_a_nonfinite_moved_coordinate_stays_in_its_own_entries(n, bad):
    # The step itself is non-finite. A finite step that overflows one
    # coordinate needs that coordinate near the float maximum or moves every
    # other coordinate about as far, and either makes every value of these
    # families non-finite.
    x = _base(n)
    for instance in _instances(n):
        objective = instance.objective
        for lo, hi in (_block(n, where) for where in BLOCKS):
            clean = objective.stencil_evaluator(x, lo, hi, np.array([1e-3]))
            steps = np.array([1e-3, bad])
            with np.errstate(invalid="ignore", over="ignore"):
                got = objective.stencil_evaluator(x, lo, hi, steps)
                expected = _scalar_stencil(objective, x, lo, hi, steps)
            assert got[:, 0].tobytes() == clean[:, 0].tobytes()
            np.testing.assert_array_equal(got[:, 1], expected[:, 1])


@pytest.mark.parametrize("n", (2, 3, 100))
def test_the_base_point_is_not_written(n):
    x = _base(n)
    for instance in _instances(n):
        before = x.copy()
        instance.objective.stencil_evaluator(x, 0, n, np.array([1e-3, -1e-3]))
        assert x.tobytes() == before.tobytes()
