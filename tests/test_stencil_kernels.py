"""The built-in stencil evaluators against the scalar evaluators at the points
they stand for.

Entry ``[i, j]`` of the values that ``stencil_evaluator(x, steps)`` returns
beside f(x) is f at x with coordinate i set to ``x[i] + steps[j]``; the
references here build each of those points and call ``evaluator`` on it.
The f(x) it returns is bitwise ``evaluator(x)``. The Rosenbrock and least-squares kernels are in
closed form, O(1) per point and without blocks: Rosenbrock's is f(x) plus the
changes of the two terms that hold the moved coordinate, within
``ROSENBROCK_EPS`` machine epsilons of max(f(x), value); least squares' is
f0 + s (2 a_i^T r0 + s ||a_i||^2). The image-restoration kernel adds one
column to the base residual. The matrix kernels round differently from a
matrix-vector product per point. The image-restoration kernel walks its
coordinates in blocks of ``problems.STENCIL_BLOCK_BYTES`` of scratch; the
blocking may change neither a value nor the scratch bound.
"""

import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adafd import GradScheme, Oracle, central_diff, forward_diff, problems
from adafd import build_instance, make_rosenbrock, random_instance

NS = (2, 3, 100, 400)
STEPS = (1e-8, 1e-3, 1.0, 1e3)
MATRIX_RTOL = 1e-14
#: Rosenbrock's kernel rounds f(x) once and adds two rounded term changes, so
#: each value is within a few epsilons of max(f(x), value).
ROSENBROCK_EPS = 4
#: Base points of the whole-stencil comparisons: mixed scales 1e-3 to 1e3,
#: unit scale, the origin, and all ones (Rosenbrock's minimiser, where every
#: term of the base point is zero).
POINTS = ("mixed", "unit", "zero", "ones")


def _base(n, seed=0):
    rng = np.random.default_rng(n + seed)
    scales = np.array([1e-3, 1.0, 1e3])[rng.integers(0, 3, size=n)]
    return rng.uniform(-2.0, 2.0, n) * scales


def _point(n, kind):
    if kind == "mixed":
        return _base(n)
    if kind == "unit":
        return np.random.default_rng(n).uniform(-2.0, 2.0, n)
    return {"zero": np.zeros(n), "ones": np.ones(n)}[kind]


def _scalar_stencil(objective, x, steps):
    """The scalar evaluator at each point the stencil entries stand for."""
    values = np.empty((x.shape[0], len(steps)))
    for i in range(x.shape[0]):
        for j, step in enumerate(steps):
            y = x.copy()
            y[i] = x[i] + step
            values[i, j] = objective.evaluator(y)
    return values


@pytest.mark.parametrize("point", POINTS)
@pytest.mark.parametrize("step", STEPS)
@pytest.mark.parametrize("n", NS)
def test_rosenbrock_stencil_matches_the_scalar_evaluator(n, step, point):
    objective = make_rosenbrock(n).objective
    x = _point(n, point)
    for steps in (np.array([step]), np.array([step, -step])):
        _, got = objective.stencil_evaluator(x, steps)
        assert got.shape == (n, len(steps))
        expected = _scalar_stencil(objective, x, steps)
        scale = np.maximum(objective.evaluator(x), expected)
        assert np.all(np.abs(got - expected) <= ROSENBROCK_EPS * np.finfo(float).eps * scale)


def test_rosenbrock_stencil_keeps_an_overflowed_base_term_infinite():
    # term 2 overflows to +inf at x and at every point of the stencil; a
    # difference of the two infinities would be NaN
    objective = make_rosenbrock(6).objective
    x = np.array([0.5, 1.0, 1e80, 0.3, 0.2, 0.1])
    steps = np.array([1e-3, -1e-3])
    with warnings.catch_warnings(record=True) as scalar_warnings:
        warnings.simplefilter("always")
        expected = _scalar_stencil(objective, x, steps)
    with warnings.catch_warnings(record=True) as kernel_warnings:
        warnings.simplefilter("always")
        _, got = objective.stencil_evaluator(x, steps)
    assert np.all(expected == np.inf)
    assert np.all(got[expected == np.inf] == np.inf)
    messages = {str(w.message) for w in scalar_warnings}
    assert messages == {"overflow encountered in square"}
    assert {str(w.message) for w in kernel_warnings} == messages


def test_rosenbrock_stencil_brings_an_overflowed_base_term_back():
    # f(x) = +inf through terms 1 and 2; moving coordinate 2 from 1e80 to 0
    # makes both finite again, where inf - inf would be NaN
    objective = make_rosenbrock(6).objective
    x = np.array([0.5, 1.0, 1e80, 0.3, 0.2, 0.1])
    steps = np.array([-1e80, 1e-3])
    with warnings.catch_warnings(record=True) as scalar_warnings:
        warnings.simplefilter("always")
        expected = _scalar_stencil(objective, x, steps)
    with warnings.catch_warnings(record=True) as kernel_warnings:
        warnings.simplefilter("always")
        _, got = objective.stencil_evaluator(x, steps)
    assert expected[2, 0] == pytest.approx(169.2)
    np.testing.assert_array_equal(got, expected)
    messages = {str(w.message) for w in scalar_warnings}
    assert messages == {"overflow encountered in square"}
    assert {str(w.message) for w in kernel_warnings} == messages


@pytest.mark.parametrize("point", POINTS)
@pytest.mark.parametrize("step", STEPS)
@pytest.mark.parametrize("n", NS)
@pytest.mark.parametrize("family", ["least_squares", "image_restoration"])
def test_matrix_family_stencils_match_the_scalar_evaluator(family, n, step, point):
    objective = random_instance(family, n, seed=n).objective
    x = _point(n, point)
    for steps in (np.array([step]), np.array([step, -step])):
        _, got = objective.stencil_evaluator(x, steps)
        assert got.shape == (n, len(steps))
        expected = _scalar_stencil(objective, x, steps)
        np.testing.assert_allclose(got, expected, rtol=MATRIX_RTOL, atol=0.0)


def test_least_squares_stencil_of_a_tall_matrix():
    instance = random_instance("least_squares", 7, m=19, seed=4)
    x = _base(7)
    steps = np.array([1e-3, -1e-3])
    _, got = instance.objective.stencil_evaluator(x, steps)
    expected = _scalar_stencil(instance.objective, x, steps)
    np.testing.assert_allclose(got, expected, rtol=MATRIX_RTOL, atol=0.0)


@pytest.mark.parametrize("m, n", [(3, 9), (400, 400)])
def test_least_squares_closed_form_matches_the_scalar_evaluator(m, n):
    # a wide A (m < n) has a null space; n = 400 is the benchmark's size
    objective = random_instance("least_squares", n, m=m, seed=m).objective
    x = _base(n, seed=1)
    for steps in (np.array([1e-3]), np.array([1e-3, -1e-3])):
        _, got = objective.stencil_evaluator(x, steps)
        expected = _scalar_stencil(objective, x, steps)
        np.testing.assert_allclose(got, expected, rtol=MATRIX_RTOL, atol=0.0,
                                   err_msg=f"{steps}")


@pytest.mark.parametrize("steps", ([1e-3, -1e-3, 1.0], [1.0, -1e308, 1e308]))
@pytest.mark.parametrize("family, x", [
    ("least_squares", np.full(6, 1e308)),
    ("image_restoration", np.array([0.5, np.inf, 0.3, 0.2, 0.1, -0.4])),
])
def test_matrix_family_stencils_at_an_overflowed_base_point(family, x, steps):
    # A x - b is not finite at x, where the closed form's inf - inf used to
    # give NaN in entries that the scalar evaluator gives as inf
    objective = random_instance(family, 6, seed=0).objective
    steps = np.array(steps)
    with np.errstate(invalid="ignore", over="ignore"):
        _, got = objective.stencil_evaluator(x, steps)
        expected = _scalar_stencil(objective, x, steps)
    assert np.isinf(expected).any()
    np.testing.assert_array_equal(got, expected)


#: Base points of the f(x) property: finite at unit scale, near overflow
#: (Rosenbrock's terms overflow from about 1e76, least squares' and image
#: restoration's squared residuals from about 1e154, so f(x) may be +inf with
#: every entry finite), and non-finite, which takes the point-by-point route.
BASE_KINDS = ("finite", "near-overflow", "non-finite")


@st.composite
def stencil_bases(draw):
    """A family, an instance seed, a base point of one of ``BASE_KINDS`` and steps."""
    family = draw(st.sampled_from(problems.FAMILIES))
    n = draw(st.integers(2, 40))
    kind = draw(st.sampled_from(BASE_KINDS))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2.0, 2.0, n)
    picked = rng.random(n) < 0.3
    if kind == "near-overflow":
        x[picked] *= draw(st.sampled_from([1e75, 1e77, 1e153, 1e155]))
    elif kind == "non-finite":
        x[picked | (np.arange(n) == 0)] = draw(st.sampled_from([np.inf, -np.inf, np.nan]))
    steps = np.array(draw(st.sampled_from([[1e-3], [1e-3, -1e-3]])))
    return family, n, seed, x, steps


@settings(derandomize=True, max_examples=120, deadline=None)
@given(stencil_bases())
def test_each_kernel_returns_f_x_bitwise_its_scalar_evaluator(case):
    family, n, seed, x, steps = case
    objective = build_instance(family, n, seed=seed).objective
    with np.errstate(over="ignore", invalid="ignore"):
        f_x, values = objective.stencil_evaluator(x, steps)
        expected = objective.evaluator(x)
    assert values.shape == (n, len(steps))
    assert struct.pack("<d", f_x) == struct.pack("<d", expected)


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
        _, clean = objective.stencil_evaluator(x, np.array([1e-3]))
        steps = np.array([1e-3, bad])
        with np.errstate(invalid="ignore", over="ignore"):
            _, got = objective.stencil_evaluator(x, steps)
            expected = _scalar_stencil(objective, x, steps)
        assert got[:, 0].tobytes() == clean[:, 0].tobytes()
        np.testing.assert_array_equal(got[:, 1], expected[:, 1])


@pytest.mark.parametrize("n", (2, 3, 100))
def test_the_base_point_is_not_written(n):
    x = _base(n)
    for instance in _instances(n):
        before = x.copy()
        instance.objective.stencil_evaluator(x, np.array([1e-3, -1e-3]))
        assert x.tobytes() == before.tobytes()


#: Block budgets: below one coordinate (one coordinate per block), several
#: blocks at n = 70, and the default.
BLOCK_BYTES = (1, 2**14, problems.STENCIL_BLOCK_BYTES)


@pytest.mark.parametrize("budget", BLOCK_BYTES)
@pytest.mark.parametrize("n", (2, 3, 70, 400))
def test_blocked_kernels_are_bitwise_one_block(n, budget, monkeypatch):
    # image restoration's is the only kernel that reads STENCIL_BLOCK_BYTES
    objective = random_instance("image_restoration", n, seed=n).objective
    x = _base(n)
    for steps in (np.array([1e-3]), np.array([1e-3, -1e-3])):
        monkeypatch.setattr(problems, "STENCIL_BLOCK_BYTES", 2**62)
        _, whole = objective.stencil_evaluator(x, steps)
        monkeypatch.setattr(problems, "STENCIL_BLOCK_BYTES", budget)
        _, got = objective.stencil_evaluator(x, steps)
        assert got.tobytes() == whole.tobytes(), steps


#: What one stencil may allocate beyond the block buffer: its values, the
#: base point's work and Python objects.
SCRATCH_SLACK_BYTES = 256 * 1024


def _stencil_peak(objective, scheme):
    """The ``tracemalloc`` peak of one noisy stencil after a warm-up stencil."""
    stencil = forward_diff if scheme is GradScheme.FORWARD else central_diff
    oracle = Oracle(objective, noise_level=1e-4, rng_seed=0)
    x = _base(objective.dim)
    stencil(oracle, x, 1e-3)  # draws the noise chunk, warms up numpy, fills caches
    tracemalloc.start()
    try:
        stencil(oracle, x, 1e-3)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("scheme", list(GradScheme))
@pytest.mark.parametrize("family, n, m", [("image_restoration", 400, None)])
def test_one_stencil_allocates_at_most_one_block(family, n, m, scheme):
    objective = random_instance(family, n, m=m, seed=0).objective
    peak = _stencil_peak(objective, scheme)
    assert peak <= problems.STENCIL_BLOCK_BYTES + SCRATCH_SLACK_BYTES, peak


#: What one closed-form stencil may allocate: its values and the base point's
#: work (least squares' base residual and slopes, Rosenbrock's terms and the
#: two moved terms per point), with no scratch that grows with m or n per point.
CLOSED_FORM_STENCIL_BYTES = 64 * 1024


@pytest.mark.parametrize("scheme", list(GradScheme))
@pytest.mark.parametrize("family, n, m", [("least_squares", 100, 2000),
                                          ("least_squares", 400, 400),
                                          ("rosenbrock", 400, None)])
def test_closed_form_stencils_allocate_no_block(family, n, m, scheme):
    objective = build_instance(family, n, m=m, seed=0).objective
    peak = _stencil_peak(objective, scheme)
    assert peak <= CLOSED_FORM_STENCIL_BYTES, peak
