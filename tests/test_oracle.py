import math

import numpy as np
import pytest

from adafd import Objective, Oracle

from conftest import sphere_objective


def test_exact_value_and_count_without_noise():
    oracle = Oracle(sphere_objective(2))
    assert oracle.evaluate(np.array([1.0, 2.0])) == 5.0
    assert oracle.eval_count == 1


def test_noise_is_bounded_by_level():
    obj = Objective(dim=1, evaluator=lambda x: float(x[0] ** 2))
    oracle = Oracle(obj, noise_level=1e-2, rng_seed=11)
    values = [oracle.evaluate(np.zeros(1)) for _ in range(200)]
    assert all(-1e-2 < v < 1e-2 for v in values)
    assert oracle.eval_count == 200


def test_noise_bound_holds_at_generic_points(rng):
    obj = sphere_objective(3)
    eps = 1e-3
    oracle = Oracle(obj, noise_level=eps, rng_seed=5)
    for _ in range(100):
        x = rng.standard_normal(3)
        assert abs(oracle.evaluate(x) - float(x @ x)) <= eps


def test_rosenbrock_vanishes_at_ones():
    from adafd import make_rosenbrock

    inst = make_rosenbrock(2)
    oracle = Oracle(inst.objective)
    assert oracle.evaluate(np.ones(2)) == 0.0


def test_every_call_increments_even_at_repeated_points():
    oracle = Oracle(sphere_objective(1), noise_level=0.5, rng_seed=1)
    x = np.array([0.25])
    first = oracle.evaluate(x)
    second = oracle.evaluate(x)
    assert oracle.eval_count == 2
    assert first != second  # noise is re-drawn per call, not memoized per point


def test_dimension_mismatch_is_a_hard_error():
    oracle = Oracle(sphere_objective(3))
    with pytest.raises(ValueError):
        oracle.evaluate(np.zeros(2))
    assert oracle.eval_count == 0


def test_reset_counter_zeroes_and_rewinds():
    oracle = Oracle(sphere_objective(1), noise_level=0.1, rng_seed=99)
    xs = [np.array([float(i)]) for i in range(7)]
    first_pass = [oracle.evaluate(x) for x in xs]
    assert oracle.eval_count == 7
    oracle.reset_counter()
    assert oracle.eval_count == 0
    second_pass = [oracle.evaluate(x) for x in xs]
    assert second_pass == first_pass  # bitwise replay of the noise stream


def test_reset_on_fresh_oracle_is_idempotent():
    oracle = Oracle(sphere_objective(1))
    oracle.reset_counter()
    assert oracle.eval_count == 0


def test_equal_seeds_equal_sequences():
    obj = sphere_objective(2)
    a = Oracle(obj, noise_level=1e-2, rng_seed=42)
    b = Oracle(obj, noise_level=1e-2, rng_seed=42)
    points = [np.array([0.1 * i, -0.2 * i]) for i in range(20)]
    assert [a.evaluate(p) for p in points] == [b.evaluate(p) for p in points]


def test_noiseless_oracle_never_touches_the_rng():
    obj = sphere_objective(1)
    oracle = Oracle(obj, noise_level=0.0, rng_seed=7)
    before = oracle._rng.bit_generator.state
    oracle.evaluate(np.array([2.0]))
    oracle.evaluate_stencil(np.array([2.0]), 0, 1, np.array([0.1, -0.1]))
    assert oracle._rng.bit_generator.state == before


def test_validation_of_bad_inputs():
    with pytest.raises(ValueError):
        Objective(dim=0, evaluator=lambda x: 0.0)
    with pytest.raises(ValueError):
        Oracle(sphere_objective(1), noise_level=-1.0)


@pytest.mark.parametrize("level", [math.nan, math.inf, -math.inf])
def test_non_finite_noise_level_is_rejected(level):
    with pytest.raises(ValueError, match="finite and nonnegative"):
        Oracle(sphere_objective(1), noise_level=level)


def _base(dim, seed=3):
    return np.random.default_rng(seed).standard_normal(dim)


def _per_point(oracle, x, lo, hi, steps):
    """One ``evaluate`` call per stencil point, in row order."""
    values = []
    for i in range(lo, hi):
        for step in steps:
            y = x.copy()
            y[i] += step
            values.append(oracle.evaluate(y))
    return values


def test_evaluate_stencil_counts_every_point():
    oracle = Oracle(sphere_objective(3))
    values = oracle.evaluate_stencil(_base(3), 0, 3, np.array([0.1, -0.1]))
    assert values.shape == (3, 2)
    assert oracle.eval_count == 6
    assert oracle.evaluate_stencil(_base(3), 1, 2, np.array([0.1])).shape == (1, 1)
    assert oracle.eval_count == 7


def test_evaluate_stencil_rejects_bad_arguments():
    oracle = Oracle(sphere_objective(3))
    steps = np.array([0.1])
    for x in (np.zeros(2), np.zeros((1, 3)), np.zeros(4)):
        with pytest.raises(ValueError):
            oracle.evaluate_stencil(x, 0, 1, steps)
    for lo, hi in ((-1, 2), (0, 4), (2, 1), (4, 4)):
        with pytest.raises(ValueError):
            oracle.evaluate_stencil(np.zeros(3), lo, hi, steps)
    with pytest.raises(ValueError):
        oracle.evaluate_stencil(np.zeros(3), 0, 3, np.ones((1, 1)))
    assert oracle.eval_count == 0


def test_noisy_stencil_equals_scalar_calls_bitwise():
    from adafd import make_rosenbrock

    obj = make_rosenbrock(6).objective
    assert obj.stencil_evaluator is not None
    x, steps = _base(6), np.array([1e-3, -1e-3])
    stencil = Oracle(obj, noise_level=1e-4, rng_seed=21)
    scalar = Oracle(obj, noise_level=1e-4, rng_seed=21)
    values = stencil.evaluate_stencil(x, 1, 5, steps)
    assert values.ravel().tolist() == _per_point(scalar, x, 1, 5, steps)
    assert stencil.eval_count == scalar.eval_count == 8
    # both generators stand at the same place afterwards
    assert stencil.evaluate(x) == scalar.evaluate(x)


def test_noiseless_stencil_never_touches_the_rng():
    from adafd import make_rosenbrock

    oracle = Oracle(make_rosenbrock(4).objective, noise_level=0.0, rng_seed=7)
    before = oracle._rng.bit_generator.state
    oracle.evaluate_stencil(_base(4), 0, 4, np.array([1e-3]))
    assert oracle._rng.bit_generator.state == before


def test_stencil_without_stencil_evaluator_loops_over_the_scalar_one():
    obj = sphere_objective(4)
    assert obj.stencil_evaluator is None
    x, steps = _base(4), np.array([0.5, -0.25])
    stencil = Oracle(obj, noise_level=1e-3, rng_seed=5)
    scalar = Oracle(obj, noise_level=1e-3, rng_seed=5)
    values = stencil.evaluate_stencil(x, 0, 4, steps)
    assert values.ravel().tolist() == _per_point(scalar, x, 0, 4, steps)
    assert stencil.evaluate(x) == scalar.evaluate(x)


def test_stencil_evaluator_must_return_one_value_per_point():
    def flat(x, lo, hi, steps):
        return np.zeros((hi - lo) * steps.shape[0])

    obj = Objective(dim=2, evaluator=lambda x: float(x @ x), stencil_evaluator=flat)
    with pytest.raises(ValueError):
        Oracle(obj).evaluate_stencil(np.ones(2), 0, 2, np.array([0.1, -0.1]))


def _zero_objective(dim):
    """f = 0 everywhere, with a stencil evaluator, so every value is its noise."""
    return Objective(dim=dim, evaluator=lambda x: 0.0,
                     stencil_evaluator=lambda x, lo, hi, steps: np.zeros((hi - lo, len(steps))))


def _draw_noise(oracle, calls, n):
    """Noise values of a sequence of calls: an int k is a stencil over
    coordinates [0, k) with steps (h, -h), None one ``evaluate`` call."""
    x, steps = np.zeros(n), np.array([0.1, -0.1])
    values = []
    for k in calls:
        if k is None:
            values.append(oracle.evaluate(x))
        else:
            values.extend(oracle.evaluate_stencil(x, 0, k, steps).ravel().tolist())
    return values


#: Mixed calls crossing chunk boundaries: scalar runs, small stencils, and a
#: 2n = 800-point stencil larger than one chunk, started in mid-chunk.
MIXED_CALLS = [None] * 3 + [5, None, 400, None, 100] + [None] * 300 + [400, 1, None]


@pytest.mark.parametrize("seed", [0, 17])
def test_noise_read_ahead_is_the_per_point_stream(seed):
    eps, n = 1e-4, 400
    oracle = Oracle(_zero_objective(n), noise_level=eps, rng_seed=seed)
    got = _draw_noise(oracle, MIXED_CALLS, n)
    assert oracle.eval_count == len(got)
    expected = np.random.default_rng(seed).uniform(-eps, eps, size=len(got))
    assert got == expected.tolist()


def test_reset_counter_in_mid_chunk_rewinds():
    oracle = Oracle(_zero_objective(400), noise_level=1e-3, rng_seed=3)
    first = _draw_noise(oracle, MIXED_CALLS[:8], 400)
    oracle.reset_counter()
    assert oracle.eval_count == 0
    assert _draw_noise(oracle, MIXED_CALLS[:8], 400) == first
