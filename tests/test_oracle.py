import dataclasses
import math

import numpy as np
import pytest

from adafd import Objective, Oracle, ValidationError, forward_diff
from adafd.oracle import NOISE_CHUNK

from conftest import looping_stencil, sphere_objective


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
    oracle.evaluate_stencil(np.array([2.0]), np.array([0.1, -0.1]))
    assert oracle._rng.bit_generator.state == before


@pytest.mark.parametrize("dim, message", [(0, r"must be in \(0, inf\)"),
                                          (2.5, "must be an integer"),
                                          (True, "must be an integer")],
                         ids=["zero", "float", "bool"])
def test_an_objective_dimension_is_a_positive_integer(dim, message):
    with pytest.raises(ValidationError, match=f"^objective dimension {message}, got "):
        Objective(dim=dim, evaluator=lambda x: 0.0)
    assert Objective(dim=np.int64(2), evaluator=lambda x: 0.0).dim == 2


def test_validation_of_bad_inputs():
    with pytest.raises(ValueError):
        Oracle(sphere_objective(1), noise_level=-1.0)


@pytest.mark.parametrize("level", [math.nan, math.inf, -math.inf])
def test_non_finite_noise_level_is_rejected(level):
    with pytest.raises(ValueError, match="finite and nonnegative"):
        Oracle(sphere_objective(1), noise_level=level)


@pytest.mark.parametrize("level", [True, "0.1", None])
def test_a_noise_level_that_is_not_a_real_number_is_rejected(level):
    # True used to draw noise from U(-1, 1)
    with pytest.raises(ValueError, match="finite and nonnegative"):
        Oracle(sphere_objective(1), noise_level=level)


def _base(dim, seed=3):
    return np.random.default_rng(seed).standard_normal(dim)


def _per_point(oracle, x, steps):
    """One ``evaluate`` call per stencil point, in row order."""
    values = []
    for i in range(x.shape[0]):
        for step in steps:
            y = x.copy()
            y[i] += step
            values.append(oracle.evaluate(y))
    return values


def test_evaluate_stencil_counts_every_point():
    oracle = Oracle(sphere_objective(3))
    values = oracle.evaluate_stencil(_base(3), np.array([0.1, -0.1]))
    assert values.shape == (3, 2)
    assert oracle.eval_count == 6
    assert oracle.evaluate_stencil(_base(3), np.array([0.1])).shape == (3, 1)
    assert oracle.eval_count == 9


def test_evaluate_stencil_rejects_bad_arguments():
    oracle = Oracle(sphere_objective(3))
    steps = np.array([0.1])
    for x in (np.zeros(2), np.zeros((1, 3)), np.zeros(4)):
        with pytest.raises(ValueError):
            oracle.evaluate_stencil(x, steps)
    with pytest.raises(ValueError):
        oracle.evaluate_stencil(np.zeros(3), np.ones((1, 1)))
    assert oracle.eval_count == 0


def test_noisy_stencil_equals_scalar_calls_bitwise():
    from adafd import make_rosenbrock

    obj = looping_stencil(make_rosenbrock(6).objective)
    x, steps = _base(6), np.array([1e-3, -1e-3])
    stencil = Oracle(obj, noise_level=1e-4, rng_seed=21)
    scalar = Oracle(obj, noise_level=1e-4, rng_seed=21)
    values = stencil.evaluate_stencil(x, steps)
    assert values.ravel().tolist() == _per_point(scalar, x, steps)
    assert stencil.eval_count == scalar.eval_count == 12
    # both generators stand at the same place afterwards
    assert stencil.evaluate(x) == scalar.evaluate(x)


def test_noiseless_stencil_never_touches_the_rng():
    from adafd import make_rosenbrock

    oracle = Oracle(make_rosenbrock(4).objective, noise_level=0.0, rng_seed=7)
    before = oracle._rng.bit_generator.state
    oracle.evaluate_stencil(_base(4), np.array([1e-3]))
    assert oracle._rng.bit_generator.state == before


def test_stencil_without_stencil_evaluator_loops_over_the_scalar_one():
    obj = sphere_objective(4)
    assert obj.stencil_evaluator is None
    x, steps = _base(4), np.array([0.5, -0.25])
    stencil = Oracle(obj, noise_level=1e-3, rng_seed=5)
    scalar = Oracle(obj, noise_level=1e-3, rng_seed=5)
    values = stencil.evaluate_stencil(x, steps)
    assert values.ravel().tolist() == _per_point(scalar, x, steps)
    assert stencil.evaluate(x) == scalar.evaluate(x)


@pytest.mark.parametrize("lead", [0, NOISE_CHUNK - 5, NOISE_CHUNK - 1],
                         ids=["fresh", "refill-in-stencil", "refill-at-stencil"])
@pytest.mark.parametrize("dim, steps", [(4, [0.5, -0.25]), (200, [1e-3, -1e-3])],
                         ids=["small", "over-a-chunk"])
@pytest.mark.parametrize("hook", [True, False], ids=["hook", "no-hook"])
def test_a_stencil_with_its_base_is_evaluate_then_the_stencil(hook, dim, steps, lead):
    # ``lead`` evaluations first, so that 1 + size crosses a chunk refill:
    # inside the stencil, or between the base and the stencil
    from adafd import make_rosenbrock

    obj = make_rosenbrock(dim).objective
    obj = looping_stencil(obj) if hook else dataclasses.replace(obj, stencil_evaluator=None)
    x, steps = _base(dim), np.array(steps)
    one = Oracle(obj, noise_level=1e-3, rng_seed=8)
    two = Oracle(obj, noise_level=1e-3, rng_seed=8)
    for oracle in (one, two):
        for _ in range(lead):
            oracle.evaluate(x)
    f_x, values = one.evaluate_stencil(x, steps, base=True)
    assert f_x == two.evaluate(x)
    assert values.tobytes() == two.evaluate_stencil(x, steps).tobytes()
    assert one.eval_count == two.eval_count == lead + 1 + dim * len(steps)
    assert one.evaluate(x) == two.evaluate(x)


def test_stencil_evaluator_must_return_one_value_per_point():
    def flat(x, steps):
        return 0.0, np.zeros(x.shape[0] * steps.shape[0])

    obj = Objective(dim=2, evaluator=lambda x: float(x @ x), stencil_evaluator=flat)
    with pytest.raises(ValueError):
        Oracle(obj).evaluate_stencil(np.ones(2), np.array([0.1, -0.1]))


class EvaluatorFault(Exception):
    pass


def _faulty(x):
    """x . x, but it raises where the first coordinate is positive."""
    if x[0] > 0:
        raise EvaluatorFault()
    return float(x @ x)


def _faulty_kernel(x, steps):
    raise EvaluatorFault()


def _with_kernel(kernel):
    """x . x on R^3, with ``kernel`` as its stencil evaluator."""
    return Objective(dim=3, evaluator=lambda x: float(x @ x), stencil_evaluator=kernel)


#: Each route's call at the point of ones in R^3 (a (3, 1) stencil, two rows);
#: "forward" is a forward stencil, which takes its base value from the kernel.
CALLS = {"stencil": lambda oracle: oracle.evaluate_stencil(np.ones(3), np.array([0.1])),
         "forward": lambda oracle: forward_diff(oracle, np.ones(3), 0.1),
         "point": lambda oracle: oracle.evaluate(np.ones(3)),
         "rows": lambda oracle: next(oracle.evaluate_rows(np.ones((2, 3))))}


@pytest.mark.parametrize("route, objective, error", [
    ("stencil", Objective(dim=3, evaluator=_faulty, stencil_evaluator=_faulty_kernel),
     EvaluatorFault),
    ("stencil", Objective(dim=3, evaluator=_faulty,
                          stencil_evaluator=lambda x, steps: (0.0, np.zeros((2, 2)))), ValueError),
    ("point", Objective(dim=3, evaluator=_faulty), EvaluatorFault),
    ("point", Objective(dim=3, evaluator=lambda x: np.zeros(2) if x[0] > 0 else 0.0), TypeError),
    ("rows", Objective(dim=3, evaluator=_faulty), EvaluatorFault),
    ("rows", Objective(dim=3, evaluator=_faulty, rows_evaluator=lambda X: np.zeros(3)),
     ValueError),
    ("forward", _with_kernel(_faulty_kernel), EvaluatorFault),
    ("forward", _with_kernel(lambda x, steps: (0.0, np.zeros((2, 2)))), ValueError),
    ("forward", _with_kernel(lambda x, steps: (np.zeros(2), np.zeros((3, 1)))), TypeError),
], ids=["stencil-raises", "stencil-wrong-shape", "point-raises", "point-not-a-scalar",
        "rows-raises", "rows-wrong-shape", "forward-raises", "forward-wrong-shape",
        "forward-base-not-a-scalar"])
def test_an_evaluation_that_fails_charges_nothing(route, objective, error):
    # every route counts a value, and draws its noise, only once the value is there
    oracle = Oracle(objective, noise_level=1e-3, rng_seed=5)
    with pytest.raises(error):
        CALLS[route](oracle)
    assert oracle.eval_count == 0
    fresh = Oracle(objective, noise_level=1e-3, rng_seed=5)
    assert oracle.evaluate(np.zeros(3)) == fresh.evaluate(np.zeros(3))


def _zero_objective(dim):
    """f = 0 everywhere, with a stencil evaluator, so every value is its noise."""
    return Objective(dim=dim, evaluator=lambda x: 0.0,
                     stencil_evaluator=lambda x, steps: (0.0, np.zeros((len(x), len(steps)))))


def _draw_noise(oracle, calls):
    """Noise values of a sequence of calls on a 2-D objective: an int k is a
    stencil with k steps, 2 k points, None one ``evaluate`` call."""
    x = np.zeros(2)
    values = []
    for k in calls:
        if k is None:
            values.append(oracle.evaluate(x))
        else:
            steps = np.full(k, 0.1)
            values.extend(oracle.evaluate_stencil(x, steps).ravel().tolist())
    return values


#: Mixed calls crossing chunk boundaries: scalar runs, small stencils, and an
#: 800-point stencil larger than one chunk, started in mid-chunk.
MIXED_CALLS = [None] * 3 + [5, None, 400, None, 100] + [None] * 300 + [400, 1, None]


@pytest.mark.parametrize("seed", [0, 17])
def test_noise_read_ahead_is_the_per_point_stream(seed):
    eps = 1e-4
    oracle = Oracle(_zero_objective(2), noise_level=eps, rng_seed=seed)
    got = _draw_noise(oracle, MIXED_CALLS)
    assert oracle.eval_count == len(got)
    expected = np.random.default_rng(seed).uniform(-eps, eps, size=len(got))
    assert got == expected.tolist()


def test_reset_counter_in_mid_chunk_rewinds():
    oracle = Oracle(_zero_objective(2), noise_level=1e-3, rng_seed=3)
    first = _draw_noise(oracle, MIXED_CALLS[:8])
    oracle.reset_counter()
    assert oracle.eval_count == 0
    assert _draw_noise(oracle, MIXED_CALLS[:8]) == first
