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
    before = oracle._rng.bit_generator.state["state"]["state"]
    oracle.evaluate(np.array([2.0]))
    after = oracle._rng.bit_generator.state["state"]["state"]
    assert before == after


def test_validation_of_bad_inputs():
    with pytest.raises(ValueError):
        Objective(dim=0, evaluator=lambda x: 0.0)
    with pytest.raises(ValueError):
        Oracle(sphere_objective(1), noise_level=-1.0)


def _points(k, dim, seed=3):
    return np.random.default_rng(seed).standard_normal((k, dim))


def test_evaluate_batch_counts_every_row():
    oracle = Oracle(sphere_objective(3))
    values = oracle.evaluate_batch(_points(7, 3))
    assert values.shape == (7,)
    assert oracle.eval_count == 7


def test_evaluate_batch_rejects_wrong_column_count():
    oracle = Oracle(sphere_objective(3))
    with pytest.raises(ValueError):
        oracle.evaluate_batch(np.zeros((4, 2)))
    with pytest.raises(ValueError):
        oracle.evaluate_batch(np.zeros(3))
    assert oracle.eval_count == 0


def test_noisy_batch_equals_scalar_calls_bitwise():
    from adafd import make_rosenbrock

    obj = make_rosenbrock(6).objective
    assert obj.batch_evaluator is not None
    X = _points(9, 6)
    batched = Oracle(obj, noise_level=1e-4, rng_seed=21)
    scalar = Oracle(obj, noise_level=1e-4, rng_seed=21)
    assert batched.evaluate_batch(X).tolist() == [scalar.evaluate(x) for x in X]
    assert batched.eval_count == scalar.eval_count == 9
    # both generators stand at the same place afterwards
    assert batched.evaluate(X[0]) == scalar.evaluate(X[0])


def test_noiseless_batch_never_touches_the_rng():
    from adafd import make_rosenbrock

    oracle = Oracle(make_rosenbrock(4).objective, noise_level=0.0, rng_seed=7)
    before = oracle._rng.bit_generator.state["state"]["state"]
    oracle.evaluate_batch(_points(5, 4))
    after = oracle._rng.bit_generator.state["state"]["state"]
    assert before == after


def test_batch_without_batch_evaluator_loops_over_the_scalar_one():
    obj = sphere_objective(4)
    assert obj.batch_evaluator is None
    X = _points(6, 4)
    batched = Oracle(obj, noise_level=1e-3, rng_seed=5)
    scalar = Oracle(obj, noise_level=1e-3, rng_seed=5)
    assert batched.evaluate_batch(X).tolist() == [scalar.evaluate(x) for x in X]


def test_batch_evaluator_must_return_one_value_per_row():
    obj = Objective(dim=2, evaluator=lambda x: float(x @ x),
                    batch_evaluator=lambda X: np.sum(X * X))
    with pytest.raises(ValueError):
        Oracle(obj).evaluate_batch(np.ones((3, 2)))
