"""The built-in batch evaluators against their reference expressions, bit for bit.

Rosenbrock's rows are computed on the flat block, seam pairs included and then
dropped; the references here are the per-row strided form and the scalar
evaluator. The least-squares and image-restoration rows are compared with the
plain expressions of one matrix product.
"""

import numpy as np
import pytest

from adafd import make_rosenbrock, random_instance

KS = (1, 2, 63, 64, 65)
NS = (2, 3, 100, 400)


def _strided_rosenbrock_rows(X):
    """The rows as computed over the strided views X[:, :-1] and X[:, 1:]."""
    head, tail = X[:, :-1], X[:, 1:]
    a = np.square(head, dtype=float)
    np.subtract(tail, a, out=a)
    np.square(a, out=a)
    np.multiply(100.0, a, out=a)
    b = np.subtract(head, 1.0)
    np.square(b, out=b)
    return np.add.reduce(np.add(a, b, out=a), axis=1)


def _assert_rosenbrock_rows(X):
    objective = make_rosenbrock(X.shape[1]).objective
    rows = objective.batch_evaluator(X)
    assert rows.shape == (X.shape[0],)
    # On a Fortran-ordered block the strided form sums each row sequentially
    # rather than pairwise, so it is the reference only for the C-ordered copy.
    expected = _strided_rosenbrock_rows(np.ascontiguousarray(X))
    assert rows.tobytes() == expected.tobytes()
    scalar = np.array([objective.evaluator(x) for x in X])
    assert rows.tobytes() == scalar.tobytes()


def _points(k, n, seed=0):
    rng = np.random.default_rng(1000 * k + n + seed)
    scales = np.array([1e-3, 1.0, 1e3])[rng.integers(0, 3, size=(k, 1))]
    return rng.uniform(-2.0, 2.0, (k, n)) * scales


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("n", NS)
def test_rosenbrock_rows_are_bitwise_the_strided_and_scalar_forms(k, n):
    _assert_rosenbrock_rows(_points(k, n))


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("n", NS)
def test_rosenbrock_rows_of_fortran_strided_and_integer_blocks(k, n):
    X = _points(2 * k, n)
    _assert_rosenbrock_rows(np.asfortranarray(X[:k]))
    _assert_rosenbrock_rows(X[::2])
    _assert_rosenbrock_rows(np.random.default_rng(n).integers(-3, 4, size=(k, n)))


@pytest.mark.parametrize("n", (2, 3, 100))
@pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
def test_a_nonfinite_row_leaves_its_neighbours_unchanged(n, bad):
    X = _points(5, n)
    objective = make_rosenbrock(n).objective
    clean = objective.batch_evaluator(X)
    with np.errstate(invalid="ignore", over="ignore"):
        for col in sorted({0, n // 2, n - 1}):
            Y = X.copy()
            Y[2, col] = bad
            rows = objective.batch_evaluator(Y)
            kept = [0, 1, 3, 4]
            assert rows[kept].tobytes() == clean[kept].tobytes()
            np.testing.assert_array_equal(rows[2], objective.evaluator(Y[2]))
        # both sides of one seam non-finite: the last entry of row 1, the first of row 2
        Y = X.copy()
        Y[1, -1] = Y[2, 0] = bad
        rows = objective.batch_evaluator(Y)
        assert rows[[0, 3, 4]].tobytes() == clean[[0, 3, 4]].tobytes()
        np.testing.assert_array_equal(rows, [objective.evaluator(y) for y in Y])


@pytest.mark.parametrize("k", KS)
@pytest.mark.parametrize("n", NS)
def test_matrix_family_rows_are_bitwise_the_plain_expressions(k, n):
    ls = random_instance("least_squares", n, seed=n)
    ir = random_instance("image_restoration", n, seed=n)
    X = _points(2 * k, n)
    for block in (X[:k], np.asfortranarray(X[:k]), X[::2]):
        R = block @ ls.A.T - ls.b
        expected = np.einsum("ij,ij->i", R, R)
        assert ls.objective.batch_evaluator(block).tobytes() == expected.tobytes()
        R = block @ ir.A.T - ir.b
        expected = np.sum(np.log1p(R * R), axis=1)
        assert ir.objective.batch_evaluator(block).tobytes() == expected.tobytes()
