import dataclasses

import numpy as np
import pytest

from adafd import (
    Oracle,
    PowerIterationError,
    build_instance,
    central_diff,
    load_instance_spec,
    make_image_restoration,
    make_least_squares,
    make_rosenbrock,
    random_instance,
    save_instance_spec,
    spectral_norm,
)
from adafd import problems


class TestLeastSquares:
    def test_identity_matrix_reduces_to_sphere(self):
        inst = make_least_squares(np.eye(2), np.zeros(2))
        x = np.array([1.0, 2.0])
        assert inst.objective.evaluator(x) == 5.0
        assert np.allclose(inst.objective.analytic_gradient(x), 2.0 * x)
        assert inst.objective.lipschitz_grad_constant == pytest.approx(2.0)

    def test_diagonal_case_constants(self):
        inst = make_least_squares(np.array([[2.0, 0.0], [0.0, 1.0]]),
                                  np.array([2.0, 1.0]))
        assert inst.objective.evaluator(np.array([1.0, 1.0])) == 0.0
        assert inst.objective.lipschitz_grad_constant == pytest.approx(8.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            make_least_squares(np.eye(3), np.zeros(2))

    def test_gradient_cross_validation(self, rng):
        inst = random_instance("least_squares", 10, m=20, seed=42)
        oracle = Oracle(inst.objective)
        for _ in range(10):
            x = rng.standard_normal(10)
            g_fd = central_diff(oracle, x, 1e-5)
            g = inst.objective.analytic_gradient(x)
            assert np.linalg.norm(g_fd - g) <= 1e-6 * (1.0 + np.linalg.norm(g))


class TestImageRestoration:
    def test_scalar_case(self):
        inst = make_image_restoration(np.eye(1), np.zeros(1))
        x = np.array([3.0])
        assert inst.objective.evaluator(x) == pytest.approx(np.log(10.0))
        assert inst.objective.analytic_gradient(x)[0] == pytest.approx(6.0 / 10.0)
        assert inst.objective.lipschitz_grad_constant == pytest.approx(2.0)

    def test_global_minimizer_when_consistent(self, rng):
        A = rng.standard_normal((5, 5))
        x_star = rng.standard_normal(5)
        inst = make_image_restoration(A, A @ x_star)
        assert inst.objective.evaluator(x_star) == pytest.approx(0.0, abs=1e-24)
        assert np.allclose(inst.objective.analytic_gradient(x_star), 0.0, atol=1e-12)

    def test_requires_square_matrix(self):
        with pytest.raises(ValueError):
            make_image_restoration(np.ones((3, 2)), np.zeros(3))

    def test_gradient_cross_validation(self, rng):
        inst = random_instance("image_restoration", 10, seed=7)
        oracle = Oracle(inst.objective)
        for _ in range(10):
            x = rng.standard_normal(10)
            g_fd = central_diff(oracle, x, 1e-5)
            g = inst.objective.analytic_gradient(x)
            assert np.linalg.norm(g_fd - g) <= 1e-6 * (1.0 + np.linalg.norm(g))


class TestRosenbrock:
    def test_minimum_at_ones(self):
        inst = make_rosenbrock(2)
        assert inst.objective.evaluator(np.ones(2)) == 0.0
        assert np.allclose(inst.objective.analytic_gradient(np.ones(2)), 0.0)

    def test_value_and_gradient_at_origin(self):
        inst = make_rosenbrock(2)
        assert inst.objective.evaluator(np.zeros(2)) == 1.0
        assert np.allclose(inst.objective.analytic_gradient(np.zeros(2)),
                           np.array([-2.0, 0.0]))

    def test_needs_two_dimensions(self):
        with pytest.raises(ValueError):
            make_rosenbrock(1)

    def test_gradient_cross_validation(self):
        rng = np.random.default_rng(3)
        inst = make_rosenbrock(5)
        oracle = Oracle(inst.objective)
        for _ in range(10):
            x = rng.standard_normal(5)
            g_fd = central_diff(oracle, x, 1e-5)
            g = inst.objective.analytic_gradient(x)
            assert np.linalg.norm(g_fd - g) <= 1e-6 * (1.0 + np.linalg.norm(g))


@pytest.mark.parametrize("k", [1, 8, 64])
@pytest.mark.parametrize("n", [2, 100, 400])
def test_rosenbrock_rows_are_bitwise_the_one_expression_form(k, n):
    X = np.random.default_rng(k * n).uniform(-2.0, 2.0, (k, n))
    head, tail = X[:, :-1], X[:, 1:]
    expected = np.sum(100.0 * (tail - head ** 2) ** 2 + (head - 1.0) ** 2, axis=1)
    assert make_rosenbrock(n).objective.batch_evaluator(X).tobytes() == expected.tobytes()


@pytest.mark.parametrize("n", [2, 3, 17, 100, 400])
def test_scalar_evaluators_are_bitwise_the_one_expression_forms(n):
    rng = np.random.default_rng(n)
    rosenbrock = make_rosenbrock(n).objective.evaluator
    ls = random_instance("least_squares", n, seed=n)
    ir = random_instance("image_restoration", n, seed=n)
    for scale in (1e-3, 1.0, 1e3):
        for x in rng.uniform(-2.0, 2.0, (20, n)) * scale:
            assert rosenbrock(x) == float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2
                                                 + (x[:-1] - 1.0) ** 2))
            r = ls.A @ x - ls.b
            assert ls.objective.evaluator(x) == float(r @ r)
            r = ir.A @ x - ir.b
            assert ir.objective.evaluator(x) == float(np.sum(np.log1p(r * r)))


def test_rosenbrock_accepts_an_integer_point():
    assert make_rosenbrock(3).objective.evaluator(np.array([0, 2, 1])) == 1302.0


class TestRandomInstances:
    def test_seeded_determinism(self):
        a = random_instance("least_squares", 6, m=9, seed=5)
        b = random_instance("least_squares", 6, m=9, seed=5)
        assert np.array_equal(a.A, b.A) and np.array_equal(a.b, b.b)
        assert a.A.shape == (9, 6)

    def test_different_seeds_differ(self):
        a = random_instance("image_restoration", 6, seed=1)
        b = random_instance("image_restoration", 6, seed=2)
        assert not np.array_equal(a.A, b.A)

    def test_entries_concentrate_like_standard_normals(self):
        inst = random_instance("least_squares", 100, seed=1)
        n_entries = inst.A.size
        assert abs(float(np.mean(inst.A))) <= 3.5 / np.sqrt(n_entries)
        assert abs(float(np.std(inst.A)) - 1.0) <= 0.05

    def test_rosenbrock_is_not_random(self):
        with pytest.raises(ValueError):
            random_instance("rosenbrock", 4, seed=0)


class TestSpectralNorm:
    def test_diagonal(self):
        assert spectral_norm(np.diag([3.0, 1.0])) == pytest.approx(3.0, rel=1e-7)

    def test_identity(self):
        assert spectral_norm(np.eye(5)) == pytest.approx(1.0, rel=1e-7)

    def test_zero_matrix(self):
        assert spectral_norm(np.zeros((3, 3))) == 0.0

    def test_matches_dense_svd(self):
        M = np.random.default_rng(5).standard_normal((10, 10))
        reference = float(np.linalg.svd(M, compute_uv=False)[0])
        assert spectral_norm(M) == pytest.approx(reference, rel=1e-6)

    def test_nonconvergence_carries_last_estimate(self):
        M = np.random.default_rng(0).standard_normal((6, 6))
        with pytest.raises(PowerIterationError) as info:
            spectral_norm(M, tol=0.0, max_iter=3)
        assert info.value.last_estimate > 0.0

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            spectral_norm(np.array([[np.inf, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("n", [2, 3, 7, 40, 150])
    def test_one_product_per_iteration_is_bitwise_the_two_product_loop(self, n):
        M = np.random.default_rng(n).standard_normal((n + 1, n))
        for A in (M, M.T @ M):  # the second is what least squares passes
            assert spectral_norm(A) == _spectral_norm_two_products(A)
            for max_iter in (1, 3):
                with pytest.raises(PowerIterationError) as new:
                    spectral_norm(A, tol=0.0, max_iter=max_iter)
                with pytest.raises(PowerIterationError) as old:
                    _spectral_norm_two_products(A, tol=0.0, max_iter=max_iter)
                assert new.value.last_estimate == old.value.last_estimate


def _spectral_norm_two_products(M, tol=1e-8, max_iter=10_000):
    """spectral_norm as it was written before it reused the Rayleigh quotient's
    product S @ v as the next iteration's w."""
    M = np.asarray(M, dtype=float)
    S = M.T @ M
    v = np.random.default_rng(0).standard_normal(S.shape[0])
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(max_iter):
        w = S @ v
        norm_w = float(np.linalg.norm(w))
        if norm_w == 0.0:
            return 0.0
        v = w / norm_w
        lam_new = float(v @ (S @ v))
        if abs(lam_new - lam) <= tol * max(abs(lam_new), 1e-300):
            return float(np.sqrt(max(lam_new, 0.0)))
        lam = lam_new
    raise PowerIterationError("no convergence", last_estimate=float(np.sqrt(max(lam, 0.0))))


class TestLazyLipschitzConstant:
    @pytest.fixture
    def norm_calls(self, monkeypatch):
        calls = []

        def counting(M, *args, **kwargs):
            calls.append(M.shape)
            return spectral_norm(M, *args, **kwargs)

        monkeypatch.setattr(problems, "spectral_norm", counting)
        return calls

    def test_least_squares_computes_it_once_on_first_read(self, norm_calls):
        inst = build_instance("least_squares", 30, m=40, seed=3)
        assert norm_calls == []
        L = inst.objective.lipschitz_grad_constant
        assert L == 2.0 * spectral_norm(inst.A.T @ inst.A)
        assert inst.objective.lipschitz_grad_constant == L
        assert norm_calls == [(30, 30)]

    def test_image_restoration_value_is_the_row_sum_bound(self):
        inst = build_instance("image_restoration", 30, seed=3)
        AtA = inst.A.T @ inst.A
        assert inst.objective.lipschitz_grad_constant == \
            2.0 * float(np.max(np.sum(np.abs(AtA), axis=1)))

    def test_a_replaced_copy_shares_the_value_without_forcing_it(self, norm_calls):
        inst = build_instance("least_squares", 12, seed=1)
        copy = dataclasses.replace(inst.objective, evaluator=lambda x: 0.0)
        assert norm_calls == []
        L = copy.lipschitz_grad_constant
        assert L == 2.0 * spectral_norm(inst.A.T @ inst.A)
        assert inst.objective.lipschitz_grad_constant == L
        assert len(norm_calls) == 1


def test_all_families_are_nonnegative(rng):
    instances = [
        random_instance("least_squares", 5, seed=1),
        random_instance("image_restoration", 5, seed=2),
        make_rosenbrock(5),
    ]
    for inst in instances:
        for _ in range(50):
            x = rng.uniform(-10, 10, size=5)
            assert inst.objective.evaluator(x) >= 0.0


@pytest.mark.parametrize("family", ["least_squares", "image_restoration"])
def test_stored_lipschitz_constant_is_an_upper_bound(family, rng):
    inst = random_instance(family, 6, seed=11)
    L = inst.objective.lipschitz_grad_constant
    grad = inst.objective.analytic_gradient
    for _ in range(1000):
        x = rng.uniform(-10, 10, size=6)
        y = rng.uniform(-10, 10, size=6)
        lhs = np.linalg.norm(grad(x) - grad(y))
        assert lhs <= L * np.linalg.norm(x - y) * (1.0 + 1e-12)


class TestSerialization:
    def test_random_instance_round_trip(self, tmp_path):
        inst = random_instance("least_squares", 7, m=12, seed=99)
        path = tmp_path / "instance.txt"
        save_instance_spec(inst, path)
        loaded = load_instance_spec(path)
        assert loaded.family == inst.family
        assert np.array_equal(loaded.A, inst.A)
        assert np.array_equal(loaded.b, inst.b)
        # matrices are regenerated, never stored
        assert "seed" in path.read_text() and "99" in path.read_text()
        assert len(path.read_text()) < 200

    def test_rosenbrock_round_trip(self, tmp_path):
        path = tmp_path / "rosen.txt"
        save_instance_spec(make_rosenbrock(6), path)
        loaded = load_instance_spec(path)
        assert loaded.family == "rosenbrock" and loaded.dim == 6

    def test_hand_built_instances_have_no_recipe(self, tmp_path):
        inst = make_least_squares(np.eye(2), np.zeros(2))
        with pytest.raises(ValueError):
            save_instance_spec(inst, tmp_path / "nope.txt")
