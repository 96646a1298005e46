import dataclasses
import json
import re

import numpy as np
import pytest

from adafd import (
    Oracle,
    build_instance,
    central_diff,
    load_instance_spec,
    make_image_restoration,
    make_least_squares,
    make_rosenbrock,
    random_instance,
)
from adafd import ExperimentConfig, ValidationError, run_experiment


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

    def test_requires_one_entry_of_b_per_row(self):
        with pytest.raises(ValueError, match=r"incompatible shapes A\(3, 3\), b\(2,\)"):
            make_image_restoration(np.eye(3), np.zeros(2))

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


@pytest.mark.parametrize("per", [1, 2])
@pytest.mark.parametrize("n", [2, 100, 400])
def test_rosenbrock_stencil_matches_the_one_expression_form(per, n):
    # the kernel is f(x) plus two term changes: within 4 epsilons of max(f(x), value)
    x = np.random.default_rng(per * n).uniform(-2.0, 2.0, n)
    steps = np.array([1e-3, -1e-3][:per])
    X = np.repeat(x[None, :], n * per, axis=0)  # the stencil's points, in row order
    X[np.arange(n * per), np.repeat(np.arange(n), per)] += np.tile(steps, n)
    head, tail = X[:, :-1], X[:, 1:]
    expected = np.sum(100.0 * (tail - head ** 2) ** 2 + (head - 1.0) ** 2, axis=1)
    got = make_rosenbrock(n).objective.stencil_evaluator(x, steps)[1].ravel()
    fx = np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (x[:-1] - 1.0) ** 2)
    assert np.all(np.abs(got - expected) <= 4 * np.finfo(float).eps * np.maximum(fx, expected))


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


@pytest.mark.parametrize("make", [make_least_squares, make_image_restoration])
def test_a_maker_holds_a_read_only_copy_of_the_callers_arrays(make):
    A, b = np.eye(2), np.zeros(2)
    inst = make(A, b)
    f1, L = inst.objective.evaluator(np.ones(2)), inst.objective.lipschitz_grad_constant
    A *= 3.0
    b += 1.0
    assert inst.A is not A and inst.b is not b
    assert inst.objective.evaluator(np.ones(2)) == f1
    assert inst.objective.lipschitz_grad_constant == L == pytest.approx(2.0)
    assert np.array_equal(inst.A, np.eye(2)) and np.array_equal(inst.b, np.zeros(2))
    with pytest.raises(ValueError, match="read-only"):
        inst.A[0, 0] = 1.0
    # a read-only view of a writeable array is copied too; a read-only array
    # that owns its data, as random_instance passes, is held as it is
    view = A[:, :]
    view.flags.writeable = False
    assert make(view, b).A is not view
    owned = np.eye(2)
    owned.flags.writeable = False
    assert make(owned, b).A is owned


class TestInstanceCache:
    """A seeded recipe is drawn once and shared; a ``seed=None`` draw never is."""

    def test_equal_recipes_give_the_same_object(self, fresh_instances):
        inst = random_instance("least_squares", 6, m=9, seed=5)
        assert random_instance("least_squares", 6, m=9, seed=5) is inst
        assert random_instance("least_squares", np.int64(6), m=np.int64(9),
                               seed=np.int64(5)) is inst
        assert build_instance("least_squares", 6, m=9, seed=5) is inst
        square = random_instance("image_restoration", 4, seed=5)
        assert random_instance("image_restoration", 4, m=4, seed=5) is square

    @pytest.mark.parametrize("family, m", [("least_squares", 9),
                                           ("image_restoration", None)])
    def test_matrices_are_the_seeds_first_two_draws_bitwise(self, family, m):
        for _ in range(2):  # drawn, then looked up
            inst = random_instance(family, 6, m=m, seed=4)
            rng = np.random.default_rng(4)
            A = rng.standard_normal((m or 6, 6))
            b = rng.standard_normal(m or 6)
            assert np.array_equal(inst.A, A) and np.array_equal(inst.b, b)

    def test_matrices_are_read_only(self):
        inst = random_instance("least_squares", 3, m=4, seed=0)
        with pytest.raises(ValueError, match="read-only"):
            inst.A[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            inst.b += 1.0
        assert np.array_equal(inst.A, np.random.default_rng(0).standard_normal((4, 3)))

    def test_an_unseeded_draw_is_fresh_and_evicts_nothing(self, fresh_instances):
        seeded = random_instance("least_squares", 5, seed=1)
        a = random_instance("least_squares", 5, seed=None)
        b = random_instance("least_squares", 5, seed=None)
        assert a is not b and a.seed is None and b.seed is None
        assert not np.array_equal(a.A, b.A)
        assert random_instance("least_squares", 5, seed=1) is seeded

    def test_a_numpy_seed_is_recorded_as_an_int(self, fresh_instances):
        for seed in (np.int64(2), 2, np.uint8(2)):
            inst = random_instance("least_squares", 3, seed=seed)
            assert type(inst.seed) is int and inst.seed == 2

    @pytest.mark.parametrize("seed, rule", [(True, "an integer"), (False, "an integer"),
                                            ([1], "an integer"), (2.0, "an integer"),
                                            ("2", "an integer"),
                                            (-1, r"in \(-1, inf\)")])
    def test_a_seed_that_is_not_a_count_is_rejected(self, seed, rule):
        # numpy itself would draw from a list (as SeedSequence([1])) or a bool (as 0 or 1)
        with pytest.raises(ValidationError, match=f"^seed must be {rule}, got "):
            random_instance("least_squares", 3, seed=seed)

    def test_the_next_recipe_evicts_the_last(self, fresh_instances):
        first = random_instance("least_squares", 4, seed=0)
        random_instance("least_squares", 4, seed=1)
        again = random_instance("least_squares", 4, seed=0)
        assert again is not first and np.array_equal(again.A, first.A)

    def test_only_a_draw_of_at_most_4_mib_is_kept(self, fresh_instances):
        # A and b of a one-column least squares take 16 m bytes
        kept = random_instance("least_squares", 1, m=2**18, seed=0)
        assert random_instance("least_squares", 1, m=2**18, seed=0) is kept
        big = random_instance("least_squares", 1, m=2**18 + 1, seed=0)
        assert random_instance("least_squares", 1, m=2**18 + 1, seed=0) is not big
        assert not big.A.flags.writeable and np.array_equal(big.A[:-1], kept.A)
        assert random_instance("least_squares", 1, m=2**18, seed=0) is kept

    def test_rosenbrock_neither_fills_nor_evicts_it(self, fresh_instances):
        inst = random_instance("least_squares", 4, seed=0)
        assert build_instance("rosenbrock", 4) is not build_instance("rosenbrock", 4)
        assert random_instance("least_squares", 4, seed=0) is inst


@pytest.mark.parametrize("family, m, message", [
    ("rosenbrock", 50, "rosenbrock has no m; omit it"),
    ("image_restoration", 5, "image_restoration is square; m must equal n or be omitted"),
    ("sphere", None, "unknown problem family 'sphere'; known: least_squares, "
                     "image_restoration, rosenbrock"),
])
def test_build_instance_raises_one_error_class(family, m, message):
    # one rule, one message: ExperimentConfig checks the recipe with build_instance's check
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        build_instance(family, 4, m=m, seed=0)
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        ExperimentConfig(family=family, n=4, m=m, solvers=["dfc-fordif"])


@pytest.mark.parametrize("family, n, m, message", [
    ("rosenbrock", 2.0, None, "n must be an integer, got 2.0"),
    ("rosenbrock", 1, None, r"n must be in \(1, inf\), got 1"),
    ("least_squares", 3.0, None, "n must be an integer, got 3.0"),
    ("least_squares", 0, None, r"n must be in \(0, inf\), got 0"),
    ("least_squares", 3, 0, r"m must be in \(0, inf\), got 0"),  # f = 0 everywhere
    ("least_squares", 3, 2.5, "m must be an integer, got 2.5"),
    ("image_restoration", True, None, "n must be an integer, got True"),
])
def test_build_instance_checks_its_counts(family, n, m, message):
    # these used to build an instance of dimension 2.0, build f = 0, or fail
    # with a TypeError from numpy
    with pytest.raises(ValidationError, match=f"^{message}$"):
        build_instance(family, n, m=m, seed=0)


def test_least_squares_lipschitz_constant_is_twice_the_squared_largest_singular_value():
    # The reference is an SVD of A, not the eigenvalue call on A^T A that
    # computes L; tall, wide and square A.
    for m in (120, 20, 40):
        inst = build_instance("least_squares", 40, m=m, seed=m)
        sigma_max = float(np.linalg.svd(inst.A, compute_uv=False)[0])
        assert inst.objective.lipschitz_grad_constant == \
            pytest.approx(2.0 * sigma_max ** 2, rel=1e-12, abs=0.0), m


def test_a_nan_matrix_entry_gives_no_lipschitz_constant():
    inst = make_least_squares(np.array([[np.nan, 0.0], [0.0, 1.0]]), np.zeros(2))
    with pytest.raises(ValueError, match="nonnegative, got nan"):
        inst.objective.lipschitz_grad_constant


class TestLazyLipschitzConstant:
    @pytest.fixture
    def eig_calls(self, monkeypatch, fresh_instances):
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counting(M):
            calls.append(M.shape)
            return eigvalsh(M)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        return calls

    def test_least_squares_computes_it_once_on_first_read(self, eig_calls):
        inst = build_instance("least_squares", 30, m=40, seed=3)
        assert eig_calls == []
        L = inst.objective.lipschitz_grad_constant
        assert inst.objective.lipschitz_grad_constant == L
        assert eig_calls == [(30, 30)]

    def test_image_restoration_value_is_the_row_sum_bound(self):
        inst = build_instance("image_restoration", 30, seed=3)
        AtA = inst.A.T @ inst.A
        assert inst.objective.lipschitz_grad_constant == \
            2.0 * float(np.max(np.sum(np.abs(AtA), axis=1)))

    def test_a_replaced_copy_shares_the_value_without_forcing_it(self, eig_calls):
        inst = build_instance("least_squares", 12, seed=1)
        copy = dataclasses.replace(inst.objective, evaluator=lambda x: 0.0)
        assert eig_calls == []
        L = copy.lipschitz_grad_constant
        assert inst.objective.lipschitz_grad_constant == L
        assert len(eig_calls) == 1


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


def test_rosenbrock_rejects_an_m():
    with pytest.raises(ValueError, match="rosenbrock has no m"):
        build_instance("rosenbrock", 3, m=50)


def _experiment_dir(tmp_path, family, n, m=None):
    out = tmp_path / family
    run_experiment(ExperimentConfig(family=family, n=n, m=m, solvers=["nelder-mead"],
                                    budget_multiplier=2, instance_seed=99,
                                    output_dir=out))
    return out


class TestLoadInstanceSpec:
    @pytest.mark.parametrize("family, n, m", [("least_squares", 7, 12),
                                              ("image_restoration", 5, None),
                                              ("rosenbrock", 6, None)])
    def test_directory_and_report_rebuild_the_instance(self, tmp_path, family, n, m):
        out = _experiment_dir(tmp_path, family, n, m)
        inst = build_instance(family, n, m=m, seed=99)
        for path in (out, out / "report.json", str(out)):
            loaded = load_instance_spec(path)
            assert (loaded.family, loaded.dim, loaded.m) == (family, n, inst.m)
            x = np.linspace(-1.0, 1.0, n)
            assert loaded.objective.evaluator(x) == inst.objective.evaluator(x)
            if family == "rosenbrock":
                assert loaded.A is None and loaded.seed is None
            else:
                # matrices are regenerated from the seed, bitwise
                assert loaded.seed == 99
                assert np.array_equal(loaded.A, inst.A) and np.array_equal(loaded.b, inst.b)
        if m is not None:
            assert loaded.A.shape == (m, n)

    def _edited(self, tmp_path, edit):
        out = _experiment_dir(tmp_path, "least_squares", 4)
        path = out / "report.json"
        report = json.loads(path.read_text())
        edit(report["manifest"]["problem"])
        path.write_text(json.dumps(report))
        return path

    def test_unknown_family_names_the_path(self, tmp_path):
        path = self._edited(tmp_path, lambda p: p.update(family="sphere"))
        with pytest.raises(ValueError, match=re.escape(f"{path}: ") + ".*'sphere'"):
            load_instance_spec(path.parent)

    @pytest.mark.parametrize("key", ["family", "n", "m", "instance_seed"])
    def test_missing_key_names_the_path_and_the_key(self, tmp_path, key):
        path = self._edited(tmp_path, lambda p: p.pop(key))
        with pytest.raises(ValueError, match=re.escape(f"{path}: no key '{key}'")):
            load_instance_spec(path)

    def test_a_null_seed_is_not_a_recipe(self, tmp_path):
        path = self._edited(tmp_path, lambda p: p.update(instance_seed=None))
        with pytest.raises(ValueError, match=re.escape(f"{path}: no instance_seed")):
            load_instance_spec(path)

    def test_rosenbrock_with_an_m_is_rejected(self, tmp_path):
        out = _experiment_dir(tmp_path, "rosenbrock", 3)
        path = out / "report.json"
        path.write_text(path.read_text().replace('"m": null', '"m": 50'))
        with pytest.raises(ValueError, match="rosenbrock has no m"):
            load_instance_spec(out)

    @pytest.mark.parametrize("key, value, message", [
        ("n", 4.5, "n must be an integer"),
        ("n", 0, "n must be in"),
        ("m", 0, "m must be in"),
        ("instance_seed", True, "seed must be an integer"),
        ("instance_seed", [1], "seed must be an integer"),
        ("instance_seed", -3, "seed must be in"),
    ])
    def test_a_bad_count_in_the_report_names_the_path(self, tmp_path, key, value, message):
        path = self._edited(tmp_path, lambda p: p.update({key: value}))
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            load_instance_spec(path)

    @pytest.mark.parametrize("text", ["{not json", "[]", '{"manifest": {}}'])
    def test_malformed_report_names_the_path(self, tmp_path, text):
        path = tmp_path / "report.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(str(path))):
            load_instance_spec(tmp_path)
