import numpy as np
import pytest

from adafd import (
    GradScheme,
    ImfilConfig,
    NelderMeadConfig,
    Objective,
    RgConfig,
    ValidationError,
    default_imfil_scales,
    imfil_run,
    nelder_mead_run,
    random_instance,
    rg_run,
    run_solver,
)

from conftest import constant_objective, linear_objective, sphere_objective


class TestNelderMead:
    def test_quadratic_reaches_tight_floor(self):
        cfg = NelderMeadConfig(x1=np.array([1.0, 1.0]), budget=400)
        report = nelder_mead_run(sphere_objective(2), cfg)
        assert report.best_f <= 1e-4
        assert report.evals == report.declared_evals
        fb = [r.f_best for r in report.trace]
        assert all(b <= a for a, b in zip(fb, fb[1:]))

    def test_constant_function_shrinks_without_improvement(self):
        cfg = NelderMeadConfig(x1=np.zeros(2), budget=100)
        report = nelder_mead_run(constant_objective(2, 4.0), cfg)
        assert report.best_f == 4.0
        assert all(r.f_best == 4.0 for r in report.trace)
        assert any(r.step_status == "shrink" for r in report.trace)

    def test_budget_equal_to_initial_simplex_returns_best_vertex(self):
        obj = sphere_objective(3)
        cfg = NelderMeadConfig(x1=np.ones(3), budget=4)
        report = nelder_mead_run(obj, cfg)
        assert len(report.trace) == 1  # only the initialization record
        assert report.evals == 4
        # best vertex among x1 and the three axis displacements of 0.05
        assert report.best_f == pytest.approx(3.0)

    def test_a_nan_start_value_does_not_make_x1_the_best_vertex(self):
        # f = x.x + sum(x) is NaN only at x1 = 0; the three other vertices tie
        obj = Objective(dim=3, evaluator=lambda x: float(x @ x + x.sum()) if x.any()
                        else float("nan"))
        report = nelder_mead_run(obj, NelderMeadConfig(x1=np.zeros(3), budget=4))
        assert report.final_x.tolist() == [0.05, 0.0, 0.0]
        assert report.trace[0].f_current == report.best_f == obj.evaluator(report.final_x)

    def test_budget_below_simplex_is_rejected(self):
        with pytest.raises(ValueError):
            nelder_mead_run(sphere_objective(3),
                            NelderMeadConfig(x1=np.ones(3), budget=3))


class TestImplicitFiltering:
    def test_quadratic_with_dyadic_scales(self):
        cfg = ImfilConfig(
            x1=np.array([1.0, 1.0]), budget=400,
            scales=[2.0**-j for j in range(11)],
        )
        report = imfil_run(sphere_objective(2), GradScheme.FORWARD, cfg)
        assert report.best_f <= 1e-3
        assert report.evals == report.declared_evals

    def test_single_scale_with_immediate_stencil_failure_ends_run(self):
        # the central estimate of the sphere vanishes at the origin, so the
        # very first stencil fails and the one-scale schedule is exhausted
        cfg = ImfilConfig(x1=np.zeros(2), budget=100, scales=[8.0])
        report = imfil_run(sphere_objective(2), GradScheme.CENTRAL, cfg)
        assert report.termination == "schedule"
        assert len(report.trace) == 1
        assert report.trace[0].step_status == "stencil_fail"
        assert report.evals == 1 + 4  # initial value plus one stencil

    def test_noiseless_linear_objective_descends_monotonically(self, rng):
        c = rng.standard_normal(3)
        cfg = ImfilConfig(x1=np.zeros(3), budget=200)
        report = imfil_run(linear_objective(c), GradScheme.FORWARD, cfg)
        fs = [r.f_current for r in report.trace]
        assert all(b < a for a, b in zip(fs, fs[1:]))
        assert all(r.step_status == "accepted" for r in report.trace)
        assert report.termination == "budget"

    def test_scales_consumed_in_order(self):
        cfg = ImfilConfig(x1=np.array([2.0, -1.0]), budget=600)
        report = imfil_run(sphere_objective(2), GradScheme.CENTRAL, cfg)
        hs = [r.delta for r in report.trace]
        assert all(b <= a for a, b in zip(hs, hs[1:]))
        used = sorted(set(hs), reverse=True)
        assert used == [h for h in default_imfil_scales() if h in set(hs)]

    def test_scale_sequence_validation(self):
        with pytest.raises(ValueError):
            ImfilConfig(x1=np.zeros(2), budget=10, scales=[])
        with pytest.raises(ValueError):
            ImfilConfig(x1=np.zeros(2), budget=10, scales=[0.5, 0.5])


class TestRandomGradientFree:
    def test_quadratic_seed_pinned(self):
        cfg = RgConfig(x1=np.array([1.0, 1.0]), budget=400,
                       lipschitz=2.0, smoothing=1e-6)
        report = rg_run(sphere_objective(2), cfg, seed=7)
        assert report.best_f <= 1e-1
        assert report.evals == report.declared_evals
        # two evaluations per recorded iteration on top of the initial one,
        # plus at most one probe from a truncated final iteration
        assert report.evals - (1 + 2 * len(report.trace)) in (0, 1)

    def test_estimator_is_unbiased_in_the_smoothing_limit(self):
        # E[<c, u> u] = c when u is standard normal; check the sample mean
        rng = np.random.default_rng(123)
        c = np.array([1.0, -2.0, 0.5])
        draws = rng.standard_normal((10_000, 3))
        sample = (draws @ c)[:, None] * draws
        mean = sample.mean(axis=0)
        assert np.linalg.norm(mean - c) <= 0.05 * np.linalg.norm(c)

    def test_missing_lipschitz_constant_fails_before_any_evaluation(self):
        with pytest.raises(ValueError):
            RgConfig(x1=np.zeros(2), budget=10)

    def test_runs_are_seed_reproducible(self):
        cfg = RgConfig(x1=np.ones(2), budget=100, lipschitz=2.0)
        a = rg_run(sphere_objective(2), cfg, noise_level=1e-3, seed=5)
        b = rg_run(sphere_objective(2), cfg, noise_level=1e-3, seed=5)
        assert a.best_f == b.best_f
        assert np.array_equal(a.final_x, b.final_x)


def test_unknown_solver_id_rejected():
    with pytest.raises(ValidationError):
        run_solver("genetic", random_instance("least_squares", n=2, seed=0), 10, 0.0, 0,
                   np.zeros(2))
