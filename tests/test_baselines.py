import math
from types import SimpleNamespace

import numpy as np
import pytest

from adafd import (
    BudgetExhausted,
    ExperimentConfig,
    GradScheme,
    ImfilConfig,
    NelderMeadConfig,
    Objective,
    Oracle,
    RgConfig,
    ValidationError,
    default_imfil_scales,
    emit_csv,
    imfil_run,
    make_rosenbrock,
    nelder_mead_run,
    random_instance,
    rg_run,
    run_experiment,
    run_solver,
)
from adafd.baselines import SimplexState, nelder_mead_step
from adafd.driver import StepEvals

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

    def test_a_step_at_an_exhausted_budget_raises_budget_exhausted(self):
        cfg = NelderMeadConfig(x1=np.zeros(3), budget=4)
        oracle = Oracle(make_rosenbrock(3).objective, 0.0, 0)
        state = nelder_mead_step(SimplexState(0, cfg.x1, oracle.evaluate(cfg.x1)),
                                 StepEvals(oracle, cfg.budget), None, cfg)
        assert oracle.eval_count == 4
        evals = StepEvals(oracle, cfg.budget)
        with pytest.raises(BudgetExhausted):
            nelder_mead_step(state, evals, None, cfg)
        assert math.isnan(evals.low) and evals.cost == 0
        assert oracle.eval_count == 4

    @pytest.mark.parametrize("status", ["reflect", "expand", "contract_out", "contract_in",
                                        "shrink"])
    def test_a_step_leaves_its_input_state_as_it_was(self, status):
        n = 6
        objective = make_rosenbrock(n).objective
        cfg = NelderMeadConfig(x1=np.full(n, 0.5), budget=2000)
        oracle = Oracle(objective, 0.0, 0)
        state = nelder_mead_step(SimplexState(0, cfg.x1, oracle.evaluate(cfg.x1)),
                                 StepEvals(oracle, cfg.budget), None, cfg)
        while state.last_step != status:
            assert oracle.eval_count + n + 1 < cfg.budget, f"no {status} step"
            verts, fv = state.verts.copy(), state.fv.copy()
            new = nelder_mead_step(state, StepEvals(oracle, cfg.budget), None, cfg)
            assert state.verts.tobytes() == verts.tobytes()
            assert state.fv.tobytes() == fv.tobytes()
            assert not np.shares_memory(new.verts, state.verts)
            state = new

    def test_a_budget_below_the_simplex_truncates_like_every_solver(self, tmp_path):
        # the ledger cuts the initial simplex off at the budget, as it cuts any step
        report = nelder_mead_run(sphere_objective(3),
                                 NelderMeadConfig(x1=np.ones(3), budget=3))
        assert report.trace == [] and report.truncated
        assert report.evals == report.declared_evals == 3
        with pytest.raises(ValidationError, match="budget 3 too small to record"):
            run_experiment(ExperimentConfig(family="least_squares", n=3,
                                            solvers=["nelder-mead"], budget_multiplier=1,
                                            output_dir=tmp_path))

    @pytest.mark.parametrize("coefficients", [
        (1.0, 2.0, 0.5),  # too few
        (1.0, 2.0, 0.5, 0.5, 0.5),  # too many
        (1.0, 2.0, float("nan"), 0.5),
        (1.0, float("inf"), 0.5, 0.5),
        (0.0, 2.0, 0.5, 0.5),  # rho > 0
        (0.5, 1.0, 0.5, 0.5),  # chi > 1
        (3.0, 2.0, 0.5, 0.5),  # chi > rho
        (1.0, 2.0, 0.0, 0.5),  # 0 < psi < 1
        (1.0, 2.0, 1.0, 0.5),
        (1.0, 2.0, 0.5, 0.0),  # 0 < sigma < 1
        (1.0, 2.0, 0.5, 1.0),
    ])
    def test_bad_coefficients_fail_before_any_evaluation(self, coefficients):
        with pytest.raises(ValueError, match="coefficients"):
            NelderMeadConfig(x1=np.zeros(3), budget=50, coefficients=coefficients)
        calls = []
        obj = Objective(dim=3, evaluator=lambda x: calls.append(x) or 0.0)
        with pytest.raises(ValueError, match="coefficients"):
            run_solver("nelder-mead", SimpleNamespace(objective=obj), 50, 0.0, 0,
                       np.zeros(3), {"coefficients": coefficients})
        assert calls == []

    @pytest.mark.parametrize("coefficients", [(1.0, 2.0, 0.5, 0.5), [1, 2, 0.5, 0.25],
                                              (0.5, 1.5, 0.25, 0.9)])
    def test_coefficients_meeting_the_conditions_are_kept_as_given(self, coefficients):
        cfg = NelderMeadConfig(x1=np.zeros(3), budget=50, coefficients=coefficients)
        assert cfg.coefficients is coefficients


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

    @pytest.mark.parametrize("overrides", [{}, {"lipschitz": 50.0}], ids=["objective", "given"])
    def test_a_direct_run_and_run_solver_agree_on_the_constant(self, tmp_path, overrides):
        # without a configured L, rg_run takes the objective's, as run_solver does
        inst = random_instance("least_squares", n=4, m=6, seed=3)
        x0 = np.full(4, 0.5)
        direct = rg_run(inst.objective, RgConfig(x1=x0, budget=60, **overrides), 1e-3, 11)
        solver = run_solver("rg", inst, 60, 1e-3, 11, x0, overrides)
        emit_csv(direct.trace, tmp_path / "direct.csv")
        emit_csv(solver.trace, tmp_path / "solver.csv")
        assert (tmp_path / "direct.csv").read_bytes() == (tmp_path / "solver.csv").read_bytes()
        assert direct.config == solver.config
        L = overrides.get("lipschitz", inst.objective.lipschitz_grad_constant)
        assert direct.config["lipschitz"] == L
        # the step is not recorded: it follows from n and the recorded L
        assert direct.trace[0].tau == 1.0 / (4.0 * (4 + 4) * L) and "step" not in direct.config

    def test_missing_lipschitz_constant_fails_before_any_evaluation(self):
        calls = []
        obj = Objective(dim=2, evaluator=lambda x: calls.append(x) or 0.0)
        cfg = RgConfig(x1=np.zeros(2), budget=10)
        with pytest.raises(ValidationError, match="gradient-Lipschitz constant"):
            rg_run(obj, cfg)
        with pytest.raises(ValidationError, match="gradient-Lipschitz constant"):
            run_solver("rg", SimpleNamespace(objective=obj), 10, 0.0, 0, np.zeros(2))
        assert calls == []

    @pytest.mark.parametrize("smoothing", [0.0, -1e-6, float("inf"), float("nan")])
    def test_bad_smoothing_fails_before_any_evaluation(self, smoothing):
        with pytest.raises(ValueError, match="smoothing"):
            RgConfig(x1=np.zeros(2), budget=10, lipschitz=2.0, smoothing=smoothing)
        calls = []
        obj = Objective(dim=3, evaluator=lambda x: calls.append(x) or 0.0,
                        lipschitz_grad_fn=lambda: 2.0)
        with pytest.raises(ValueError, match="smoothing"):
            run_solver("rg", SimpleNamespace(objective=obj), 30, 0.0, 0, np.zeros(3),
                       {"smoothing": smoothing})
        assert calls == []

    @pytest.mark.parametrize("lipschitz", [0.0, -1.0, float("inf"), float("nan")])
    def test_bad_lipschitz_fails_before_any_evaluation(self, lipschitz):
        with pytest.raises(ValueError, match="lipschitz"):
            RgConfig(x1=np.zeros(2), budget=10, lipschitz=lipschitz)
        calls = []
        obj = Objective(dim=3, evaluator=lambda x: calls.append(x) or 0.0,
                        lipschitz_grad_fn=lambda: 2.0)
        with pytest.raises(ValueError, match="lipschitz"):
            run_solver("rg", SimpleNamespace(objective=obj), 30, 0.0, 0, np.zeros(3),
                       {"lipschitz": lipschitz})
        assert calls == []

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
