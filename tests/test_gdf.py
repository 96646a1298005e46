import json

import numpy as np
import pytest

from adafd import (
    DfbConfig,
    GdfConfig,
    GradScheme,
    NelderMeadConfig,
    build_instance,
    dfb_run,
    gdf_run,
)
from adafd.driver import config_dict

from conftest import sphere_objective


def example_rule(T=0.1, x_start=1.0):
    """Summable-stepsize rule driving the scalar quadratic to x_start / 2."""
    return lambda k, x, g: min(T, 0.25 - x_start / (8.0 * x[0]))


def test_zero_stepsizes_freeze_the_iterate():
    cfg = GdfConfig(x1=[0.7], budget=100, tau=0.0)
    report = gdf_run(sphere_objective(1), GradScheme.CENTRAL, cfg)
    assert all(x[0] == 0.7 for x in report.iterates)
    assert all(r.tau == 0.0 for r in report.trace)
    fs = {r.f_current for r in report.trace}
    assert len(fs) == 1  # identical points, identical noiseless values
    assert sum(r.tau for r in report.trace) == 0.0


def test_update_identity_is_exact():
    # recompute the stencil at the recorded radius: the run is noiseless and
    # deterministic, so x_next = x - tau * g must hold bitwise
    from adafd import Oracle, central_diff

    obj = sphere_objective(2)
    cfg = GdfConfig(x1=[0.9, -0.4], budget=400, tau=0.05, c_seq=1.0)
    report = gdf_run(obj, GradScheme.CENTRAL, cfg)
    for x, x_next, rec in zip(report.iterates, report.iterates[1:], report.trace):
        g = central_diff(Oracle(obj), x, rec.delta)
        assert np.array_equal(x_next, x - rec.tau * g)
        assert np.linalg.norm(x_next - x) == pytest.approx(
            rec.tau * rec.grad_norm_approx, rel=1e-12, abs=1e-15
        )


def test_negative_stepsize_rule_is_clamped_with_trace_flag():
    cfg = GdfConfig(x1=[1.0], budget=60, tau=lambda k, x, g: -1.0)
    report = gdf_run(sphere_objective(1), GradScheme.CENTRAL, cfg)
    assert all(r.step_status == "clamped" for r in report.trace)
    assert all(r.tau == 0.0 for r in report.trace)
    assert all(x[0] == 1.0 for x in report.iterates)


def test_schedule_exhaustion_stops_gracefully():
    cfg = GdfConfig(x1=[1.0], budget=10_000, tau=[0.1, 0.1, 0.1])
    report = gdf_run(sphere_objective(1), GradScheme.CENTRAL, cfg)
    assert report.termination == "schedule"
    assert len(report.trace) == 3
    cfg = GdfConfig(x1=[1.0], budget=10_000, tau=0.1, c_seq=[1.0, 1.0])
    report = gdf_run(sphere_objective(1), GradScheme.CENTRAL, cfg)
    assert report.termination == "schedule"
    assert len(report.trace) == 2


def test_step_one_acceptance_on_every_iteration():
    cfg = GdfConfig(x1=[2.0, 1.0], budget=600, tau=0.05)
    report = gdf_run(sphere_objective(2), GradScheme.CENTRAL, cfg)
    for rec in report.trace:
        if rec.step_status == "stopped":
            continue
        assert rec.grad_norm_approx > cfg.mu * rec.C * rec.delta


def test_summable_stepsizes_converge_to_a_nonstationary_point():
    # the rule tau_k = min(T, 1/4 - x1/(8 x_k)) keeps every iterate above
    # x1/2 and drives the sequence to exactly x1/2, a nonstationary point
    cfg = GdfConfig(x1=[1.0], budget=1 + 3 * 2000, tau=example_rule(),
                    nu_seq=None, delta1=0.1)
    report = gdf_run(sphere_objective(1), GradScheme.CENTRAL, cfg)
    xs = np.array([x[0] for x in report.iterates])
    assert np.all(xs > 0.5)
    assert np.all(np.diff(xs) <= 0)  # strictly decreasing until the float floor
    assert abs(xs[-1] - 0.5) <= 1e-3
    taus = np.array([r.tau for r in report.trace])
    assert np.all(np.cumsum(taus) <= 0.5 + 1e-6)
    assert 0.0 < sum(r.tau for r in report.trace) <= 0.5 + 1e-6  # summable


def test_constant_stepsize_near_minimizer_converges_locally():
    # constant tau below the stability threshold from a start near the
    # minimizer: gradient norm collapses and f matches the minimum value
    obj = sphere_objective(2)
    cfg = GdfConfig(x1=[0.3, -0.2], budget=2000, tau=0.1, c_seq=2.0)
    report = gdf_run(obj, GradScheme.CENTRAL, cfg)
    g_final = obj.analytic_gradient(report.final_x)
    assert np.linalg.norm(g_final) <= 1e-4
    assert abs(report.trace[-1].f_current - 0.0) <= 1e-6


def test_budget_accounting_includes_trace_probes():
    cfg = GdfConfig(x1=[1.0], budget=100, tau=0.05)
    report = gdf_run(sphere_objective(1), GradScheme.CENTRAL, cfg)
    assert report.evals == report.declared_evals
    # a recorded iteration costs (inner_steps + 1) stencil calls plus one
    # probe: always an odd increment of at least 3 for this 1-D problem
    increments = np.diff([1] + [r.evals for r in report.trace])
    assert np.all(increments >= 3)
    assert np.all(increments % 2 == 1)


def test_stationary_stop_records_the_iterate_value():
    # from the minimizer every estimate is zero, so the search exhausts at once
    report = gdf_run(sphere_objective(2), GradScheme.CENTRAL,
                     GdfConfig(x1=[0.0, 0.0], budget=1000))
    assert report.termination == "stationary"
    assert report.trace[-1].step_status == "stopped"
    assert report.trace[-1].f_current == 0.0


def test_constant_schedules_accept_numpy_scalars():
    obj = sphere_objective(2)
    for field, value in (("tau", np.float32(0.1)), ("c_seq", np.int64(2))):
        runs = [gdf_run(obj, GradScheme.CENTRAL,
                        GdfConfig(x1=[0.3, -0.2], budget=200, **{field: v}))
                for v in (value, value.item())]
        assert runs[0].trace == runs[1].trace
        assert runs[0].config[field] == value.item()
    report = dfb_run(obj, GradScheme.FORWARD,
                     DfbConfig(x1=[0.3, -0.2], budget=200, nu=np.float32(0.05)))
    assert report.termination == "budget"
    assert report.config["nu"] == np.float32(0.05).item()
    json.dumps(report.config)  # report.json must be able to hold it
    default = dfb_run(obj, GradScheme.FORWARD, DfbConfig(x1=[0.3, -0.2], budget=200))
    assert default.config["nu"] is None  # DFB's harmonic default, as configured


@pytest.mark.parametrize("config, settings, rejected", [
    (GdfConfig, {"c_seq": 0.0}, "c_seq"),
    (GdfConfig, {"c_seq": [1.0, -1.0]}, "c_seq"),
    (GdfConfig, {"c_seq": np.inf}, "c_seq"),
    (GdfConfig, {"nu_seq": -0.1}, "nu_seq"),
    (GdfConfig, {"nu_seq": [0.1, np.nan]}, "nu_seq"),
    (GdfConfig, {"tau": np.nan}, "tau"),
    (GdfConfig, {"tau": np.array([0.1, np.inf])}, "tau"),
    (DfbConfig, {"nu": 0.0}, "nu"),
    (DfbConfig, {"nu": [0.1, -1.0]}, "nu"),
    (DfbConfig, {"nu": np.inf}, "nu"),
    # GDF clamps a negative stepsize, and a rule is checked where it is used
    (GdfConfig, {"tau": [0.1, -1.0], "c_seq": np.int64(2)}, None),
    (GdfConfig, {"tau": lambda k, x, g: -1.0, "c_seq": lambda k: 0.0}, None),
    (DfbConfig, {"nu": lambda k: 0.0}, None),
])
def test_a_bad_schedule_entry_is_rejected_when_the_config_is_built(config, settings, rejected):
    if rejected is None:
        config(x1=[1.0, 1.0], budget=100, **settings)
        return
    with pytest.raises(ValueError, match=f"every entry of {rejected} must be"):
        config(x1=[1.0, 1.0], budget=100, **settings)


def test_config_records_number_sequences_as_lists_and_rules_as_custom():
    cfg = GdfConfig(x1=[0.3, -0.2], budget=10, tau=np.array([0.1, 0.05]), c_seq=(1, 2),
                    nu_seq=lambda k: 0.1 / k)
    config = config_dict(cfg)
    assert config["tau"] == [0.1, 0.05]
    assert config["c_seq"] == [1.0, 2.0] and all(type(v) is float for v in config["c_seq"])
    assert config["nu_seq"] == "custom"
    json.dumps(config)
    # exactly the settings: the solver id and scheme are the run's, not the config's
    assert list(config) == ["delta1", "theta", "mu", "i_max", "c_seq", "tau", "nu_seq"]
    assert list(config_dict(NelderMeadConfig(x1=[0.0], budget=2))) == ["coefficients"]


def test_diverged_run_stops_at_the_float_spacing_of_its_iterate():
    # the iterate diverges to max |x| ~ 4.4e19; its last interval search used to
    # run on to i_max (486 evaluations in all), past intervals that move no coordinate
    inst = build_instance("rosenbrock", 5)
    cfg = GdfConfig(x1=np.zeros(5), budget=1000, tau=0.01, c_seq=2)
    report = gdf_run(inst.objective, GradScheme.FORWARD, cfg)
    last = report.trace[-1]
    assert report.termination == "stationary" and last.step_status == "stopped"
    assert report.evals == report.declared_evals < 486
    x = report.final_x
    assert np.all(x + last.delta == x)
    assert not np.all(x + last.delta / cfg.theta == x)


@pytest.mark.parametrize("tau, scheme, evals", [
    (10.0, GradScheme.FORWARD, 49), (10.0, GradScheme.CENTRAL, 61),
    (3.0, GradScheme.FORWARD, 89), (3.0, GradScheme.CENTRAL, 111),
], ids=["tau10-fordif", "tau10-cendif", "tau3-fordif", "tau3-cendif"])
def test_a_stop_that_costs_nothing_repeats_the_previous_evals(tau, scheme, evals):
    # the iterate diverges to |x| ~ 1e15, where delta1 = 0.1 moves no
    # coordinate, so the last interval search stops before its first stencil;
    # the run still records that stop, at the evaluations of the record before
    cfg = GdfConfig(x1=[1.0, 1.0], budget=1000, tau=tau)
    report = gdf_run(sphere_objective(2), scheme, cfg)
    *earlier, last = report.trace
    assert report.termination == "stationary" and last.step_status == "stopped"
    assert last.evals == earlier[-1].evals == evals
    assert report.evals == report.declared_evals
    counts = [1] + [r.evals for r in earlier]
    assert all(a < b for a, b in zip(counts, counts[1:]))
