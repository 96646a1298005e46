"""Every numeric solver parameter lies in an open interval, through one rule
(``driver.check_between``), so NaN and +-inf are always rejected."""

import math

import numpy as np
import pytest

from adafd import (
    DfbConfig,
    DfcConfig,
    ExperimentConfig,
    GdfConfig,
    GradScheme,
    ImfilConfig,
    LEAST_SQUARES,
    NelderMeadConfig,
    Objective,
    Oracle,
    ROSENBROCK,
    RgConfig,
    ValidationError,
    adaptive_gradient,
    backtrack,
    central_diff,
    dfb_run,
    dfc_run,
    fd_error_bound,
    forward_diff,
    gdf_run,
    run_experiment,
)
from adafd import driver, harness, oracle
from adafd.driver import StepEvals, check_between, check_count, settings
from adafd.gradapprox import SearchConfig

from conftest import sphere_objective

#: The open interval of every float field; t_min1's upper end is the default tau_bar.
BOUNDS = {
    "delta1": (0.0, math.inf), "theta": (0.0, 1.0), "mu": (2.0, math.inf),
    "c1": (0.0, math.inf), "r": (1.0, math.inf), "kappa": (0.0, math.inf),
    "eta": (1.0, math.inf), "beta": (0.0, 0.5), "gamma": (0.0, 1.0),
    "tau_bar": (0.0, math.inf), "t_min1": (0.0, 1.0),
    "armijo": (0.0, 1.0), "ls_gamma": (0.0, 1.0),
    "lipschitz": (0.0, math.inf), "smoothing": (0.0, math.inf),
}
FLOAT_FIELDS = [(cls, f.name)
                for cls in (SearchConfig, DfcConfig, DfbConfig, ImfilConfig, RgConfig)
                for f in settings(cls) if f.type in ("float", "Optional[float]")]


def build(cls, **changes):
    return cls(x1=np.zeros(2), budget=10, **changes)


@pytest.mark.parametrize("cls, name", FLOAT_FIELDS,
                         ids=[f"{cls.__name__}.{name}" for cls, name in FLOAT_FIELDS])
def test_every_float_field_rejects_nan_infinities_and_its_bounds(cls, name):
    build(cls)
    low, high = BOUNDS[name]
    bad = [math.nan, math.inf, -math.inf, low] + ([high] if high < math.inf else [])
    for value in bad:
        with pytest.raises(ValueError, match=f"{name} must be in "):
            build(cls, **{name: value})


def test_the_rule_names_the_interval_and_the_value():
    with pytest.raises(ValueError, match=r"^mu must be in \(2, inf\), got nan$"):
        check_between("mu", math.nan, 2.0)
    with pytest.raises(ValueError, match=r"^tau_k must be in \(-inf, inf\), got inf$"):
        check_between("tau_k", math.inf, -math.inf)
    check_between("theta", 0.5, 0.0, 1.0)


def test_the_rules_raise_the_one_validation_error():
    # a ValueError, so every caller that catches one is unchanged
    assert (ValidationError is driver.ValidationError is harness.ValidationError
            is oracle.ValidationError)
    assert issubclass(ValidationError, ValueError)
    with pytest.raises(ValidationError):
        check_between("theta", 1.0, 0.0, 1.0)
    with pytest.raises(ValidationError):
        check_count("i_max", 2.5, 0)


@pytest.mark.parametrize("coefficients, message", [
    ((0.0, 2.0, 0.5, 0.5), r"reflection rho must be in \(0, inf\), got 0.0"),
    ((0.5, 1.0, 0.5, 0.5), r"expansion chi must be in \(1, inf\), got 1.0"),
    ((3.0, 2.0, 0.5, 0.5), r"expansion chi must be in \(3, inf\), got 2.0"),
    ((1.0, 2.0, math.nan, 0.5), r"contraction psi must be in \(0, 1\), got nan"),
    ((1.0, 2.0, 0.5, 1.0), r"shrink sigma must be in \(0, 1\), got 1.0"),
])
def test_nelder_mead_coefficients_go_through_the_rule(coefficients, message):
    # Lagarias, Reeds, Wright and Wright (1998): rho > 0, chi > max(1, rho),
    # 0 < psi < 1 and 0 < sigma < 1
    with pytest.raises(ValidationError, match=f"^coefficients: {message}$"):
        NelderMeadConfig(x1=np.zeros(2), budget=10, coefficients=coefficients)


@pytest.mark.parametrize("max_backtracks", [0, -1])
def test_imfil_needs_at_least_one_backtrack(max_backtracks):
    with pytest.raises(ValueError, match="max_backtracks must be in"):
        build(ImfilConfig, max_backtracks=max_backtracks)
    build(ImfilConfig, max_backtracks=1)


@pytest.mark.parametrize("scale", [math.nan, math.inf, 0.0, -1.0])
def test_imfil_rejects_a_scale_outside_its_range(scale):
    with pytest.raises(ValueError, match="imfil scale must be in"):
        build(ImfilConfig, scales=[scale])


def _oracle():
    return Oracle(sphere_objective(2), 0.0, 0)


def _evals():
    return StepEvals(_oracle(), math.inf)


#: The search and linesearch parameters the function-argument tests run with.
SEARCH = SearchConfig(x1=np.zeros(2), budget=10)
LS = DfbConfig(x1=np.zeros(2), budget=10)


@pytest.mark.parametrize("name, call", [
    ("sampling interval", lambda v: forward_diff(_oracle(), np.ones(2), v)),
    ("sampling interval", lambda v: central_diff(_oracle(), np.ones(2), v)),
    ("lipschitz_const", lambda v: fd_error_bound(v, 2, 0.1)),
    ("delta", lambda v: fd_error_bound(2.0, 2, v)),
    ("delta_k", lambda v: adaptive_gradient(_evals(), GradScheme.FORWARD, np.ones(2),
                                            v, 1.0, SEARCH)),
    ("nu_k", lambda v: adaptive_gradient(_evals(), GradScheme.FORWARD, np.ones(2),
                                         0.1, 1.0, SEARCH, nu_k=v)),
    ("t_min", lambda v: backtrack(_evals(), np.ones(2), np.ones(2), 2.0, LS, v)),
])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0])
def test_function_arguments_reject_nan_infinities_and_zero(name, call, value):
    with pytest.raises(ValueError, match=f"{name} must be in "):
        call(value)


@pytest.mark.parametrize("value", [math.nan, 0.0, -1.0])
def test_c_k_must_be_positive(value):
    with pytest.raises(ValueError, match="c_k must be positive"):
        adaptive_gradient(_evals(), GradScheme.FORWARD, np.ones(2), 0.1, value, SEARCH)


def test_an_infinite_c_k_is_an_exhausted_search_not_an_error():
    res = adaptive_gradient(_evals(), GradScheme.FORWARD, np.ones(2), 0.1, math.inf,
                            SearchConfig(x1=np.zeros(2), budget=10, i_max=3))
    assert res.exhausted and res.inner_steps == 3


def _counting_sphere(calls):
    return Objective(dim=2, evaluator=lambda x: calls.append(x) or float(x @ x))


@pytest.mark.parametrize("run, cfg, message", [
    (gdf_run, lambda rule: GdfConfig(x1=np.ones(2), budget=100, c_seq=rule), "c_k must be"),
    (dfb_run, lambda rule: DfbConfig(x1=np.ones(2), budget=100, nu=rule), "nu_k must be in"),
], ids=["gdf-c_seq", "dfb-nu"])
def test_a_rule_returning_nan_before_the_search_fails_at_the_first_step(run, cfg, message):
    calls, ks = [], []
    rule = lambda k: ks.append(k) or math.nan
    with pytest.raises(ValueError, match=message):
        run(_counting_sphere(calls), GradScheme.FORWARD, cfg(rule))
    assert ks == [1]
    assert len(calls) == 1  # x1 only: no stencil ran


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_a_non_finite_gdf_stepsize_fails_where_it_is_used(value):
    calls, ks = [], []
    tau = lambda k, x, g: ks.append(k) or value
    cfg = GdfConfig(x1=np.ones(2), budget=100, tau=tau)
    with pytest.raises(ValueError, match="tau_k must be in"):
        gdf_run(_counting_sphere(calls), GradScheme.FORWARD, cfg)
    assert ks == [1]
    assert len(calls) == 1 + 3  # x1 and one forward stencil; x never moved


def test_dfc_escalation_to_an_infinite_proxy_stays_legal():
    # C grows by r = 1000 on every rejected step and overflows to +inf; the
    # search at C = inf can no longer accept, so the run stops stationary.
    def f(x):
        return math.nan if not x.any() else float(x @ x + 1e10 * x.sum())

    cfg = DfcConfig(x1=np.zeros(3), budget=40000, r=1000.0)
    report = dfc_run(Objective(dim=3, evaluator=f), GradScheme.CENTRAL, cfg)
    assert report.termination == "stationary"
    assert report.final_C == math.inf
    assert (report.evals, len(report.trace)) == (6980, 104)


@pytest.mark.parametrize("family, solvers, error", [
    (LEAST_SQUARES, ["dfc-fordif", ("dfb-fordif", {"beta": 0.9})], ValueError),
    (ROSENBROCK, ["dfc-fordif", "rg"], ValidationError),
], ids=["bad-override", "rg-without-lipschitz"])
def test_a_request_that_fails_partway_writes_no_output(tmp_path, family, solvers, error):
    out = tmp_path / "out"
    with pytest.raises(error):
        run_experiment(ExperimentConfig(family=family, n=4, solvers=solvers,
                                        output_dir=out))
    assert out.is_dir() and list(out.iterdir()) == []


#: Every integer count of a config and the classes that hold it.
COUNTS = [(cls, "budget") for cls in (DfcConfig, DfbConfig, GdfConfig, ImfilConfig, RgConfig)]
COUNTS += [(cls, "i_max") for cls in (DfcConfig, DfbConfig, GdfConfig)]
COUNTS += [(ImfilConfig, "max_backtracks")]


def build_count(cls, name, value):
    return cls(**{"x1": np.zeros(2), "budget": 10, name: value})


@pytest.mark.parametrize("cls, name", COUNTS,
                         ids=[f"{cls.__name__}.{name}" for cls, name in COUNTS])
def test_every_count_is_an_integer_when_the_config_is_built(cls, name):
    for value in (2.5, True, math.nan, math.inf, -math.inf, 3.0):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            build_count(cls, name, value)
    cfg = build_count(cls, name, np.int64(7))
    assert getattr(cfg, name) == 7
    least = 0 if name == "budget" else 1  # a budget of 0 runs x1 alone
    build_count(cls, name, least)
    with pytest.raises(ValueError, match=f"^{name} must be in \\({least - 1}, inf\\), got "):
        build_count(cls, name, least - 1)
