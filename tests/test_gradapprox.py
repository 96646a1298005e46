import numpy as np
import pytest

from adafd import (
    BudgetExhausted,
    DfbConfig,
    DfcConfig,
    GdfConfig,
    GradScheme,
    Objective,
    Oracle,
    adaptive_gradient,
    central_diff,
    fd_error_bound,
    forward_diff,
    make_least_squares,
)

from conftest import (constant_objective, cusp_objective, linear_objective, looping_stencil,
                      sphere_objective)


def test_forward_on_scalar_quadratic():
    oracle = Oracle(sphere_objective(1))
    g = forward_diff(oracle, np.array([1.0]), 0.1)
    # ((1.1)^2 - 1) / 0.1 analytically
    assert g[0] == pytest.approx(2.1, rel=1e-12)
    assert oracle.eval_count == 2


def test_forward_exact_on_affine_functions(rng):
    c = rng.standard_normal(6)
    oracle = Oracle(linear_objective(c))
    for delta in (2.0, 1.0, 1e-3):
        x = rng.standard_normal(6)
        g = forward_diff(oracle, x, delta)
        assert np.allclose(g, c, rtol=1e-9, atol=1e-10)


def test_central_exact_on_scalar_quadratic_any_interval():
    oracle = Oracle(sphere_objective(1))
    for x0 in (-3.0, 0.7, 2.5):
        for delta in (2.0, 0.1, 1e-5):
            g = central_diff(oracle, np.array([x0]), delta)
            assert g[0] == pytest.approx(2.0 * x0, rel=1e-9, abs=1e-9)


def test_eval_costs_are_exact():
    n = 7
    oracle = Oracle(sphere_objective(n))
    forward_diff(oracle, np.zeros(n), 0.5)
    assert oracle.eval_count == n + 1 == GradScheme.FORWARD.evals_per_call(n)
    oracle.reset_counter()
    central_diff(oracle, np.zeros(n), 0.5)
    assert oracle.eval_count == 2 * n == GradScheme.CENTRAL.evals_per_call(n)


def test_nonpositive_interval_rejected():
    oracle = Oracle(sphere_objective(1))
    for delta in (0.0, -1.0):
        with pytest.raises(ValueError):
            forward_diff(oracle, np.zeros(1), delta)
        with pytest.raises(ValueError):
            central_diff(oracle, np.zeros(1), delta)


def test_cusp_function_differences_at_origin():
    # f(x) = (2/3) sqrt(x^3): direct evaluation of the two stencils at 0 gives
    # forward (f(d) - f(0)) / d = (2/3) sqrt(d) and central
    # (f(d) - f(-d)) / (2d) = (4/3) d^(3/2) / (2d) = (2/3) sqrt(d).
    obj = cusp_objective()
    for delta in (1e-2, 1e-4, 1e-6):
        expected = 2.0 * np.sqrt(delta) / 3.0
        fwd = forward_diff(Oracle(obj), np.zeros(1), delta)[0]
        cen = central_diff(Oracle(obj), np.zeros(1), delta)[0]
        assert fwd == pytest.approx(expected, rel=1e-8)
        assert cen == pytest.approx(expected, rel=1e-8)


def test_cusp_ratio_grows_without_bound():
    obj = cusp_objective()
    ratios = []
    for delta in (1e-2, 1e-4, 1e-6):
        g = forward_diff(Oracle(obj), np.zeros(1), delta)[0]
        ratios.append(g / delta)
    # d -> d/100 multiplies g/d by 10: at least 3x growth per decade
    assert ratios[1] >= 3.0**2 * ratios[0]
    assert ratios[2] >= 3.0**2 * ratios[1]


def test_central_matches_analytic_gradient_on_least_squares(rng):
    A = rng.standard_normal((8, 5))
    b = rng.standard_normal(8)
    inst = make_least_squares(A, b)
    oracle = Oracle(inst.objective)
    for _ in range(10):
        x = rng.standard_normal(5)
        g = central_diff(oracle, x, 1e-3)
        exact = inst.objective.analytic_gradient(x)
        assert np.linalg.norm(g - exact) <= 1e-9 * max(np.linalg.norm(exact), 1.0)


def test_error_bound_formula():
    assert fd_error_bound(2.0, 4, 0.1) == pytest.approx(0.2)
    assert fd_error_bound(1.0, 1, 1e-12) == pytest.approx(5e-13)
    with pytest.raises(ValueError):
        fd_error_bound(0.0, 1, 0.1)
    with pytest.raises(ValueError):
        fd_error_bound(1.0, 1, 0.0)


def test_error_bound_holds_empirically_on_least_squares(rng):
    A = np.random.default_rng(42).standard_normal((20, 10))
    b = np.random.default_rng(43).standard_normal(20)
    inst = make_least_squares(A, b)
    L = inst.objective.lipschitz_grad_constant
    oracle = Oracle(inst.objective)
    for _ in range(100):
        x = rng.standard_normal(10)
        delta = float(10.0 ** rng.uniform(-6, 0))
        exact = inst.objective.analytic_gradient(x)
        cushion = 1e-9 * (1.0 + np.linalg.norm(exact))
        bound = fd_error_bound(L, 10, delta) + cushion
        for fn in (forward_diff, central_diff):
            err = np.linalg.norm(fn(oracle, x, delta) - exact)
            assert err <= bound


def test_adaptive_search_hand_simulated_quadratic():
    # f(x) = x^2 at x = 1 with central differences: g = 2 at every interval.
    # i = 0: 2 > 4*1*1 fails; i = 1: 2 > 2 fails (strict); i = 2: 2 > 1 holds.
    oracle = Oracle(sphere_objective(1))
    res = adaptive_gradient(
        oracle, GradScheme.CENTRAL, np.array([1.0]), delta_k=1.0, c_k=1.0,
        mu=4.0, theta=0.5,
    )
    assert not res.exhausted
    assert res.inner_steps == 2
    assert res.delta_next == pytest.approx(0.25)
    assert res.g[0] == pytest.approx(2.0, rel=1e-12)
    assert oracle.eval_count == 3 * GradScheme.CENTRAL.evals_per_call(1)


def test_adaptive_search_exhausts_on_constant_function():
    oracle = Oracle(constant_objective(2))
    res = adaptive_gradient(
        oracle, GradScheme.FORWARD, np.zeros(2), delta_k=1.0, c_k=1.0,
        mu=4.0, theta=0.5, i_max=10,
    )
    assert res.exhausted
    assert res.inner_steps == 10
    assert np.all(res.g == 0.0)
    assert oracle.eval_count == 11 * 3


def test_accepted_result_satisfies_norm_test(rng):
    mu, theta = 4.0, 0.5
    for _ in range(25):
        dim = int(rng.integers(1, 5))
        x = rng.standard_normal(dim) + 0.5
        c_k = float(10.0 ** rng.uniform(-2, 1))
        delta_k = float(10.0 ** rng.uniform(-3, 0.5))
        oracle = Oracle(sphere_objective(dim))
        res = adaptive_gradient(oracle, GradScheme.CENTRAL, x, delta_k, c_k, mu, theta)
        assert res.g_norm == float(np.linalg.norm(res.g))
        assert res.cost == oracle.eval_count
        if res.exhausted:
            continue
        assert np.linalg.norm(res.g) > mu * c_k * res.delta_next
        assert res.delta_next == pytest.approx(theta**res.inner_steps * delta_k)
        assert res.delta_next <= delta_k


_BAD_SEARCH_FIELDS = [{"budget": -1}, {"delta1": 0.0}, {"theta": 0.0}, {"theta": 1.0},
                      {"mu": 2.0}, {"i_max": 0}]


@pytest.mark.parametrize("config, bad", [
    *((config, bad) for config in (DfcConfig, DfbConfig, GdfConfig) for bad in _BAD_SEARCH_FIELDS),
    (DfcConfig, {"c1": 0.0}),
    (DfbConfig, {"c1": 0.0}),
])
def test_every_solver_config_rejects_bad_search_parameters(config, bad):
    with pytest.raises(ValueError):
        config(**{"x1": [1.0], "budget": 10, **bad})
    assert config(x1=[1, 2], budget=10).x1.dtype == np.float64


def test_returned_index_is_minimal(rng):
    # whenever i_k >= 1, the estimate at the previous interval must fail the test
    mu, theta = 4.0, 0.5
    for _ in range(25):
        dim = int(rng.integers(1, 4))
        x = rng.standard_normal(dim)
        delta_k = float(10.0 ** rng.uniform(-2, 1))
        c_k = float(10.0 ** rng.uniform(-1, 1))
        res = adaptive_gradient(
            Oracle(sphere_objective(dim)), GradScheme.CENTRAL, x, delta_k, c_k,
            mu, theta,
        )
        if res.exhausted or res.inner_steps == 0:
            continue
        i_prev = res.inner_steps - 1
        g_prev = central_diff(Oracle(sphere_objective(dim)), x, theta**i_prev * delta_k)
        assert np.linalg.norm(g_prev) <= mu * c_k * theta**i_prev * delta_k


def test_nu_caps_the_probe_interval_but_not_the_threshold():
    # f(x) = x^3 has central difference 3 x^2 + interval^2: the interval leaks
    # into the estimate, so a nu cap below theta^i delta_k is observable.
    obj_cubic = lambda x: float(x[0] ** 3)
    from adafd import Objective

    obj = Objective(dim=1, evaluator=obj_cubic)
    res = adaptive_gradient(
        Oracle(obj), GradScheme.CENTRAL, np.array([2.0]), delta_k=1.0, c_k=1.0,
        mu=4.0, theta=0.5, nu_k=0.125,
    )
    assert not res.exhausted
    assert res.inner_steps == 0  # 12 + nu^2 > 4 * 1 * 1 already at i = 0
    assert res.delta_next == pytest.approx(1.0)  # theta^0 * delta_k, not the nu cap
    assert res.g[0] == pytest.approx(12.0 + 0.125**2, rel=1e-10)
    with pytest.raises(ValueError):
        adaptive_gradient(Oracle(obj), GradScheme.CENTRAL, np.array([2.0]),
                          delta_k=1.0, c_k=1.0, mu=4.0, theta=0.5, nu_k=0.0)


def test_search_stops_before_an_interval_that_moves_no_coordinate():
    # from x = 1 the interval 2**-i stops moving x once it is below half the
    # spacing of 1.0; every stencil before that ran, none after
    oracle = Oracle(constant_objective(2))
    x = np.ones(2)
    res = adaptive_gradient(oracle, GradScheme.FORWARD, x, delta_k=1.0, c_k=1.0,
                            mu=4.0, theta=0.5)
    assert res.exhausted
    assert res.inner_steps < 60
    assert res.cost == oracle.eval_count == (res.inner_steps + 1) * 3
    assert np.any(x + 0.5**res.inner_steps != x)
    assert np.all(x + 0.5 ** (res.inner_steps + 1) == x)
    assert res.g_norm == 0.0


@pytest.mark.parametrize("scheme", list(GradScheme))
def test_search_far_out_runs_no_stencil(scheme):
    oracle = Oracle(sphere_objective(3))
    res = adaptive_gradient(oracle, scheme, np.full(3, 1e20), delta_k=0.1, c_k=1.0,
                            mu=4.0, theta=0.5, budget=10_000)
    assert res.exhausted
    assert (res.cost, res.inner_steps, oracle.eval_count) == (0, 0, 0)
    assert res.g.shape == (3,) and np.all(np.isnan(res.g))
    assert np.isnan(res.g_norm)


def test_budget_exhaustion_mid_search_signals_partial_state():
    oracle = Oracle(constant_objective(3))
    with pytest.raises(BudgetExhausted) as info:
        adaptive_gradient(
            oracle, GradScheme.FORWARD, np.zeros(3), delta_k=1.0, c_k=1.0,
            mu=4.0, theta=0.5, budget=6,
        )
    # attempts start while the count is under budget: two full forward calls
    # (4 evals each) complete, the third is refused at count 8 >= 6
    assert oracle.eval_count == 8
    assert info.value.declared_cost == 8
    # stencil values are neither iterate nor candidate values
    assert isinstance(info.value.partial, float) and np.isnan(info.value.partial)


def _forward_per_point(oracle, x, delta):
    f0 = oracle.evaluate(x)
    g = np.empty(x.shape[0])
    for i in range(x.shape[0]):
        xp = x.copy()
        xp[i] += delta
        g[i] = (oracle.evaluate(xp) - f0) / delta
    return g


def _central_per_point(oracle, x, delta):
    g = np.empty(x.shape[0])
    for i in range(x.shape[0]):
        xp = x.copy()
        xp[i] += delta
        xm = x.copy()
        xm[i] -= delta
        g[i] = (oracle.evaluate(xp) - oracle.evaluate(xm)) / (2.0 * delta)
    return g


@pytest.mark.parametrize("n", [1, 5, 32, 33, 64, 65, 150])
@pytest.mark.parametrize("hook", [True, False])
def test_block_stencils_match_one_call_per_point_bitwise(n, hook):
    """Across block boundaries every noise draw still lands on its own point."""
    from dataclasses import replace

    from adafd import make_rosenbrock

    obj = make_rosenbrock(n).objective if n > 1 else sphere_objective(1)
    obj = looping_stencil(obj) if hook else replace(obj, stencil_evaluator=None)
    x = np.random.default_rng(n).uniform(-1.0, 1.0, obj.dim)
    for stencil, reference in ((forward_diff, _forward_per_point),
                               (central_diff, _central_per_point)):
        new = Oracle(obj, noise_level=1e-4, rng_seed=n)
        ref = Oracle(obj, noise_level=1e-4, rng_seed=n)
        assert stencil(new, x, 1e-3).tolist() == reference(ref, x, 1e-3).tolist()
        assert new.eval_count == ref.eval_count
        assert new.evaluate(x) == ref.evaluate(x)


def _tiled_stencil(scheme, x, delta):
    """The whole stencil's points in evaluation order, as np.tile and fancy
    indexing build them."""
    n = x.shape[0]
    per = 1 if scheme is GradScheme.FORWARD else 2
    idx = np.arange(n)
    rows = per * idx
    X = np.tile(x, (per * n, 1))
    X[rows, idx] += delta
    if per == 2:
        X[rows + 1, idx] -= delta
    return X


def _recording_hook(calls):
    """A stencil evaluator that records its arguments and returns zeros."""

    def hook(x, steps):
        calls.append((x.copy(), steps.copy()))
        return np.zeros((x.shape[0], steps.shape[0]))

    return hook


@pytest.mark.parametrize("n", [1, 2, 5, 31, 32, 33, 63, 64, 65, 100, 129, 401])
@pytest.mark.parametrize("scheme", list(GradScheme))
def test_stencil_points_are_the_tiled_points_row_for_row(n, scheme):
    x = np.random.default_rng(n).uniform(-1.0, 1.0, n)
    delta = 1e-3 * (1.0 + n)
    stencil = forward_diff if scheme is GradScheme.FORWARD else central_diff
    expected = _tiled_stencil(scheme, x, delta)

    # Without a stencil evaluator the oracle builds every point itself.
    seen = []

    def recording(y):
        seen.append(y.copy())
        return 0.0

    obj = Objective(dim=n, evaluator=recording)
    stencil(Oracle(obj), x, delta)
    if scheme is GradScheme.FORWARD:
        assert seen.pop(0).tobytes() == x.tobytes()  # the base value comes first
    assert np.array(seen).tobytes() == expected.tobytes()

    # A stencil evaluator gets the whole stencil in one call: the base point
    # and the steps whose points those are.
    calls = []
    obj = Objective(dim=n, evaluator=lambda y: 0.0, stencil_evaluator=_recording_hook(calls))
    stencil(Oracle(obj), x, delta)
    assert len(calls) == 1
    points = []
    for base, steps in calls:
        assert base.tobytes() == x.tobytes()
        assert steps.tolist() == ([delta] if scheme is GradScheme.FORWARD else [delta, -delta])
        for i in range(n):
            for step in steps:
                y = base.copy()
                y[i] += step
                points.append(y)
    assert np.array(points).tobytes() == expected.tobytes()
