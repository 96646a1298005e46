"""The library's Nelder-Mead step against a reference step, run by run.

The reference re-sorts the whole simplex at the start of every step (stable
argsort and a fancy-index copy) and takes the centroid with ``np.mean``; the
library inserts the one new vertex at the end of its step, where a stable
argsort would put it, and sums the centroid with ``np.add.reduce``.
Both must give byte-identical traces, ``final_x``, ``best_f`` and ``evals``.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from adafd import NelderMeadConfig, Objective, Oracle, build_instance, emit_csv, nelder_mead_run
from adafd.baselines import SimplexState, _lowest, _probe, _simplex, nelder_mead_step
from adafd.driver import drive

from conftest import constant_objective


def reference_step(state, oracle, scheme, cfg):
    if state.verts is None:
        n = state.x.shape[0]
        verts = np.tile(state.x, (n + 1, 1))
        for i in range(n):
            verts[i + 1, i] += 0.05 * max(abs(verts[i + 1, i]), 1.0)
        seen = [oracle.evaluate(v) for v in verts[1:]]
        return _simplex(0, verts, np.array([state.f_x] + seen), "init", seen)

    rho, chi, psi, sigma = cfg.coefficients
    order = np.argsort(state.fv, kind="stable")
    verts = state.verts[order]
    fv = state.fv[order]
    centroid = np.mean(verts[:-1], axis=0)
    seen = []
    status = "reflect"
    xr = centroid + rho * (centroid - verts[-1])
    fr = _probe(oracle, xr, cfg.budget, seen)
    if fv[0] <= fr < fv[-2]:
        verts[-1], fv[-1] = xr, fr
    elif fr < fv[0]:
        xe = centroid + chi * rho * (centroid - verts[-1])
        fe = _probe(oracle, xe, cfg.budget, seen)
        if fe < fr:
            verts[-1], fv[-1] = xe, fe
            status = "expand"
        else:
            verts[-1], fv[-1] = xr, fr
    else:
        outside = fr < fv[-1]
        if outside:
            xc = centroid + psi * (xr - centroid)
        else:
            xc = centroid - psi * (centroid - verts[-1])
        fc = _probe(oracle, xc, cfg.budget, seen)
        if (fc <= fr) if outside else (fc < fv[-1]):
            verts[-1], fv[-1] = xc, fc
            status = "contract_out" if outside else "contract_in"
        else:
            status = "shrink"
            verts[1:] = verts[0] + sigma * (verts[1:] - verts[0])
            for i in range(1, len(fv)):
                fv[i] = _probe(oracle, verts[i], cfg.budget, seen)
    values = fv.tolist()
    f_x = min(values)
    return SimplexState(state.k + 1, verts[values.index(f_x)], f_x, verts, fv, status,
                        _lowest(seen), len(seen))


def reference_run(objective, cfg, noise_level=0.0, seed=0):
    return drive("nelder-mead", objective, None, cfg, noise_level, seed,
                 start=lambda x, f: SimplexState(k=0, x=x, f_x=f),
                 step=reference_step, config={},
                 collect_iterates=False)


def assert_same_run(objective, x1, budget, tmp_path, noise_level=0.0, seed=0):
    cfg = NelderMeadConfig(x1=x1, budget=budget)
    ref = reference_run(objective, cfg, noise_level, seed)
    lib = nelder_mead_run(objective, cfg, noise_level, seed)
    emit_csv(ref.trace, tmp_path / "ref.csv")
    emit_csv(lib.trace, tmp_path / "lib.csv")
    assert (tmp_path / "lib.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert lib.final_x.tobytes() == ref.final_x.tobytes()
    assert math.isnan(lib.best_f) == math.isnan(ref.best_f)
    assert math.isnan(ref.best_f) or lib.best_f == ref.best_f
    assert (lib.evals, lib.declared_evals, lib.termination, lib.truncated) == (
        ref.evals, ref.declared_evals, ref.termination, ref.truncated)
    return lib


def walled(n, kind):
    """x.x + sum(x), with a NaN or +inf region, NaN everywhere, or rounded
    down to a staircase of ties."""
    def f(x):
        if kind == "nan" and x[0] > 0.02:
            return float("nan")
        if kind == "inf" and x[-1] > 0.02:
            return float("inf")
        if kind == "all-nan":
            return float("nan")
        if kind == "stairs":
            return float(np.floor(32.0 * (x @ x + x.sum())))
        return float(x @ x + x.sum())
    return Objective(dim=n, evaluator=f)


def test_ties_on_constant_and_staircase_objectives(tmp_path):
    # the staircase has reflections onto the best vertex's value, where the
    # best vertex stays the first one with that value
    for n in (2, 3, 5):
        report = assert_same_run(constant_objective(n, 4.0), np.zeros(n), 40 * n, tmp_path)
        assert any(r.step_status == "shrink" for r in report.trace)
        for budget in range(n + 2, 20 * n):
            assert_same_run(walled(n, "stairs"), 0.5 * np.ones(n), budget, tmp_path)


def test_nan_and_inf_walls(tmp_path):
    for kind in ("nan", "inf"):
        for n in (2, 3, 6):
            for x1 in (np.zeros(n), 0.5 * np.ones(n)):
                assert_same_run(walled(n, kind), x1, 100 * n, tmp_path)


def test_all_nan_objective(tmp_path):
    report = assert_same_run(walled(3, "all-nan"), np.zeros(3), 200, tmp_path)
    assert math.isnan(report.best_f)


def test_budget_cut_off_inside_a_shrink(tmp_path):
    inst = build_instance("least_squares", 5, seed=3)
    report = assert_same_run(inst.objective, 0.5 * np.ones(5), 1000, tmp_path)
    assert report.truncated and report.trace[-1].step_status != "init"


def test_a_step_never_mutates_the_state_it_received():
    cfg = NelderMeadConfig(x1=np.zeros(3), budget=10_000)
    oracle = Oracle(walled(3, "nan"))
    state = SimplexState(0, cfg.x1.copy(), oracle.evaluate(cfg.x1))
    statuses = set()
    for _ in range(150):
        before = (state.x.copy(), None if state.verts is None else state.verts.copy(),
                  None if state.fv is None else state.fv.copy())
        nxt = nelder_mead_step(state, oracle, None, cfg)
        assert np.array_equal(state.x, before[0])
        if state.verts is not None:
            assert np.array_equal(state.verts, before[1])
            assert np.array_equal(state.fv, before[2], equal_nan=True)
            assert nxt.verts is not state.verts and nxt.fv is not state.fv
        statuses.add(nxt.last_step)
        state = nxt
    assert statuses == {"init", "reflect", "expand", "contract_out", "contract_in", "shrink"}


@settings(derandomize=True, max_examples=60, deadline=None)
@given(family=st.sampled_from(["least_squares", "image_restoration", "rosenbrock"]),
       n=st.integers(2, 8), noise=st.sampled_from([0.0, 1e-4]),
       multiplier=st.integers(1, 60), seed=st.integers(0, 3))
def test_sweep_matches_the_reference(tmp_path_factory, family, n, noise, multiplier, seed):
    inst = build_instance(family, n, seed=seed)
    x1 = np.random.default_rng(seed).standard_normal(n)
    assert_same_run(inst.objective, x1, n + 1 + multiplier * n,
                    tmp_path_factory.mktemp("nm"), noise, seed)
