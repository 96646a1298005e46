"""Linesearch trials through ``Objective.rows_evaluator``.

``StepEvals.line`` hands an objective's rows hook ``driver.LINE_CHUNK`` trial
points at a time and charges each trial only when the search takes it. The
hook must give each row bitwise the scalar evaluator's value, and a search
through it, cut off by the budget anywhere or run to its end, must leave the
ledger, the counter and the noise stream exactly as the per-point route does.
"""

import dataclasses
import math
import pickle
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adafd import (BudgetExhausted, DfbConfig, GradScheme, ImfilConfig, Oracle, backtrack,
                   dfb_run, emit_csv, imfil_run, make_rosenbrock)
from adafd import driver
from adafd.baselines import ImfilState, imfil_step
from adafd.dfb import BacktrackResult
from adafd.driver import StepEvals

ROW_KINDS = ("plain", "huge", "infinite")


def _bits(value) -> bytes:
    return struct.pack("<d", float(value))


@st.composite
def row_blocks(draw):
    """A read-only ``(k, n)`` array whose rows are plain, hold entries near
    1e160 (terms overflow to inf) or hold infinite entries (terms give NaN)."""
    n = draw(st.integers(2, 400))
    kinds = draw(st.lists(st.sampled_from(ROW_KINDS), min_size=1, max_size=16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.standard_normal((len(kinds), n))
    for row, kind in zip(X, kinds):
        picked = rng.random(n) < 0.3
        if kind == "huge":
            row[picked] *= 1e160
        elif kind == "infinite":
            row[picked] = np.copysign(np.inf, row[picked])
    X.flags.writeable = False
    return X


@settings(derandomize=True, max_examples=150, deadline=None)
@given(row_blocks())
def test_rosenbrock_rows_are_bitwise_its_scalar_values(X):
    objective = make_rosenbrock(X.shape[1]).objective
    with np.errstate(over="ignore", invalid="ignore"):
        values = objective.rows_evaluator(X)
        expected = [objective.evaluator(x) for x in X]
    assert values.shape == (X.shape[0],)
    assert [_bits(v) for v in values] == [_bits(v) for v in expected]


def test_the_rows_route_rejects_a_block_of_the_wrong_width():
    oracle = Oracle(make_rosenbrock(4).objective)
    with pytest.raises(ValueError, match="rows have shape"):
        next(oracle.evaluate_rows(np.zeros((2, 3))))
    assert oracle.eval_count == 0


#: Rosenbrock n=10, the noise level and the two routes the searches compare.
N = 10
NOISE = 1e-4
WITH_ROWS = make_rosenbrock(N).objective
WITHOUT_ROWS = dataclasses.replace(WITH_ROWS, rows_evaluator=None)


def _search(objective, budget, run):
    """``run(evals)`` on a fresh noisy oracle with ``budget``: what it returned
    (None when the budget cut it off), the ledger, the counter and the value
    of the next evaluation, which is equal on both routes only if their noise
    streams stand at the same draw."""
    oracle = Oracle(objective, NOISE, rng_seed=7)
    evals = StepEvals(oracle, budget)
    try:
        result = run(evals)
    except BudgetExhausted:
        result = None
    after = (evals.cost, _bits(evals.low), oracle.eval_count, oracle.evaluate(np.ones(N)))
    return result, after


def _backtrack(f_x, t_min):
    cfg = DfbConfig(x1=np.ones(N), budget=0)
    g = np.linspace(-1.0, 1.0, N)
    return lambda evals: backtrack(evals, np.ones(N), g, f_x, cfg, t_min)


def _imfil(start):
    x1 = np.full(N, start)
    cfg = ImfilConfig(x1=x1, budget=0)

    def step(evals):
        f1 = evals.point(x1)
        return imfil_step(ImfilState(k=0, x=x1, f_x=f1), evals, GradScheme.FORWARD, cfg)

    return step


@pytest.mark.parametrize("run, outcome", [
    # at the minimizer every trial lies above f(x) = 0, so the search runs
    # until the noise passes the test, or, against f(x) = -1, to the floor
    (_backtrack(0.0, 1e-10), True),
    (_backtrack(-1.0, 1e-6), False),
    # from -0.5 * 1 the sixth trial passes the Armijo test; from 1.5 * 1 all ten fail
    (_imfil(-0.5), "accepted"),
    (_imfil(1.5), "ls_fail"),
], ids=["backtrack-test-passes", "backtrack-floor", "imfil-accepted", "imfil-ls_fail"])
def test_a_search_cut_off_at_any_trial_charges_as_the_per_point_route(run, outcome):
    full, (cost, *_) = _search(WITHOUT_ROWS, math.inf, run)
    assert (full.sufficient if isinstance(full, BacktrackResult) else full.last_step) == outcome
    # every budget that ends the search at, inside or after one of its trials
    for budget in range(cost + 2):
        with_rows, without_rows = (_search(obj, budget, run) for obj in (WITH_ROWS, WITHOUT_ROWS))
        assert with_rows[1] == without_rows[1], budget
        # the results, arrays included, bit for bit (None when cut off)
        assert pickle.dumps(with_rows[0]) == pickle.dumps(without_rows[0]), budget


def _trace_bytes(report, path) -> bytes:
    emit_csv(report.trace, path)
    return path.read_bytes()


@pytest.mark.parametrize("chunk", [1, 3, 8, 64])
def test_the_chunk_size_changes_no_trace_byte(chunk, tmp_path, monkeypatch):
    # from the minimizer DFB runs noise-floor linesearches, some to their
    # floor; implicit filtering from 0 both fails and passes Armijo tests
    def traces(objective):
        dfb = DfbConfig(x1=np.ones(N), budget=40 * N)
        imfil = ImfilConfig(x1=np.zeros(N), budget=40 * N)
        return [_trace_bytes(dfb_run(objective, GradScheme.FORWARD, dfb, NOISE, 3),
                             tmp_path / "dfb.csv"),
                _trace_bytes(imfil_run(objective, GradScheme.FORWARD, imfil, NOISE, 3),
                             tmp_path / "imfil.csv")]

    expected = traces(WITHOUT_ROWS)
    monkeypatch.setattr(driver, "LINE_CHUNK", chunk)
    assert traces(WITH_ROWS) == expected
