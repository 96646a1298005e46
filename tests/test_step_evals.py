"""``driver.StepEvals``: the ledger and budget guard of every step.

It counts the evaluations a step declares in ``cost``, keeps the lowest
iterate or candidate value in ``low`` (NaN while none) and raises
``BudgetExhausted`` before any evaluation at or past the budget, keeping both.
"""

import math

import numpy as np
import pytest

from adafd import BudgetExhausted, Objective, Oracle
from adafd.driver import StepEvals


def _oracle(*values):
    """An oracle on R^1 that returns ``values`` in turn."""
    it = iter(values)
    return Oracle(Objective(dim=1, evaluator=lambda x: next(it)))


def _point(evals, candidate=True):
    return evals.point(np.zeros(1), candidate)


def test_check_at_the_budget_raises_and_keeps_the_cost_and_lowest_value_so_far():
    oracle = _oracle(3.0, 1.0, 2.0)
    evals = StepEvals(oracle, 3)
    assert [_point(evals) for _ in range(3)] == [3.0, 1.0, 2.0]
    for call in (evals.check, lambda: _point(evals)):
        with pytest.raises(BudgetExhausted):
            call()
        assert (evals.cost, evals.low) == (3, 1.0)
    assert oracle.eval_count == 3  # the cut-off point was never evaluated


def test_a_step_cut_off_before_any_evaluation_reports_nothing():
    oracle = _oracle()
    oracle.eval_count = 5  # spent by earlier steps
    evals = StepEvals(oracle, 5)
    with pytest.raises(BudgetExhausted):
        evals.check()
    assert evals.cost == 0 and math.isnan(evals.low)


def test_point_ignores_nan():
    evals = StepEvals(_oracle(math.nan, 2.0, math.nan, 4.0), 10)
    _point(evals)
    assert math.isnan(evals.low) and evals.cost == 1
    for _ in range(3):
        _point(evals)
    assert (evals.low, evals.cost) == (2.0, 4)


def test_point_keeps_the_first_of_equal_minima():
    evals = StepEvals(_oracle(-0.0, 0.0), 10)
    _point(evals)
    _point(evals)
    assert evals.low == 0.0 and math.copysign(1.0, evals.low) == -1.0


def test_a_point_that_is_no_candidate_is_counted_but_not_lowest():
    evals = StepEvals(_oracle(1.0, 5.0, -3.0), 10)
    assert _point(evals, candidate=False) == 1.0
    assert math.isnan(evals.low)
    _point(evals)
    _point(evals, candidate=False)
    assert (evals.low, evals.cost) == (5.0, 3)


def test_an_infinite_budget_never_raises():
    oracle = _oracle(7.0)
    oracle.eval_count = 2**62
    evals = StepEvals(oracle, math.inf)
    evals.check()
    assert _point(evals) == 7.0 and evals.cost == 1
