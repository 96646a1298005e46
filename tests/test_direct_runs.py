"""The direct DFC and DFB runs of ``tools/trace_grid.py`` reach the paths that
the experiment grid never does.

Every experiment in the grid ends on ``budget`` and no DFB record there is a
null step, so a byte-identity check on the grid alone never sees DFB's
escalation of C and its linesearch floor, a finite ``nu`` running out, or an
exhausted search stopping DFC or DFB. These tests keep the direct runs on
those paths.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "trace_grid.py"


@pytest.fixture(scope="module")
def reports():
    spec = importlib.util.spec_from_file_location("trace_grid", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool.direct_reports()


def _statuses(report):
    return [record.step_status for record in report.trace]


def test_dfb_from_the_minimizer_makes_null_steps(reports):
    forward = reports["dfb-rosen-min-fordif"]
    assert _statuses(forward).count("null") == 3
    assert forward.final_C == 8.0
    assert "null" in _statuses(reports["dfb-rosen-min-cendif"])


def test_a_finite_nu_ends_dfb_on_schedule(reports):
    report = reports["dfb-ls-nu-list"]
    assert report.termination == "schedule"
    assert len(report.trace) == 6


@pytest.mark.parametrize("name", ["dfb-flat-stopped", "dfc-flat-stopped"])
def test_an_exhausted_search_stops_the_run(reports, name):
    report = reports[name]
    assert report.termination == "stationary"
    assert _statuses(report) == ["stopped"]


def test_every_direct_run_declares_its_evaluations(reports):
    for report in reports.values():
        assert report.evals == report.declared_evals <= 150

