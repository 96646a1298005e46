"""``emit_csv`` against the plain per-field writer, and ``TraceRecord`` as a
named tuple.

``emit_csv`` formats the rows that ``drive`` builds with one format string and
reuses the text of a repeated nonzero ``f_current``/``f_best``. The reference
below is the writer it replaced, which formats every field of every row on its
own; both must write the same bytes for every trace.
"""

import math

import numpy as np
import pytest

from adafd import (
    DfcConfig,
    GradScheme,
    NelderMeadConfig,
    TraceRecord,
    dfc_run,
    emit_csv,
    make_rosenbrock,
    nelder_mead_run,
    random_instance,
)
from adafd.trace import CSV_COLUMNS

nan, inf = math.nan, math.inf
TINY = 5e-324


def _fmt(value) -> str:
    if type(value) is float:
        return repr(value)
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def reference_csv(trace) -> bytes:
    lines = [",".join(CSV_COLUMNS)]
    lines += [",".join(_fmt(getattr(r, col)) for col in CSV_COLUMNS) for r in trace]
    return ("\n".join(lines) + "\n").encode()


def _rows(pairs):
    """Records with the given (f_current, f_best) pairs and drive's field types."""
    return [TraceRecord(k, 3 * k + 1, fc, fb, nan, 0.5 * k, nan, 1.0, "reflect")
            for k, (fc, fb) in enumerate(pairs)]


SIGNED_ZEROS = [0.0, -0.0]
BRANCHES = {
    "equal_runs": _rows([(1.5, 1.5)] * 4 + [(0.1 + 0.2, 0.1 + 0.2)] * 3 + [(1.5, 1.5)]),
    "zeros_in_f_current": _rows([(z, 1.0) for z in SIGNED_ZEROS * 3]),
    "zeros_in_f_best": _rows([(1.0, z) for z in SIGNED_ZEROS * 3]),
    "zeros_in_both": _rows([(a, b) for a in SIGNED_ZEROS * 2 for b in SIGNED_ZEROS]),
    "nan_runs": _rows([(nan, nan)] * 3 + [(2.0, nan), (nan, 2.0), (nan, 2.0), (2.0, 2.0)]),
    "infinities": _rows([(inf, inf), (inf, inf), (-inf, -inf), (-inf, inf), (inf, -inf)]),
    "subnormals": _rows([(TINY, TINY), (TINY, TINY), (-TINY, -TINY), (3 * TINY, TINY),
                         (2.0**-1022, 2.0**-1022), (2.0**-1022 / 3, 2.0**-1022 / 3)]),
    "best_differs": _rows([(3.0, 1.0), (2.0, 1.0), (1.0, 1.0), (4.0, 1.0), (1.0, 0.5)]),
    "fallback_rows": [
        TraceRecord(0, 1, 2.5, 2.5, nan, 0.1, nan, 1.0, "init"),
        TraceRecord(1, 2, np.float64(2.5), np.float64(2.5), nan, 0.1, nan, 1.0, "reflect"),
        TraceRecord(2, 3, 2.5, 2.5, np.float32(0.1), 0.1, nan, 1.0, "reflect"),
        TraceRecord(True, 4, 2.5, 2.5, nan, 0.1, nan, 1.0, "reflect"),
        TraceRecord(np.int64(4), 5, 2.5, 2.5, nan, 0.1, nan, 1.0, "reflect"),
        TraceRecord(5, 6, 2.5, -0.0, nan, 0.1, nan, 0, "reflect"),
        TraceRecord(6, 7, -0.0, 2.5, nan, False, nan, 1.0, "reflect"),
        TraceRecord(7, 8, 2.5, 2.5, nan, 0.1, nan, 1.0, "reflect"),
    ],
}


@pytest.mark.parametrize("name", sorted(BRANCHES))
def test_each_branch_writes_the_reference_bytes(name, tmp_path):
    emit_csv(BRANCHES[name], tmp_path / "t.csv")
    assert (tmp_path / "t.csv").read_bytes() == reference_csv(BRANCHES[name])


def test_random_mixed_traces_write_the_reference_bytes(tmp_path):
    pool = [0.0, -0.0, nan, inf, -inf, TINY, -TINY, 1.5, 0.1 + 0.2, -1.0 / 3.0,
            np.float64(1.5), np.float64(-0.0), np.float32(0.1), np.int64(2), 1, True]
    rng = np.random.default_rng(0)
    for trial in range(20):
        picks = rng.integers(0, len(pool), (200, 2))
        # runs of repeats: most rows keep the previous row's pair
        keep = rng.random(200) < 0.6
        for i in range(1, 200):
            if keep[i]:
                picks[i] = picks[i - 1]
        trace = _rows([(pool[a], pool[b]) for a, b in picks])
        emit_csv(trace, tmp_path / "t.csv")
        assert (tmp_path / "t.csv").read_bytes() == reference_csv(trace), trial


@pytest.mark.parametrize("family", ["least_squares", "rosenbrock"])
def test_solver_traces_write_the_reference_bytes(family, tmp_path):
    n = 8
    objective = (make_rosenbrock(n) if family == "rosenbrock"
                 else random_instance(family, n, seed=3)).objective
    reports = [
        nelder_mead_run(objective, NelderMeadConfig(x1=np.zeros(n), budget=60 * n)),
        dfc_run(objective, GradScheme.FORWARD, DfcConfig(x1=np.zeros(n), budget=60 * n),
                1e-4, 2),
    ]
    for report in reports:
        emit_csv(report.trace, tmp_path / "t.csv")
        assert (tmp_path / "t.csv").read_bytes() == reference_csv(report.trace)


class TestTraceRecord:
    VALUES = (3, 10, 0.5, 0.25, nan, 1e-3, 2.0, 1.0, "accepted")

    def test_fields_are_the_csv_columns(self):
        assert TraceRecord._fields == CSV_COLUMNS

    def test_keyword_and_positional_construction_agree(self):
        by_position = TraceRecord(*self.VALUES)
        by_keyword = TraceRecord(**dict(zip(CSV_COLUMNS, self.VALUES)))
        assert by_position == by_keyword
        assert by_keyword.step_status == "accepted" and by_keyword.f_best == 0.25
        assert tuple(by_position) == self.VALUES

    def test_fields_cannot_be_set(self):
        record = TraceRecord(*self.VALUES)
        with pytest.raises(AttributeError):
            record.f_best = 0.0
