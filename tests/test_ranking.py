import math

import pytest

from adafd import CSV_COLUMNS, TraceRecord, emit_csv, rank_trace_files


def _write(path, f_best):
    emit_csv([TraceRecord(iter=1, evals=3, f_current=f_best, f_best=f_best,
                          grad_norm_approx=1.0, delta=0.1, C=1.0, tau=0.0,
                          step_status="accepted")], path)
    return path


def test_nan_ranks_last_whatever_the_insertion_order(tmp_path):
    finals = {"a": 1.0, "b": float("nan"), "c": 0.5}
    paths = {sid: _write(tmp_path / f"{sid}.csv", v) for sid, v in finals.items()}
    for order in (("a", "b", "c"), ("b", "a", "c"), ("c", "b", "a")):
        ranking = rank_trace_files({sid: paths[sid] for sid in order})
        assert [sid for sid, _ in ranking] == ["c", "a", "b"]
        assert math.isnan(ranking[-1][1])


def test_ties_break_by_solver_id(tmp_path):
    paths = {sid: _write(tmp_path / f"{sid}.csv", 2.0) for sid in ("z", "m", "a")}
    assert [sid for sid, _ in rank_trace_files(paths)] == ["a", "m", "z"]


def test_a_trace_without_records_is_named_not_indexed(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text(",".join(CSV_COLUMNS) + "\n")
    paths = {"a": _write(tmp_path / "a.csv", 1.0), "b": empty}
    with pytest.raises(ValueError, match=f"^{empty}: the trace has no records"):
        rank_trace_files(paths)
