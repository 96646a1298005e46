"""Per-iteration trace records, run reports, and lossless CSV persistence."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional

import numpy as np

from .oracle import Array

class TraceRecord(NamedTuple):
    """One solver iteration: budget position, values, and step bookkeeping.

    A named tuple: immutable, and about three times cheaper to build than a
    frozen dataclass. Its fields, in order, are the CSV columns. Fields that
    have no meaning for a given solver (e.g. ``C`` for Nelder-Mead) are
    recorded as NaN.
    """

    iter: int
    evals: int
    f_current: float
    f_best: float
    grad_norm_approx: float
    delta: float
    C: float
    tau: float
    step_status: str


#: Fixed CSV column order, ``TraceRecord``'s fields; floats are written in
#: shortest round-trip form.
CSV_COLUMNS = TraceRecord._fields


@dataclass
class RunReport:
    """Full outcome of one solver run on one oracle."""

    solver_id: str
    trace: List[TraceRecord]
    final_x: Array
    best_f: float
    evals: int
    declared_evals: int
    budget: int
    termination: str  # "budget" | "stationary" | "schedule"
    truncated: bool = False  # final step cut off mid-operation at the budget edge
    final_C: Optional[float] = None
    tau_sum: Optional[float] = None
    iterates: List[Array] = field(default_factory=list)
    config: dict = field(default_factory=dict)

    @property
    def final_f_best(self) -> float:
        return self.trace[-1].f_best if self.trace else self.best_f


def _fmt(value) -> str:
    if type(value) is float:  # the common case; subclasses such as np.float64 fall through
        return repr(value)
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


#: Field types of the records that ``drive`` builds and ``read_csv`` returns;
#: rows of exactly these types are written with one format.
_DRIVE_TYPES = (int, int, float, float, float, float, float, float, str)
_DRIVE_ROW = "%d,%d,%s,%s,%r,%r,%r,%r,%s"


def emit_csv(trace: List[TraceRecord], path) -> None:
    """Write a trace as a header row plus one row per record.

    Re-emitting the same trace yields a byte-identical file, and reading it
    back reproduces every finite value exactly. ``f_current`` and ``f_best``
    reuse the text of the last value written in either column when they equal
    it and are nonzero: equal nonzero floats have the same bits, while
    ``0.0 == -0.0``. Rows holding other types (numpy scalars, bools) are
    formatted field by field.
    """
    if not trace:
        raise ValueError("refusing to emit an empty trace")
    lines = [",".join(CSV_COLUMNS)]
    append = lines.append
    last, text = math.nan, ""  # NaN equals nothing, so the first value is formatted
    for r in trace:
        if tuple(map(type, r)) != _DRIVE_TYPES:
            append(",".join(map(_fmt, r)))
            continue
        k, evals, f_current, f_best, g_norm, delta, C, tau, status = r
        if f_current != last or f_current == 0.0:
            last, text = f_current, repr(f_current)
        current = text
        if f_best != last or f_best == 0.0:
            last, text = f_best, repr(f_best)
        append(_DRIVE_ROW % (k, evals, current, text, g_norm, delta, C, tau, status))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def read_csv(path) -> List[TraceRecord]:
    """Parse a trace file written by :func:`emit_csv`."""
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln]
    if not lines or lines[0] != ",".join(CSV_COLUMNS):
        raise ValueError(f"{path}: unrecognized trace header")
    out = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(CSV_COLUMNS):
            raise ValueError(f"{path}: malformed row {ln!r}")
        out.append(TraceRecord._make(t(v) for t, v in zip(_DRIVE_TYPES, parts)))
    return out


def records_equal(a: TraceRecord, b: TraceRecord) -> bool:
    """Field-wise equality that treats NaN as equal to NaN."""
    for va, vb in zip(a, b):
        if isinstance(va, float) and isinstance(vb, float):
            if math.isnan(va) and math.isnan(vb):
                continue
            if va != vb:
                return False
        elif va != vb:
            return False
    return True
