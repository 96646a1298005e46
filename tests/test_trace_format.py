"""Byte pin for ``emit_csv`` over every scalar type a trace record can hold.

The expected bytes were produced by the original ``getattr``-based writer, so
any faster formatting path has to reproduce them exactly: Python floats and
ints, numpy float64/float32/int64/int32 scalars, NaN, both infinities,
negative zero and the smallest subnormal.
"""

import math

import numpy as np

from adafd import TraceRecord, emit_csv, read_csv
from adafd.trace import CSV_COLUMNS

nan, inf = float("nan"), float("inf")

TRACE = [
    TraceRecord(0, 1, 0.1 + 0.2, 0.1 + 0.2, nan, 0.1, 1.0, 0.0, "init"),
    TraceRecord(np.int64(1), np.int64(7), np.float64(-1.0 / 3.0), np.float64(-1.0 / 3.0),
                np.float32(0.1), np.float32(-2.5), np.float64(nan), np.float32(inf),
                "accepted"),
    TraceRecord(2, np.int32(13), -0.0, np.float64(-0.0), 5e-324, np.float64(5e-324),
                -inf, np.float64(-inf), "null"),
    TraceRecord(np.int64(3), 21, inf, -1e308, 1e16, 2.0**-1074 * 3, np.float32(nan),
                0, "shrink"),
    TraceRecord(4, 2**40, 123456789.0, np.float64(1e-7), np.float32(1e-45), 1.5,
                np.int64(5), np.float64(2.0**53 + 1), "contract_in"),
]

EXPECTED = (
    b"iter,evals,f_current,f_best,grad_norm_approx,delta,C,tau,step_status\n"
    b"0,1,0.30000000000000004,0.30000000000000004,nan,0.1,1.0,0.0,init\n"
    b"1,7,-0.3333333333333333,-0.3333333333333333,0.10000000149011612,-2.5,nan,inf,accepted\n"
    b"2,13,-0.0,-0.0,5e-324,5e-324,-inf,-inf,null\n"
    b"3,21,inf,-1e+308,1e+16,1.5e-323,nan,0,shrink\n"
    b"4,1099511627776,123456789.0,1e-07,1.401298464324817e-45,1.5,5,9007199254740992.0,"
    b"contract_in\n"
)


def test_emit_csv_bytes_are_pinned(tmp_path):
    path = tmp_path / "mixed.csv"
    emit_csv(TRACE, path)
    assert path.read_bytes() == EXPECTED


def test_read_csv_round_trips_every_value(tmp_path):
    path = tmp_path / "mixed.csv"
    emit_csv(TRACE, path)
    loaded = read_csv(path)
    assert len(loaded) == len(TRACE)
    for written, back in zip(TRACE, loaded):
        for col in CSV_COLUMNS:
            a, b = getattr(written, col), getattr(back, col)
            if col == "step_status":
                assert a == b
            elif col in ("iter", "evals"):
                assert type(b) is int and b == int(a)
            else:
                a = float(a)
                assert type(b) is float
                assert (math.isnan(a) and math.isnan(b)) or (
                    a == b and math.copysign(1.0, a) == math.copysign(1.0, b)
                ), (col, a, b)
