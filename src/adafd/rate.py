"""Convergence-rate diagnosis from best-value traces.

Fits the tail of log(f_best - target) both against the iteration index
(geometric decay) and against log(iteration) (power-law decay) and reports
whichever model explains the tail better, provided the fit is tight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

import numpy as np

from .trace import TraceRecord

#: Minimum records above the target needed for a meaningful fit.
MIN_RECORDS = 20
#: A model must reach this R^2 on the tail to be reported at all.
FIT_THRESHOLD = 0.98


class InsufficientData(ValueError):
    pass


@dataclass(frozen=True)
class RateEstimate:
    kind: str  # "linear" | "sublinear" | "none"
    factor_or_exponent: float
    r_squared: float

    @property
    def factor(self) -> float:
        if self.kind != "linear":
            raise ValueError("per-iteration factor only defined for linear rates")
        return self.factor_or_exponent

    @property
    def exponent(self) -> float:
        if self.kind != "sublinear":
            raise ValueError("exponent only defined for sublinear rates")
        return self.factor_or_exponent


def _fit(xs: np.ndarray, ys: np.ndarray):
    slope, intercept = np.polyfit(xs, ys, 1)
    pred = slope * xs + intercept
    ss_res = float(np.sum((ys - pred) ** 2))
    ss_tot = float(np.sum((ys - np.mean(ys)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), r2


def estimate_rate(trace: List[TraceRecord], target_value: float) -> RateEstimate:
    """Classify the tail decay of f_best toward ``target_value``.

    Uses the final half of the records whose gap above the target is positive
    and finite; NaN and infinite ``f_best`` records do not qualify.
    Linear means a per-iteration contraction factor (exp of the fitted slope);
    sublinear means gap ~ k**exponent. A NaN or infinite ``target_value`` is a
    ``ValueError``: no gap to it is finite.
    """
    if not math.isfinite(target_value):
        raise ValueError(f"target_value must be finite, got {target_value}")
    qualifying = [r for r in trace if math.isfinite(r.f_best) and r.f_best > target_value]
    if len(qualifying) < MIN_RECORDS:
        raise InsufficientData(
            f"need at least {MIN_RECORDS} records above the target, "
            f"got {len(qualifying)}"
        )
    tail = qualifying[len(qualifying) // 2:]
    ks = np.array([r.iter for r in tail], dtype=float)
    gaps = np.log(np.array([r.f_best - target_value for r in tail]))

    slope_geo, r2_geo = _fit(ks, gaps)
    slope_pow, r2_pow = _fit(np.log(ks), gaps)

    if r2_geo >= FIT_THRESHOLD and slope_geo < 0.0 and r2_geo >= r2_pow:
        return RateEstimate("linear", float(np.exp(slope_geo)), r2_geo)
    if r2_pow >= FIT_THRESHOLD and slope_pow < 0.0:
        return RateEstimate("sublinear", slope_pow, r2_pow)
    return RateEstimate("none", 0.0, max(r2_geo, r2_pow))
