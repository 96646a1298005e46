"""Standalone SVG rendering of best-value-versus-evaluations curves.

Hand-rolled rather than delegated to a plotting stack: the output is a small,
deterministic vector file with one polyline per trace, a legend of solver ids,
and a value axis that switches to log scale whenever every plotted value is
positive. Records whose ``f_best`` is NaN or infinite are not plotted.
"""

from __future__ import annotations

import math
from typing import Dict, List

from .trace import TraceRecord

WIDTH, HEIGHT = 720, 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 160, 30, 50

#: Escapes for text in an SVG element. A str.translate table, because importing
#: xml.sax.saxutils pulls in urllib and http (about 30 ms of import time).
_TEXT_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})

PALETTE = (
    "#1b6ca8", "#d1495b", "#2e933c", "#8338ec", "#e07a1f",
    "#0f7173", "#a4036f", "#6b6b6b",
)


def _ticks(lo: float, hi: float, count: int = 5) -> List[float]:
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def emit_plot(traces: Dict[str, List[TraceRecord]], path) -> None:
    """Write an SVG of f_best against cumulative evaluations, one curve per trace."""
    if not traces:
        raise ValueError("need at least one trace to plot")
    for label, trace in traces.items():
        if not trace:
            raise ValueError(f"trace {label!r} is empty")

    # Only finite values are drawn, so a NaN or infinite f_best cannot reach
    # the axis scaling; a trace with none keeps its legend entry alone.
    curves = {label: [r for r in trace if math.isfinite(r.f_best)]
              for label, trace in traces.items()}
    drawn = [r for curve in curves.values() for r in curve]
    log_axis = bool(drawn) and all(r.f_best > 0.0 for r in drawn)
    transform = math.log10 if log_axis else (lambda v: v)

    xs = [r.evals for r in drawn] or [r.evals for t in traces.values() for r in t]
    xs_max, xs_min = max(xs), min(xs)
    ys = [transform(r.f_best) for r in drawn] or [0.0]
    y_lo, y_hi = min(ys), max(ys)
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
        if y_hi == y_lo:  # from 2**53 up, value +-1 can round back to the value
            y_lo, y_hi = sorted((y_lo, 0.0))
    if xs_max == xs_min:
        xs_max = xs_min + 1

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def px(e: float) -> float:
        return MARGIN_L + (e - xs_min) / (xs_max - xs_min) * plot_w

    def py(v: float) -> float:
        return MARGIN_T + (y_hi - v) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<line x1="{MARGIN_L}" y1="{HEIGHT - MARGIN_B}" x2="{WIDTH - MARGIN_R}" '
        f'y2="{HEIGHT - MARGIN_B}" stroke="black"/>',
        f'<line x1="{MARGIN_L}" y1="{MARGIN_T}" x2="{MARGIN_L}" '
        f'y2="{HEIGHT - MARGIN_B}" stroke="black"/>',
    ]
    for tx in _ticks(xs_min, xs_max):
        parts.append(
            f'<text x="{px(tx):.1f}" y="{HEIGHT - MARGIN_B + 18}" font-size="11" '
            f'text-anchor="middle">{tx:.6g}</text>'
        )
    for ty in _ticks(y_lo, y_hi):
        label = f"1e{ty:.2f}" if log_axis else f"{ty:.4g}"
        parts.append(
            f'<text x="{MARGIN_L - 6}" y="{py(ty) + 4:.1f}" font-size="11" '
            f'text-anchor="end">{label}</text>'
        )
    parts.append(
        f'<text x="{MARGIN_L + plot_w / 2:.1f}" y="{HEIGHT - 10}" font-size="13" '
        f'text-anchor="middle">evaluations</text>'
    )
    y_title = "f_best (log scale)" if log_axis else "f_best"
    parts.append(
        f'<text x="16" y="{MARGIN_T + plot_h / 2:.1f}" font-size="13" '
        f'text-anchor="middle" transform="rotate(-90 16 {MARGIN_T + plot_h / 2:.1f})">'
        f"{y_title}</text>"
    )

    for idx, (label, curve) in enumerate(curves.items()):
        color = PALETTE[idx % len(PALETTE)]
        if curve:
            points = " ".join(
                f"{px(r.evals):.2f},{py(transform(r.f_best)):.2f}" for r in curve
            )
            parts.append(
                f'<polyline class="curve" fill="none" stroke="{color}" '
                f'stroke-width="1.5" points="{points}"/>'
            )
        if len(curve) == 1:
            r = curve[0]
            parts.append(
                f'<circle cx="{px(r.evals):.2f}" cy="{py(transform(r.f_best)):.2f}" '
                f'r="3" fill="{color}"/>'
            )
        ly = MARGIN_T + 14 + 18 * idx
        lx = WIDTH - MARGIN_R + 12
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 24}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text class="legend" x="{lx + 30}" y="{ly}" font-size="12">'
            f'{label.translate(_TEXT_ESCAPES)}</text>'
        )

    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
