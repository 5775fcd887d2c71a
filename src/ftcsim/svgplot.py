"""Self-contained SVG line charts over one time axis.

Every chart plots labelled series against a single time column t, its x
axis labelled `t [s]`. Above _MAX_POINTS samples a chart draws every
stride-th sample, the same ones in each series, and always the last.
Plain polyline plots with auto-scaled axes and tick labels at multiples of
a 1/2/5 x 10^k step. No external resources, scripts or fonts referenced,
so the files render anywhere and diff cleanly.
"""

from __future__ import annotations

import math

import numpy as np

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_W, _H = 960, 520
_ML, _MR, _MT, _MB = 70, 20, 40, 50  # margins
_MAX_POINTS = 2000


def _escape(text: str) -> str:
    """text with &, > and < written as XML entities."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _nice_step(span: float) -> float:
    """Tick step 1, 2 or 5 times a power of ten giving about 6 intervals."""
    if span <= 0.0:
        return 1.0
    raw = span / 6
    power = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if power * mult >= raw:
            return power * mult
    return power * 10.0


def _ticks(lo: float, hi: float) -> list[float]:
    step = _nice_step(hi - lo)
    first = math.ceil(lo / step) * step
    ticks = []
    v = first
    while v <= hi + 1e-12 * max(1.0, abs(hi)):
        ticks.append(0.0 if abs(v) < step * 1e-9 else v)
        v += step
    return ticks


def _fmt_tick(v: float) -> str:
    if v == 0.0:
        return "0"
    if abs(v) >= 1e4 or abs(v) < 1e-3:
        return f"{v:.2e}"
    return f"{v:g}"


def write_chart(path, t: np.ndarray, series: list[tuple[str, np.ndarray]],
                title: str, y_label: str = "") -> None:
    """Write an SVG file plotting each (label, ys) series against t."""
    x_lo, x_hi = float(t.min()), float(t.max())
    y_lo = min(float(ys.min()) for _, ys in series)
    y_hi = max(float(ys.max()) for _, ys in series)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    iw = _W - _ML - _MR
    ih = _H - _MT - _MB

    # elementwise on arrays, in the same operation order as on one float
    def px(x):
        return _ML + (x - x_lo) / (x_hi - x_lo) * iw

    def py(y):
        return _MT + (y_hi - y) / (y_hi - y_lo) * ih

    n = len(t)
    stride = 1 if n <= _MAX_POINTS else (n - 1) // (_MAX_POINTS - 1) + 1
    idx = np.append(np.arange(0, n - 1, stride), n - 1)
    # one "x,%.2f" per point: each series fills in its y values in one call
    points = " ".join(f"{x:.2f},%.2f" for x in px(t[idx]).tolist())

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{_escape(title)}</text>',
    ]

    # axes frame and ticks
    parts.append(
        f'<rect x="{_ML}" y="{_MT}" width="{iw}" height="{ih}" fill="none" '
        f'stroke="#444" stroke-width="1"/>')
    for v in _ticks(x_lo, x_hi):
        X = px(v)
        parts.append(f'<line x1="{X:.2f}" y1="{_MT + ih}" x2="{X:.2f}" '
                     f'y2="{_MT + ih + 5}" stroke="#444"/>')
        parts.append(f'<line x1="{X:.2f}" y1="{_MT}" x2="{X:.2f}" '
                     f'y2="{_MT + ih}" stroke="#ddd" stroke-width="0.5"/>')
        parts.append(f'<text x="{X:.2f}" y="{_MT + ih + 20}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="11">{_fmt_tick(v)}</text>')
    for v in _ticks(y_lo, y_hi):
        Y = py(v)
        parts.append(f'<line x1="{_ML - 5}" y1="{Y:.2f}" x2="{_ML}" '
                     f'y2="{Y:.2f}" stroke="#444"/>')
        parts.append(f'<line x1="{_ML}" y1="{Y:.2f}" x2="{_ML + iw}" '
                     f'y2="{Y:.2f}" stroke="#ddd" stroke-width="0.5"/>')
        parts.append(f'<text x="{_ML - 8}" y="{Y + 4:.2f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="11">{_fmt_tick(v)}</text>')
    parts.append(f'<text x="{_ML + iw / 2:.1f}" y="{_H - 12}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="12">t [s]</text>')
    if y_label:
        parts.append(f'<text x="18" y="{_MT + ih / 2:.1f}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="12" '
                     f'transform="rotate(-90 18 {_MT + ih / 2:.1f})">'
                     f'{_escape(y_label)}</text>')

    for i, (label, ys) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        drawn = points % tuple(py(ys[idx]).tolist())
        parts.append(f'<polyline points="{drawn}" fill="none" '
                     f'stroke="{color}" stroke-width="1.3"/>')
        ly = _MT + 16 + 16 * i
        lx = _ML + iw - 160
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{lx + 28}" y="{ly}" font-family="sans-serif" '
                     f'font-size="12">{_escape(label)}</text>')

    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts))
        fh.write("\n")
