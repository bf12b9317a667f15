"""Minimal SVG line charts with zero plotting dependencies.

Produces a self-contained, well-formed SVG document: fixed canvas, axis
ticks, one polyline per series, optional marker dots, a small legend.
NaN values split a series into separate polyline segments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

WIDTH, HEIGHT = 760, 420  # canvas size in pixels

COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


@dataclass
class Series:
    name: str
    x: np.ndarray
    y: np.ndarray
    color: str


@dataclass
class Marker:
    x: float
    y: float
    color: str


def _escape(text: str) -> str:
    return (
        str(text)
        .replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def _ticks(lo: float, hi: float) -> list:
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / 5
    mag = 10.0 ** np.floor(np.log10(raw)) if raw > 0.0 else 0.0
    steps = [m * mag for m in (1.0, 2.0, 2.5, 5.0, 10.0) if 0.0 < raw <= m * mag]
    if not steps:  # an axis a few subnormals wide: raw or its decade underflows to 0
        return [lo, hi]
    step = steps[0]
    first = np.ceil(lo / step) * step
    ticks = []
    v = first
    while v <= hi + 1e-12 * max(abs(hi), step):
        ticks.append(0.0 if abs(v) < step * 1e-9 else float(v))
        if v + step == v:  # an axis a few ulps wide: step is under half an ulp of v
            break
        v += step
    return ticks


def _fmt(v: float) -> str:
    if v == 0:
        return "0"
    if abs(v) >= 1000 or abs(v) < 0.01:
        return f"{v:.2e}"
    return f"{v:.4g}"


def line_chart(
    series: list,
    title: str,
    x_label: str,
    y_label: str,
    markers: list,
) -> str:
    """Render series to an SVG string."""
    ml, mr, mt, mb = 64, 16, 40, 46
    pw, ph = WIDTH - ml - mr, HEIGHT - mt - mb

    xs, ys = [], []
    for s in series:
        x = np.asarray(s.x, dtype=np.float64)
        y = np.asarray(s.y, dtype=np.float64)
        good = np.isfinite(x) & np.isfinite(y)
        xs.append(x[good])
        ys.append(y[good])
    all_x = np.concatenate([v for v in xs if v.size] or [np.array([0.0, 1.0])])
    all_y = np.concatenate([v for v in ys if v.size] or [np.array([0.0, 1.0])])
    x_lo, x_hi = float(all_x.min()), float(all_x.max())
    y_lo, y_hi = float(all_y.min()), float(all_y.max())
    for m in markers:
        if np.isfinite(m.x) and np.isfinite(m.y):
            x_lo, x_hi = min(x_lo, m.x), max(x_hi, m.x)
            y_lo, y_hi = min(y_lo, m.y), max(y_hi, m.y)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.04 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def px(x):
        return ml + (x - x_lo) / (x_hi - x_lo) * pw

    def py(y):
        return mt + ph - (y - y_lo) / (y_hi - y_lo) * ph

    el = []
    el.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">'
    )
    el.append(f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>')
    el.append(
        f'<text x="{WIDTH / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15" fill="#222">{_escape(title)}</text>'
    )
    # frame and ticks
    el.append(
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" '
        f'stroke="#888" stroke-width="1"/>'
    )
    for tx in _ticks(x_lo, x_hi):
        el.append(
            f'<line x1="{px(tx):.2f}" y1="{mt + ph}" x2="{px(tx):.2f}" '
            f'y2="{mt + ph + 5}" stroke="#888"/>'
        )
        el.append(
            f'<text x="{px(tx):.2f}" y="{mt + ph + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11" fill="#444">{_fmt(tx)}</text>'
        )
    for ty in _ticks(y_lo, y_hi):
        el.append(
            f'<line x1="{ml - 5}" y1="{py(ty):.2f}" x2="{ml}" y2="{py(ty):.2f}" stroke="#888"/>'
        )
        el.append(
            f'<text x="{ml - 8}" y="{py(ty):.2f}" text-anchor="end" dy="4" '
            f'font-family="sans-serif" font-size="11" fill="#444">{_fmt(ty)}</text>'
        )
        el.append(
            f'<line x1="{ml}" y1="{py(ty):.2f}" x2="{ml + pw}" y2="{py(ty):.2f}" '
            f'stroke="#eee" stroke-width="1"/>'
        )
    el.append(
        f'<text x="{ml + pw / 2:.1f}" y="{HEIGHT - 8}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" fill="#222">{_escape(x_label)}</text>'
    )
    cy = mt + ph / 2
    el.append(
        f'<text x="14" y="{cy:.1f}" text-anchor="middle" font-family="sans-serif" '
        f'font-size="12" fill="#222" transform="rotate(-90 14 {cy:.1f})">'
        f"{_escape(y_label)}</text>"
    )
    # series
    for i, s in enumerate(series):
        x = np.asarray(s.x, dtype=np.float64)
        y = np.asarray(s.y, dtype=np.float64)
        segment = []
        segments = []
        for xi, yi in zip(x, y):
            if np.isfinite(xi) and np.isfinite(yi):
                segment.append(f"{px(xi):.2f},{py(yi):.2f}")
            elif segment:
                segments.append(segment)
                segment = []
        if segment:
            segments.append(segment)
        for seg in segments:
            if len(seg) == 1:
                cx, cy = seg[0].split(",")
                el.append(f'<circle cx="{cx}" cy="{cy}" r="2" fill="{s.color}"/>')
            else:
                el.append(
                    f'<polyline points="{" ".join(seg)}" fill="none" '
                    f'stroke="{s.color}" stroke-width="1.6"/>'
                )
        ly = mt + 14 + 16 * i
        el.append(
            f'<line x1="{ml + pw - 120}" y1="{ly - 4}" x2="{ml + pw - 96}" '
            f'y2="{ly - 4}" stroke="{s.color}" stroke-width="2"/>'
        )
        el.append(
            f'<text x="{ml + pw - 90}" y="{ly}" font-family="sans-serif" '
            f'font-size="11" fill="#222">{_escape(s.name)}</text>'
        )
    for m in markers:
        if np.isfinite(m.x) and np.isfinite(m.y):
            el.append(
                f'<circle cx="{px(m.x):.2f}" cy="{py(m.y):.2f}" r="3.5" '
                f'fill="{m.color}" stroke="white" stroke-width="1"/>'
            )
    el.append("</svg>")
    return "\n".join(el) + "\n"
