"""Minimal self-contained SVG emitter for solution curves.

Deliberately dependency-free: polylines, axis ticks, and labels only.
"""

from __future__ import annotations

import math

import numpy as np

WIDTH, HEIGHT = 720, 480
MARGIN = 60
COLORS = ("#1f77b4", "#d62728", "#2ca02c")


def _ticks(lo: float, hi: float, n: int = 6):
    span = hi - lo
    if span <= 0:
        return [lo]
    raw = span / (n - 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    step = min(s for s in (mag, 2 * mag, 5 * mag, 10 * mag) if s >= raw)
    start = math.ceil(lo / step) * step
    out = []
    t = start
    while t <= hi + 1e-12 * span:
        out.append(round(t, 12))
        t += step
    return out


def write_curves_svg(path, x, curves, title: str = "", xlabel: str = "eta") -> None:
    """Write labeled polyline curves to an SVG file.

    `curves` is a list of (label, y-array); all share the x grid.
    """
    x = np.asarray(x, dtype=float)
    if x.size == 0 or not curves:
        raise ValueError("cannot plot an empty table")
    ys = [np.asarray(c, dtype=float) for _, c in curves]
    if not (np.isfinite(x).all() and all(np.isfinite(y).all() for y in ys)):
        raise ValueError("cannot plot non-finite values")
    x_lo, x_hi = float(np.min(x)), float(np.max(x))
    # numpy scalars, not floats: _ticks rounds the y ticks with round(), and
    # numpy's round can land one ulp away from float's
    y_lo, y_hi = min(np.min(y) for y in ys), max(np.max(y) for y in ys)
    if x_hi == x_lo:
        raise ValueError("degenerate x range")
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    if not (math.isfinite(x_hi - x_lo) and math.isfinite(y_hi - y_lo)):
        raise ValueError("cannot plot a range wider than the largest float")

    # also applied to whole arrays: elementwise numpy arithmetic in this
    # order gives each pixel the same double as the scalar formula
    def sx(v):
        return MARGIN + (v - x_lo) / (x_hi - x_lo) * (WIDTH - 2 * MARGIN)

    def sy(v):
        return HEIGHT - MARGIN - (v - y_lo) / (y_hi - y_lo) * (HEIGHT - 2 * MARGIN)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2}" y="24" text-anchor="middle" font-size="16">{title}</text>',
    ]
    # axes
    parts.append(
        f'<line x1="{MARGIN}" y1="{HEIGHT - MARGIN}" x2="{WIDTH - MARGIN}" '
        f'y2="{HEIGHT - MARGIN}" stroke="black"/>'
    )
    parts.append(
        f'<line x1="{MARGIN}" y1="{MARGIN}" x2="{MARGIN}" y2="{HEIGHT - MARGIN}" stroke="black"/>'
    )
    for t in _ticks(x_lo, x_hi):
        px = sx(t)
        parts.append(f'<line x1="{px:.2f}" y1="{HEIGHT - MARGIN}" x2="{px:.2f}" y2="{HEIGHT - MARGIN + 5}" stroke="black"/>')
        parts.append(f'<text x="{px:.2f}" y="{HEIGHT - MARGIN + 20}" text-anchor="middle" font-size="11">{t:g}</text>')
    for t in _ticks(y_lo, y_hi):
        py = sy(t)
        parts.append(f'<line x1="{MARGIN - 5}" y1="{py:.2f}" x2="{MARGIN}" y2="{py:.2f}" stroke="black"/>')
        parts.append(f'<text x="{MARGIN - 8}" y="{py + 4:.2f}" text-anchor="end" font-size="11">{t:g}</text>')
    parts.append(
        f'<text x="{WIDTH / 2}" y="{HEIGHT - 15}" text-anchor="middle" font-size="13">{xlabel}</text>'
    )
    px = sx(x).tolist()
    for k, ((label, _), y) in enumerate(zip(curves, ys)):
        color = COLORS[k % len(COLORS)]
        pts = " ".join("%.2f,%.2f" % pair for pair in zip(px, sy(y).tolist()))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        parts.append(
            f'<text x="{WIDTH - MARGIN - 10}" y="{MARGIN + 18 * (k + 1)}" text-anchor="end" '
            f'font-size="13" fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


def plot_solution_table(table, path, title: str = "Blasius solution") -> None:
    if len(table) == 0:
        raise ValueError("cannot plot an empty table")
    curves = [("f", table.f), ("f'", table.fp), ("f''", table.fpp)]
    write_curves_svg(path, table.eta, curves, title=title)
