"""Minimal self-contained SVG emitter for solution curves.

Deliberately dependency-free: polylines, axis ticks, and labels only.
"""

from __future__ import annotations

import math

import numpy as np

WIDTH, HEIGHT = 720, 480
MARGIN = 60
COLORS = ("#1f77b4", "#d62728", "#2ca02c")


def _ticks(lo: float, hi: float):
    """The k * step in [lo, hi + 1e-12 (hi - lo)] for integer k, step the least
    of 1, 2, 5 and 10 times 10^n at or above (hi - lo) / 5.  A span whose fifth
    is subnormal or under 2^-50 max(|lo|, |hi|) gets the one tick lo: there the
    fifth has lost bits, or lo / step rounds by whole steps."""
    raw = (hi - lo) / 5
    if not raw >= max(2.0 ** -50 * max(abs(lo), abs(hi)), 2.0 ** -1022):
        return [lo]
    mag = 10.0 ** math.floor(math.log10(raw))
    step = min(s for s in (mag, 2 * mag, 5 * mag, 10 * mag) if s >= raw)
    first, last = math.ceil(lo / step), math.floor(hi / step + 1e-12 * (hi - lo) / step)
    return [k * step for k in range(first, last + 1)]


def _hundredths(v: np.ndarray) -> np.ndarray:
    """v rounded to whole hundredths, k = round(100 v), as "%.2f" % v rounds.

    For 0 <= v < 2^52, v = m 2^e (frexp) gives 100 v = n / 2^s exactly, with
    n = 100 m 2^53 < 2^63 and s = 53 - e >= 1.  Adding 2^(s-1) - 1, plus 1
    when n >> s is odd, carries into n >> s exactly when the remainder passes
    half or ties with n >> s odd: round half to even on the exact value.
    """
    m, e = np.frexp(v)
    n = 100 * (m * 2.0 ** 53).astype(np.int64)
    s = 53 - e
    return (n + (np.int64(1) << (s - 1)) - 1 + ((n >> s) & 1)) >> s


def _tokens(k: np.ndarray, sep: str) -> np.ndarray:
    """Rows of ASCII bytes "ddd.dd" + sep for hundredths k in [0, 99999]: 1-3
    integer digits, the unused leading places left as 0 bytes."""
    whole, frac = np.divmod(k, 100)
    out = np.empty((k.size, 7), dtype=np.uint8)
    out[:, 0] = np.where(whole >= 100, 48 + whole // 100, 0)
    out[:, 1] = np.where(whole >= 10, 48 + whole // 10 % 10, 0)
    out[:, 2] = 48 + whole % 10
    out[:, 3] = ord(".")
    out[:, 4] = 48 + frac // 10
    out[:, 5] = 48 + frac % 10
    out[:, 6] = ord(sep)
    return out


def plot_limits(x, curves):
    """x and the curves' y values as float arrays, and the plot's x_lo, x_hi
    and padded y_lo, y_hi.  Raises ValueError for what cannot be plotted: no
    values, a curve that does not match x, a non-finite value, a single x, or
    a range wider than the largest float."""
    x = np.asarray(x, dtype=float)
    if x.size == 0 or not curves:
        raise ValueError("cannot plot an empty table")
    ys = [np.asarray(c, dtype=float) for _, c in curves]
    for (label, _), y in zip(curves, ys):
        if y.shape != x.shape:
            raise ValueError(f"curve {label!r} has {y.size} values for {x.size} x")
    if not (np.isfinite(x).all() and all(np.isfinite(y).all() for y in ys)):
        raise ValueError("cannot plot non-finite values")
    x_lo, x_hi = float(np.min(x)), float(np.max(x))
    y_lo, y_hi = float(min(np.min(y) for y in ys)), float(max(np.max(y) for y in ys))
    if x_hi == x_lo:
        raise ValueError("degenerate x range")
    if y_hi == y_lo:
        # past 2^53, y_lo + 1.0 rounds back to y_lo
        y_hi = max(y_lo + 1.0, math.nextafter(y_lo, math.inf))
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    if not (math.isfinite(x_hi - x_lo) and math.isfinite(y_hi - y_lo)):
        raise ValueError("cannot plot a range wider than the largest float")
    return x, ys, (x_lo, x_hi, y_lo, y_hi)


def write_curves_svg(path, x, curves, title: str = "") -> None:
    """Write labeled polyline curves to an SVG file.

    `curves` is a list of (label, y-array); all share the x grid.
    """
    x, ys, (x_lo, x_hi, y_lo, y_hi) = plot_limits(x, curves)

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
        f'<text x="{WIDTH / 2}" y="{HEIGHT - 15}" text-anchor="middle" font-size="13">eta</text>'
    )
    # pixels lie in [MARGIN, WIDTH - MARGIN] x [MARGIN, HEIGHT - MARGIN], so
    # three integer digits always suffice; "x,y x,y ..." is each row of x and
    # y tokens with the 0 bytes dropped, less the final space
    x_tokens = _tokens(_hundredths(sx(x)), ",")
    for k, ((label, _), y) in enumerate(zip(curves, ys)):
        color = COLORS[k % len(COLORS)]
        buf = np.hstack([x_tokens, _tokens(_hundredths(sy(y)), " ")]).ravel()
        pts = buf[buf != 0].tobytes().decode("ascii")[:-1]
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        parts.append(
            f'<text x="{WIDTH - MARGIN - 10}" y="{MARGIN + 18 * (k + 1)}" text-anchor="end" '
            f'font-size="13" fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


def solution_curves(table) -> list:
    return [("f", table.f), ("f'", table.fp), ("f''", table.fpp)]


def plot_solution_table(table, path, title: str = "Blasius solution") -> None:
    write_curves_svg(path, table.eta, solution_curves(table), title=title)
