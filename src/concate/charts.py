"""Dependency-free SVG rendering of a threshold scan.

The chart is written directly as SVG markup: a filled envelope between
the band endpoints, a polyline through the identified-interval midpoints,
and a dashed zero line.  Output is deterministic (no timestamps), so two
identical scans produce byte-identical files.
"""

from __future__ import annotations

from html import escape
from pathlib import Path

from .sequential import ScanResult

WIDTH = 720
HEIGHT = 440
MARGIN_LEFT = 64
MARGIN_RIGHT = 24
MARGIN_TOP = 40
MARGIN_BOTTOM = 48


def _ticks(lo: float, hi: float, count: int = 6) -> list[float]:
    if hi <= lo:
        return [lo]
    span = hi - lo
    raw = span / count
    magnitude = 10.0 ** int(f"{raw:e}".split("e")[1])
    for step in (magnitude, 2 * magnitude, 2.5 * magnitude, 5 * magnitude, 10 * magnitude):
        if span / step <= count:
            break
    first = step * (int(lo / step) - 1)
    ticks = []
    t = first
    while t <= hi + 0.5 * step:
        if lo - 1e-12 <= t <= hi + 1e-12:
            ticks.append(round(t, 10))
        t += step
    return ticks or [lo]


def render_band_chart(result: ScanResult, path: str | Path) -> None:
    """Write the scan to an SVG file.

    Only retained thresholds are drawn; skipped thresholds leave visible
    gaps on the threshold axis.
    """
    retained = [r for r in result.rows if r.band is not None]
    if not retained:
        raise ValueError("nothing to draw: every threshold was skipped")
    taus = [r.tau for r in retained]
    lowers = [r.band.band_lower for r in retained]
    uppers = [r.band.band_upper for r in retained]
    mids = [(r.band.region_lower + r.band.region_upper) / 2.0 for r in retained]

    x_lo, x_hi = min(result.rows[0].tau, taus[0]), max(result.rows[-1].tau, taus[-1])
    y_lo, y_hi = min(lowers + [0.0]), max(uppers + [0.0])
    pad = 0.05 * (y_hi - y_lo or 1.0)
    y_lo -= pad
    y_hi += pad

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def sx(tau: float) -> float:
        return MARGIN_LEFT + plot_w * (tau - x_lo) / (x_hi - x_lo or 1.0)

    def sy(val: float) -> float:
        return MARGIN_TOP + plot_h * (y_hi - val) / (y_hi - y_lo)

    def pts(xs: list[float], ys: list[float]) -> str:
        return " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))

    envelope = pts(taus, uppers) + " " + pts(list(reversed(taus)), list(reversed(lowers)))
    midline = pts(taus, mids)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<polygon points="{envelope}" fill="#9ecae1" fill-opacity="0.45" stroke="none"/>',
    ]
    zero_y = sy(0.0)
    parts.append(
        f'<line x1="{MARGIN_LEFT}" y1="{zero_y:.2f}" x2="{WIDTH - MARGIN_RIGHT}" '
        f'y2="{zero_y:.2f}" stroke="#888888" stroke-dasharray="5,4" stroke-width="1"/>'
    )
    parts.append(
        f'<polyline points="{pts(taus, uppers)}" fill="none" stroke="#2171b5" stroke-width="1.5"/>'
    )
    parts.append(
        f'<polyline points="{pts(taus, lowers)}" fill="none" stroke="#2171b5" stroke-width="1.5"/>'
    )
    parts.append(
        f'<polyline points="{midline}" fill="none" stroke="#08306b" stroke-width="2"/>'
    )
    # axes
    x_axis_y = MARGIN_TOP + plot_h
    parts.append(
        f'<line x1="{MARGIN_LEFT}" y1="{x_axis_y}" x2="{WIDTH - MARGIN_RIGHT}" '
        f'y2="{x_axis_y}" stroke="black" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{MARGIN_LEFT}" y1="{MARGIN_TOP}" x2="{MARGIN_LEFT}" '
        f'y2="{x_axis_y}" stroke="black" stroke-width="1"/>'
    )
    for row in result.rows:
        x = sx(row.tau)
        parts.append(
            f'<line x1="{x:.2f}" y1="{x_axis_y}" x2="{x:.2f}" y2="{x_axis_y + 5}" '
            f'stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{x_axis_y + 18}" font-size="11" '
            f'text-anchor="middle" font-family="sans-serif">{row.tau:g}</text>'
        )
        if row.skipped:
            parts.append(
                f'<text x="{x:.2f}" y="{x_axis_y - 6}" font-size="11" fill="#c44" '
                f'text-anchor="middle" font-family="sans-serif">&#215;</text>'
            )
    for tick in _ticks(y_lo, y_hi):
        y = sy(tick)
        parts.append(
            f'<line x1="{MARGIN_LEFT - 5}" y1="{y:.2f}" x2="{MARGIN_LEFT}" y2="{y:.2f}" '
            f'stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{MARGIN_LEFT - 9}" y="{y + 4:.2f}" font-size="11" '
            f'text-anchor="end" font-family="sans-serif">{tick:g}</text>'
        )
    label = f"{result.method} band, alpha {result.alpha:g}"
    parts.append(
        f'<text x="{MARGIN_LEFT}" y="{MARGIN_TOP - 14}" font-size="14" '
        f'font-family="sans-serif">{escape(label, quote=False)}</text>'
    )
    parts.append(
        f'<text x="{(MARGIN_LEFT + WIDTH - MARGIN_RIGHT) // 2}" y="{HEIGHT - 10}" '
        f'font-size="12" text-anchor="middle" font-family="sans-serif">diversity threshold (%)</text>'
    )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")
