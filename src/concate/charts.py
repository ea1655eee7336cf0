"""Dependency-free SVG rendering of a threshold scan.

The chart is written directly as SVG markup: a filled envelope between
the band endpoints, a polyline through the identified-interval midpoints,
and a dashed zero line.  Output is deterministic (no timestamps), so two
identical scans produce byte-identical files.
"""

from __future__ import annotations

from html import escape
from math import ceil, floor
from pathlib import Path

from .sequential import ScanResult

WIDTH = 720
HEIGHT = 440
MARGIN_LEFT = 64
MARGIN_RIGHT = 24
MARGIN_TOP = 40
MARGIN_BOTTOM = 48


def _ticks(lo: float, hi: float, count: int = 6) -> list[float]:
    """The multiples in [lo, hi] of a step of 1, 2, 2.5 or 5 times a power of
    10, about ``count`` of them; each is ``k * step`` at any scale."""
    if hi <= lo:
        return [lo]
    span = hi - lo
    magnitude = 10.0 ** int(f"{span / count:e}".split("e")[1])
    for step in (magnitude, 2 * magnitude, 2.5 * magnitude, 5 * magnitude, 10 * magnitude):
        if span / step <= count:
            break
    return [k * step for k in range(ceil(lo / step), floor(hi / step) + 1)] or [lo]


def _attrs(**values: object) -> str:
    """``name="value"`` pairs in the order given, None values left out: a
    float to 2 decimals, and an underscore in a name written as a hyphen."""
    return " ".join(
        f'{name.replace("_", "-")}="{format(value, ".2f") if isinstance(value, float) else value}"'
        for name, value in values.items() if value is not None
    )


def _line(x1: float, y1: float, x2: float, y2: float, stroke: str = "black",
          dash: str | None = None) -> str:
    attrs = _attrs(x1=x1, y1=y1, x2=x2, y2=y2, stroke=stroke, stroke_dasharray=dash)
    return f'<line {attrs} stroke-width="1"/>'


def _text(x: float, y: float, body: str, size: int = 11, anchor: str | None = "middle",
          fill: str | None = None) -> str:
    attrs = _attrs(x=x, y=y, font_size=size, fill=fill, text_anchor=anchor)
    return f'<text {attrs} font-family="sans-serif">{body}</text>'


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
    y_lo, y_hi = y_lo - pad, y_hi + pad

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM
    x_axis_y = MARGIN_TOP + plot_h

    def sx(tau: float) -> float:
        return MARGIN_LEFT + plot_w * (tau - x_lo) / (x_hi - x_lo or 1.0)

    def sy(val: float) -> float:
        return MARGIN_TOP + plot_h * (y_hi - val) / (y_hi - y_lo)

    def pts(xs: list[float], ys: list[float]) -> str:
        return " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))

    polylines = ((uppers, "#2171b5", "1.5"), (lowers, "#2171b5", "1.5"), (mids, "#08306b", "2"))
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<polygon points="{pts(taus + taus[::-1], uppers + lowers[::-1])}" fill="#9ecae1" '
        'fill-opacity="0.45" stroke="none"/>',
        _line(MARGIN_LEFT, sy(0.0), WIDTH - MARGIN_RIGHT, sy(0.0), "#888888", dash="5,4"),
        *(f'<polyline points="{pts(taus, ys)}" fill="none" stroke="{stroke}" '
          f'stroke-width="{width}"/>' for ys, stroke, width in polylines),
        _line(MARGIN_LEFT, x_axis_y, WIDTH - MARGIN_RIGHT, x_axis_y),
        _line(MARGIN_LEFT, MARGIN_TOP, MARGIN_LEFT, x_axis_y),
    ]
    for row in result.rows:
        x = sx(row.tau)
        parts += [_line(x, x_axis_y, x, x_axis_y + 5), _text(x, x_axis_y + 18, f"{row.tau:g}")]
        if row.skipped:
            parts.append(_text(x, x_axis_y - 6, "&#215;", fill="#c44"))
    for tick in _ticks(y_lo, y_hi):
        y = sy(tick)
        parts += [_line(MARGIN_LEFT - 5, y, MARGIN_LEFT, y),
                  _text(MARGIN_LEFT - 9, y + 4, f"{tick:g}", anchor="end")]
    label = escape(f"{result.method} band, alpha {result.alpha:g}", quote=False)
    parts += [
        _text(MARGIN_LEFT, MARGIN_TOP - 14, label, size=14, anchor=None),
        _text((MARGIN_LEFT + WIDTH - MARGIN_RIGHT) // 2, HEIGHT - 10, "diversity threshold (%)",
              size=12),
        "</svg>",
    ]
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")
