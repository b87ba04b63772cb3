"""Tiny deterministic SVG 1.1 line-chart writer (no plotting dependency).

Coordinates are formatted with fixed decimals so identical inputs always
produce identical bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

_WIDTH = 720.0
_PANEL_HEIGHT = 260.0


def _fmt(v: float) -> str:
    return format(float(v), ".3f")


@dataclass
class Curve:
    t: Sequence[float]
    y: Sequence[float]
    color: str = "#888888"
    width: float = 0.7
    opacity: float = 1.0


@dataclass
class Panel:
    title: str
    xlabel: str
    ylabel: str
    curves: list = field(default_factory=list)


def _panel_svg(panel: Panel, oy: float) -> str:
    """One panel, _WIDTH wide and _PANEL_HEIGHT high, with its top edge at oy."""
    pad_l, pad_r, pad_t, pad_b = 46.0, 12.0, 22.0, 30.0
    iw = _WIDTH - pad_l - pad_r
    ih = _PANEL_HEIGHT - pad_t - pad_b
    tmin = min(min(c.t) for c in panel.curves if len(c.t))
    tmax = max(max(c.t) for c in panel.curves if len(c.t))
    ymin = min(min(c.y) for c in panel.curves if len(c.y))
    ymax = max(max(c.y) for c in panel.curves if len(c.y))
    if tmax == tmin:
        tmax = tmin + 1.0
    if ymax == ymin:
        ymax = ymin + 1.0
    yspan = ymax - ymin
    ymin -= 0.05 * yspan
    ymax += 0.05 * yspan

    def sx(t):
        return pad_l + (t - tmin) / (tmax - tmin) * iw

    def sy(y):
        return oy + pad_t + (ymax - y) / (ymax - ymin) * ih

    out = []
    out.append(f'<rect x="{_fmt(pad_l)}" y="{_fmt(oy + pad_t)}" '
               f'width="{_fmt(iw)}" height="{_fmt(ih)}" fill="none" '
               f'stroke="#333333" stroke-width="0.8"/>')
    out.append(f'<text x="{_fmt(pad_l)}" y="{_fmt(oy + 14.0)}" '
               f'font-family="sans-serif" font-size="11">{panel.title}</text>')
    out.append(f'<text x="{_fmt(pad_l + 0.5 * iw)}" y="{_fmt(oy + _PANEL_HEIGHT - 8.0)}" '
               f'font-family="sans-serif" font-size="10" text-anchor="middle">'
               f'{panel.xlabel}</text>')
    out.append(f'<text x="{_fmt(12.0)}" y="{_fmt(oy + pad_t + 0.5 * ih)}" '
               f'font-family="sans-serif" font-size="10" text-anchor="middle" '
               f'transform="rotate(-90 {_fmt(12.0)} {_fmt(oy + pad_t + 0.5 * ih)})">'
               f'{panel.ylabel}</text>')
    for frac in (0.0, 0.5, 1.0):
        tv = tmin + frac * (tmax - tmin)
        yv = ymin + frac * (ymax - ymin)
        out.append(f'<text x="{_fmt(sx(tv))}" y="{_fmt(oy + pad_t + ih + 12.0)}" '
                   f'font-family="sans-serif" font-size="9" text-anchor="middle">'
                   f'{format(tv, ".3g")}</text>')
        out.append(f'<text x="{_fmt(pad_l - 4.0)}" y="{_fmt(sy(yv) + 3.0)}" '
                   f'font-family="sans-serif" font-size="9" text-anchor="end">'
                   f'{format(yv, ".3g")}</text>')
    for curve in panel.curves:
        if not len(curve.t):
            continue
        pts = " ".join(f"{_fmt(sx(t))},{_fmt(sy(y))}" for t, y in zip(curve.t, curve.y))
        out.append(f'<polyline points="{pts}" fill="none" stroke="{curve.color}" '
                   f'stroke-width="{_fmt(curve.width)}" '
                   f'stroke-opacity="{_fmt(curve.opacity)}"/>')
    return "\n".join(out)


def render_panels(panels: Sequence[Panel]) -> str:
    """The panels stacked top to bottom, each 720 wide and 260 high."""
    total_h = _PANEL_HEIGHT * len(panels)
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(_WIDTH)}" height="{_fmt(total_h)}" '
        f'viewBox="0 0 {_fmt(_WIDTH)} {_fmt(total_h)}">',
        f'<rect x="0" y="0" width="{_fmt(_WIDTH)}" height="{_fmt(total_h)}" fill="#ffffff"/>',
    ]
    for k, panel in enumerate(panels):
        parts.append(_panel_svg(panel, k * _PANEL_HEIGHT))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
