"""Static SVG diagrams: the graph of the map and orbit-of-a-component plots.

Coordinates are exact rationals scaled to the viewport and formatted with a
fixed precision, so identical inputs yield byte-identical files.
"""

from __future__ import annotations

from fractions import Fraction

from .intervals import PLUS, SignedPoint
from .itm import ItmMap
from .return_map import ReturnMapData

SIZE = 720
MARGIN = 40

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _fmt(v: Fraction | float) -> str:
    return f"{float(v):.4f}".rstrip("0").rstrip(".")


def _sx(x: Fraction) -> str:
    return _fmt(MARGIN + x * (SIZE - 2 * MARGIN))


def _sy(y: Fraction) -> str:
    return _fmt(SIZE - MARGIN - y * (SIZE - 2 * MARGIN))


def _svg(body: list[str]) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE}" height="{SIZE}" '
        f'viewBox="0 0 {SIZE} {SIZE}">'
    )
    return "\n".join([head] + body + ["</svg>"]) + "\n"


def render_map(m: ItmMap) -> str:
    """Graph of T on [0,1)^2: slope-1 branch segments over a dashed diagonal."""
    body = [
        f'<rect x="{MARGIN}" y="{MARGIN}" width="{SIZE - 2 * MARGIN}" '
        f'height="{SIZE - 2 * MARGIN}" fill="white" stroke="black"/>',
        f'<line x1="{_sx(Fraction(0))}" y1="{_sy(Fraction(0))}" '
        f'x2="{_sx(Fraction(1))}" y2="{_sy(Fraction(1))}" '
        'stroke="#999999" stroke-dasharray="6,4"/>',
    ]
    cuts = m.cuts()
    for i in range(1, m.r + 1):
        l, r = cuts[i - 1], cuts[i]
        g = m.gamma[i - 1]
        color = PALETTE[(i - 1) % len(PALETTE)]
        body.append(
            f'<line x1="{_sx(l)}" y1="{_sy(l + g)}" x2="{_sx(r)}" y2="{_sy(r + g)}" '
            f'stroke="{color}" stroke-width="2.5"/>'
        )
        body.append(f'<circle cx="{_sx(l)}" cy="{_sy(l + g)}" r="4" fill="{color}"/>')
        body.append(
            f'<circle cx="{_sx(r)}" cy="{_sy(r + g)}" r="4" fill="white" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
    for b in m.beta:
        body.append(
            f'<line x1="{_sx(b)}" y1="{_sy(Fraction(0))}" x2="{_sx(b)}" '
            f'y2="{_sy(Fraction(1))}" stroke="#cccccc" stroke-dasharray="2,4"/>'
        )
    return _svg(body)


def render_orbit(m: ItmMap, data: ReturnMapData) -> str:
    """Orbit of the attractor component whose return map is ``data``: one
    row per time step, a bar per continuity interval, ending at each
    interval's return."""
    rows = max(data.return_times) + 1
    row_h = (SIZE - 2 * MARGIN) / rows
    bar = min(14.0, row_h * 0.6)
    body = [
        f'<rect x="0" y="0" width="{SIZE}" height="{SIZE}" fill="white"/>',
    ]
    for t in range(rows):
        y = MARGIN + t * row_h + row_h / 2
        body.append(
            f'<line x1="{MARGIN}" y1="{_fmt(y)}" x2="{SIZE - MARGIN}" y2="{_fmt(y)}" '
            'stroke="#eeeeee"/>'
        )
        body.append(
            f'<text x="{MARGIN - 30}" y="{_fmt(y + 4)}" font-size="12" '
            f'fill="#555555">{t}</text>'
        )
    for j in range(1, data.n_intervals + 1):
        color = PALETTE[(j - 1) % len(PALETTE)]
        cur_l = data.cut_points[j - 1]
        cur_r = data.cut_points[j]
        for t in range(data.return_times[j - 1] + 1):
            y = MARGIN + t * row_h + row_h / 2
            body.append(
                f'<rect x="{_sx(cur_l)}" y="{_fmt(y - bar / 2)}" '
                f'width="{_fmt((cur_r - cur_l) * (SIZE - 2 * MARGIN))}" '
                f'height="{_fmt(bar)}" fill="{color}" fill-opacity="0.55"/>'
            )
            if t < data.return_times[j - 1]:
                g = m.gamma[m.branch_of(SignedPoint(cur_l, PLUS)) - 1]
                cur_l, cur_r = cur_l + g, cur_r + g
    for b in (data.cut_points[0], data.cut_points[-1]):
        body.append(
            f'<line x1="{_sx(b)}" y1="{MARGIN}" x2="{_sx(b)}" y2="{SIZE - MARGIN}" '
            'stroke="#333333" stroke-dasharray="4,3"/>'
        )
    return _svg(body)
