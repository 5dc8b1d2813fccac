"""Static SVG diagrams: the graph of the map and orbit-of-a-component plots.

Coordinates are exact rationals, integer numerators over the map's grid,
scaled to the viewport and formatted with a fixed precision, so identical
inputs yield byte-identical files.
"""

from __future__ import annotations

from bisect import bisect_right

from .itm import ItmMap
from .return_map import ReturnMapData

SIZE = 720
MARGIN = 40
SPAN = SIZE - 2 * MARGIN

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _fmt(v: float) -> str:
    return f"{v:.4f}".rstrip("0").rstrip(".")


def _sx(k: int, d: int) -> str:
    """The viewport x of ``k/d``; int division rounds exactly once."""
    return _fmt((MARGIN * d + k * SPAN) / d)


def _sy(k: int, d: int) -> str:
    return _fmt(((SIZE - MARGIN) * d - k * SPAN) / d)


def _svg(body: list[str]) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE}" height="{SIZE}" '
        f'viewBox="0 0 {SIZE} {SIZE}">'
    )
    return "\n".join([head] + body + ["</svg>"]) + "\n"


def render_map(m: ItmMap) -> str:
    """Graph of T on [0,1)^2: slope-1 branch segments over a dashed diagonal."""
    q, cuts, gamma = m.grid
    body = [
        f'<rect x="{MARGIN}" y="{MARGIN}" width="{SPAN}" '
        f'height="{SPAN}" fill="white" stroke="black"/>',
        f'<line x1="{_sx(0, 1)}" y1="{_sy(0, 1)}" '
        f'x2="{_sx(1, 1)}" y2="{_sy(1, 1)}" '
        'stroke="#999999" stroke-dasharray="6,4"/>',
    ]
    for i in range(1, m.r + 1):
        l, r = cuts[i - 1], cuts[i]
        g = gamma[i - 1]
        color = PALETTE[(i - 1) % len(PALETTE)]
        body.append(
            f'<line x1="{_sx(l, q)}" y1="{_sy(l + g, q)}" x2="{_sx(r, q)}" y2="{_sy(r + g, q)}" '
            f'stroke="{color}" stroke-width="2.5"/>'
        )
        body.append(f'<circle cx="{_sx(l, q)}" cy="{_sy(l + g, q)}" r="4" fill="{color}"/>')
        body.append(
            f'<circle cx="{_sx(r, q)}" cy="{_sy(r + g, q)}" r="4" fill="white" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
    for b in cuts[1:-1]:
        body.append(
            f'<line x1="{_sx(b, q)}" y1="{_sy(0, 1)}" x2="{_sx(b, q)}" '
            f'y2="{_sy(1, 1)}" stroke="#cccccc" stroke-dasharray="2,4"/>'
        )
    return _svg(body)


def render_orbit(data: ReturnMapData) -> str:
    """Orbit of the attractor component whose return map is ``data``: one
    row per time step, a bar per continuity interval, ending at each
    interval's return. Each bar moves by the translation of the branch
    its left end (taken from the right) lies in."""
    q, cuts, gamma = data.grid
    rows = max(data.return_times) + 1
    row_h = SPAN / rows
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
        left = data.kcuts[j - 1]
        width = _fmt((data.kcuts[j] - left) * SPAN / q)
        for t in range(data.return_times[j - 1] + 1):
            y = MARGIN + t * row_h + row_h / 2
            body.append(
                f'<rect x="{_sx(left, q)}" y="{_fmt(y - bar / 2)}" width="{width}" '
                f'height="{_fmt(bar)}" fill="{color}" fill-opacity="0.55"/>'
            )
            left += gamma[bisect_right(cuts, left) - 1]
    for k in (data.kcuts[0], data.kcuts[-1]):
        body.append(
            f'<line x1="{_sx(k, q)}" y1="{MARGIN}" x2="{_sx(k, q)}" y2="{SIZE - MARGIN}" '
            'stroke="#333333" stroke-dasharray="4,3"/>'
        )
    return _svg(body)
