"""Deterministic SVG rendering for scenes and benchmark charts.

Output is plain text built from sorted inputs with every coordinate printed
at six decimal places, so the same scene always yields byte-identical SVG.
A scene's title, its object colors and chart variant names are XML-escaped (``_escape``).
World coordinates have y up; SVG has y down, so the vertical axis is flipped
around the workspace top edge.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from .checks import real, require
from .geometry import Bounds, Vec2
from .scene import Scene

PALETTE = (
    "#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f",
    "#edc948", "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac",
)

_MARGIN = 20.0
# Benchmark chart size in pixels: room for two 320 x 240 panels side by side.
_CHART_WIDTH, _CHART_HEIGHT = 840.0, 340.0


@dataclass(frozen=True, slots=True)
class RenderStyle:
    """Goal outlines on or off, and pixels per meter: ``show_goals`` a bool and ``scale`` finite and
    positive; a ``ValueError`` quotes the field that breaks its rule."""

    show_goals: bool = True
    scale: float = 560.0

    def __post_init__(self) -> None:
        require(isinstance(self.show_goals, bool), "show_goals", "be True or False", self.show_goals)
        require(real(self.scale) > 0.0, "scale", "be finite and positive", self.scale)


def _fmt(x: float) -> str:
    s = f"{x:.6f}"
    # normalize negative zero so identical geometry never differs in text
    return "0.000000" if s == "-0.000000" else s


# Every character outside XML 1.0's ``Char`` production: most C0 controls,
# lone surrogates, U+FFFE and U+FFFF.
_NOT_XML_CHAR = re.compile("[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")


def _escape(text: str) -> str:
    """``text`` with U+FFFD for each character XML 1.0 cannot hold, then ``&``, ``<`` and
    ``>`` as entities, as ``xml.sax.saxutils.escape`` gives them.  That module is not used:
    it imports ``urllib.request``, about 40 ms and 7 MB for every command that renders."""
    return _NOT_XML_CHAR.sub("\ufffd", text).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def object_color(scene: Scene, i: int) -> str:
    c = scene.objects[i].color
    return c if c is not None else PALETTE[i % len(PALETTE)]


def render_scene(
    scene: Scene,
    style: Optional[RenderStyle] = None,
    title: str = "",
    gripper: Optional[Vec2] = None,
) -> str:
    """Render current footprints (filled), goal footprints (dashed) and, when
    ``gripper`` is given, a cross where the gripper set its object down."""
    if style is None:
        style = RenderStyle()
    ws = scene.workspace.bounds
    wlx, wly, whx, why = ws
    scale = style.scale
    width = (whx - wlx) * scale + 2.0 * _MARGIN
    height = (why - wly) * scale + 2.0 * _MARGIN

    def to_px(x: float, y: float) -> tuple[float, float]:
        return _MARGIN + (x - wlx) * scale, _MARGIN + (why - y) * scale

    def rect_attrs(b: Bounds) -> str:
        lx, ly, hx, hy = b
        x, y = to_px(lx, hy)
        return (
            f'x="{_fmt(x)}" y="{_fmt(y)}" '
            f'width="{_fmt((hx - lx) * scale)}" height="{_fmt((hy - ly) * scale)}"'
        )

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
        f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
        f'<rect {rect_attrs(ws)} fill="#ffffff" stroke="#000000" stroke-width="1.5"/>',
    ]
    colors = [_escape(object_color(scene, i)).replace('"', "&quot;") for i in range(scene.n)]
    if style.show_goals:
        for i, goal in enumerate(scene.goal_footprints):
            parts.append(
                f'<rect {rect_attrs(goal)} fill="none" stroke="{colors[i]}" '
                f'stroke-width="1" stroke-dasharray="4 3"/>'
            )
    for i, foot in enumerate(scene.footprints):
        parts.append(
            f'<rect {rect_attrs(foot)} fill="{colors[i]}" fill-opacity="0.85" '
            f'stroke="#000000" stroke-width="1"/>'
        )
        cx, cy = to_px(scene.current[i].x, scene.current[i].y)
        parts.append(
            f'<text x="{_fmt(cx)}" y="{_fmt(cy)}" font-family="monospace" font-size="11" '
            f'fill="#000000" text-anchor="middle" dominant-baseline="central">{i}</text>'
        )
    if gripper is not None:
        gx, gy = to_px(gripper.x, gripper.y)
        parts.append(
            f'<path d="M {_fmt(gx - 6)} {_fmt(gy)} H {_fmt(gx + 6)} '
            f'M {_fmt(gx)} {_fmt(gy - 6)} V {_fmt(gy + 6)}" '
            f'stroke="#000000" stroke-width="1.5" fill="none"/>'
        )
    if title:
        parts.append(
            f'<text x="{_fmt(_MARGIN)}" y="{_fmt(14.0)}" font-family="monospace" '
            f'font-size="12" fill="#000000">{_escape(title)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_benchmark_charts(summary: dict) -> str:
    """Two grouped bar panels: mean plan cost and mean action count per N."""
    cells = summary["cells"]
    counts = sorted({c["n"] for c in cells})
    variants: list[str] = []
    for c in cells:
        if c["variant"] not in variants:
            variants.append(c["variant"])
    by_cell = {(c["variant"], c["n"]): c for c in cells}

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(_CHART_WIDTH)}" height="{_fmt(_CHART_HEIGHT)}" '
        f'viewBox="0 0 {_fmt(_CHART_WIDTH)} {_fmt(_CHART_HEIGHT)}">',
        f'<rect x="0" y="0" width="{_fmt(_CHART_WIDTH)}" height="{_fmt(_CHART_HEIGHT)}" fill="#ffffff"/>',
    ]

    def bar_panel(x0: float, title: str, key: str) -> None:
        y0, pw, ph = 40.0, 320.0, 240.0
        parts.append(
            f'<text x="{_fmt(x0 + pw / 2)}" y="{_fmt(y0 - 10)}" font-family="monospace" '
            f'font-size="13" fill="#000000" text-anchor="middle">{title}</text>'
        )
        parts.append(
            f'<rect x="{_fmt(x0)}" y="{_fmt(y0)}" width="{_fmt(pw)}" height="{_fmt(ph)}" '
            f'fill="none" stroke="#888888" stroke-width="1"/>'
        )
        top = max(by_cell[(v, n)][key] for v in variants for n in counts) * 1.2
        if top <= 0.0:
            top = 1.0
        for i in range(5):
            tick = top * i / 4
            ty = y0 + ph - (tick / top) * ph
            parts.append(
                f'<line x1="{_fmt(x0 - 4)}" y1="{_fmt(ty)}" x2="{_fmt(x0)}" y2="{_fmt(ty)}" '
                f'stroke="#888888" stroke-width="1"/>'
            )
            parts.append(
                f'<text x="{_fmt(x0 - 8)}" y="{_fmt(ty)}" font-family="monospace" font-size="10" '
                f'fill="#000000" text-anchor="end" dominant-baseline="central">{tick:.2f}</text>'
            )
        group_w = pw / (len(counts) + 1)
        bar_w = group_w * 0.8 / max(len(variants), 1)
        for gi, n in enumerate(counts):
            gx = x0 + group_w * (gi + 1)
            for vi, v in enumerate(variants):
                val = by_cell[(v, n)][key]
                bar_h = (val / top) * ph
                bx = gx - (len(variants) * bar_w) / 2 + vi * bar_w
                color = PALETTE[vi % len(PALETTE)]
                parts.append(
                    f'<rect x="{_fmt(bx)}" y="{_fmt(y0 + ph - bar_h)}" width="{_fmt(bar_w)}" '
                    f'height="{_fmt(bar_h)}" fill="{color}"/>'
                )
            parts.append(
                f'<text x="{_fmt(gx)}" y="{_fmt(y0 + ph + 16)}" font-family="monospace" '
                f'font-size="11" fill="#000000" text-anchor="middle">N={n}</text>'
            )
        for vi, v in enumerate(variants):
            color = PALETTE[vi % len(PALETTE)]
            ly = y0 + 16 + 16 * vi
            parts.append(
                f'<rect x="{_fmt(x0 + 10)}" y="{_fmt(ly - 5)}" width="10" height="10" fill="{color}"/>'
            )
            parts.append(
                f'<text x="{_fmt(x0 + 26)}" y="{_fmt(ly)}" font-family="monospace" font-size="11" '
                f'fill="#000000" dominant-baseline="central">{_escape(v)}</text>'
            )

    bar_panel(70.0, "mean plan cost", "mean_cost")
    bar_panel(470.0, "mean actions", "mean_actions")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
