"""Minimal deterministic SVG writer: enough line/bar/scatter primitives for
the report plots, with no plotting dependency. All coordinates and labels are
rendered with 6 significant digits so identical inputs give identical bytes.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, TextIO, Tuple


def fmt(value: float) -> str:
    return format(float(value), ".6g")


def si(value: float) -> str:
    """Label helper: 2.5e9 -> '2.5G'."""
    if value == 0:
        return "0"
    suffixes = [(1e15, "P"), (1e12, "T"), (1e9, "G"), (1e6, "M"), (1e3, "k")]
    for scale, suffix in suffixes:
        if abs(value) >= scale:
            return fmt(value / scale) + suffix
    return fmt(value)


class Canvas:
    def __init__(self, width: int, height: int):
        self.width = width
        self.height = height
        self._parts: List[str] = []
        self._started = False

    def rect(self, x, y, w, h, fill, stroke=None, opacity=None):
        attrs = f'x="{fmt(x)}" y="{fmt(y)}" width="{fmt(w)}" height="{fmt(h)}" fill="{fill}"'
        if stroke:
            attrs += f' stroke="{stroke}"'
        if opacity is not None:
            attrs += f' fill-opacity="{fmt(opacity)}"'
        self._parts.append(f"<rect {attrs}/>")

    def line(self, x1, y1, x2, y2, stroke="#444", width=1.0, dash=None):
        attrs = (
            f'x1="{fmt(x1)}" y1="{fmt(y1)}" x2="{fmt(x2)}" y2="{fmt(y2)}" '
            f'stroke="{stroke}" stroke-width="{fmt(width)}"'
        )
        if dash:
            attrs += f' stroke-dasharray="{dash}"'
        self._parts.append(f"<line {attrs}/>")

    def polyline(self, points: Sequence[Tuple[float, float]], stroke, width=1.5):
        coords = " ".join(f"{fmt(x)},{fmt(y)}" for x, y in points)
        self._parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{stroke}" stroke-width="{fmt(width)}"/>'
        )

    def circle(self, cx, cy, r, fill, stroke=None):
        attrs = f'cx="{fmt(cx)}" cy="{fmt(cy)}" r="{fmt(r)}" fill="{fill}"'
        if stroke:
            attrs += f' stroke="{stroke}"'
        self._parts.append(f"<circle {attrs}/>")

    def text(self, x, y, content, size=11, anchor="start", color="#222", rotate=None):
        transform = ""
        if rotate is not None:
            transform = f' transform="rotate({fmt(rotate)} {fmt(x)} {fmt(y)})"'
        self._parts.append(
            f'<text x="{fmt(x)}" y="{fmt(y)}" font-size="{fmt(size)}" '
            f'font-family="sans-serif" text-anchor="{anchor}" fill="{color}"{transform}>'
            f"{escape(content)}</text>"
        )

    def _head(self) -> str:
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width}" '
            f'height="{self.height}" viewBox="0 0 {self.width} {self.height}">\n'
            f'<rect width="{self.width}" height="{self.height}" fill="#ffffff"/>\n'
        )

    def to_svg(self) -> str:
        return self._head() + "".join(f"{part}\n" for part in self._parts) + "</svg>\n"

    def write(self, out: TextIO, end: bool = False) -> None:
        """Stream the chart: the first call writes the <svg> head, every call
        the parts drawn since the previous one (which are then dropped), and
        the call with end=True the closing tag. Lines written straight to
        `out` between two calls land between those parts."""
        if not self._started:
            out.write(self._head())
            self._started = True
        out.write("".join(f"{part}\n" for part in self._parts))
        self._parts.clear()
        if end:
            out.write("</svg>\n")


def escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


class LogScale:
    def __init__(self, lo: float, hi: float, out_lo: float, out_hi: float):
        if lo <= 0 or hi <= lo:
            raise ValueError(f"log scale needs 0 < lo < hi, got [{lo}, {hi}]")
        self.lo, self.hi = lo, hi
        self.out_lo = out_lo
        # The constant terms of __call__, computed once per scale.
        self._log_lo = math.log10(lo)
        self._log_span = math.log10(hi) - self._log_lo
        self._out_span = out_hi - out_lo

    def __call__(self, value: float) -> float:
        frac = (math.log10(value) - self._log_lo) / self._log_span
        return self.out_lo + frac * self._out_span

    def ticks(self) -> List[float]:
        first = math.floor(math.log10(self.lo))
        last = math.ceil(math.log10(self.hi))
        return [10.0**e for e in range(first, last + 1) if self.lo <= 10.0**e <= self.hi]


def draw_frame(
    canvas: Canvas,
    x0: float,
    y0: float,
    x1: float,
    y1: float,
    title: Optional[str] = None,
    x_label: Optional[str] = None,
    y_label: Optional[str] = None,
    xs: Optional[LogScale] = None,
    ys: Optional[LogScale] = None,
):
    """Plot frame: border plus optional title, axis labels and, for each
    scale given, its decade ticks. The plotting area is (x0, y0) top-left to
    (x1, y1) bottom-right."""
    canvas.rect(x0, y0, x1 - x0, y1 - y0, fill="none", stroke="#999")
    if title:
        canvas.text((x0 + x1) / 2, y0 - 8, title, size=12, anchor="middle")
    if x_label:
        canvas.text((x0 + x1) / 2, y1 + 32, x_label, anchor="middle")
    if y_label:
        canvas.text(x0 - 46, (y0 + y1) / 2, y_label, anchor="middle", rotate=-90)
    for tick in xs.ticks() if xs else ():
        canvas.line(xs(tick), y1, xs(tick), y1 + 4)
        canvas.text(xs(tick), y1 + 16, si(tick), size=9, anchor="middle")
    for tick in ys.ticks() if ys else ():
        canvas.line(x0 - 4, ys(tick), x0, ys(tick))
        canvas.text(x0 - 6, ys(tick) + 3, si(tick), size=9, anchor="end")
