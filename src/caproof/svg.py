"""Minimal deterministic SVG writer: enough line/bar/scatter primitives for
the report plots, with no plotting dependency. All coordinates and labels are
rendered with 6 significant digits so identical inputs give identical bytes.
"""

from __future__ import annotations

import io
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
    """An SVG chart written to `out` as it is drawn and closed by close(); made
    without `out`, it draws into a string that to_svg returns."""

    def __init__(self, width: int, height: int, out: Optional[TextIO] = None):
        self._out = io.StringIO() if out is None else out
        self._out.write(f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
                        f'height="{height}" viewBox="0 0 {width} {height}">\n'
                        f'<rect width="{width}" height="{height}" fill="#ffffff"/>\n')

    def _element(self, tag, attrs, content=None):
        """Draw one element: its (name, value) pairs in order, numbers through fmt,
        strings verbatim and None left out, then the escaped content, if any."""
        pairs = " ".join(f'{name}="{value if isinstance(value, str) else fmt(value)}"'
                         for name, value in attrs if value is not None)
        self._out.write(f"<{tag} {pairs}/>\n" if content is None
                        else f"<{tag} {pairs}>{escape(content)}</{tag}>\n")

    def rect(self, x, y, w, h, fill, stroke=None, opacity=None):
        self._element("rect", [("x", x), ("y", y), ("width", w), ("height", h), ("fill", fill),
                               ("stroke", stroke or None), ("fill-opacity", opacity)])

    def line(self, x1, y1, x2, y2, stroke="#444", width=1.0, dash=None):
        self._element("line", [("x1", x1), ("y1", y1), ("x2", x2), ("y2", y2), ("stroke", stroke),
                               ("stroke-width", width), ("stroke-dasharray", dash or None)])

    def polyline(self, points: Sequence[Tuple[float, float]], stroke, width=1.5):
        coords = " ".join(f"{fmt(x)},{fmt(y)}" for x, y in points)
        self._element("polyline", [("points", coords), ("fill", "none"), ("stroke", stroke),
                                   ("stroke-width", width)])

    def circle(self, cx, cy, r, fill, stroke=None):
        self._element("circle", [("cx", cx), ("cy", cy), ("r", r), ("fill", fill),
                                 ("stroke", stroke or None)])

    def text(self, x, y, content, size=11, anchor="start", color="#222", rotate=None):
        transform = None if rotate is None else f"rotate({fmt(rotate)} {fmt(x)} {fmt(y)})"
        self._element("text", [("x", x), ("y", y), ("font-size", size),
                               ("font-family", "sans-serif"), ("text-anchor", anchor),
                               ("fill", color), ("transform", transform)], content)

    def close(self) -> None:
        """Write the closing tag."""
        self._out.write("</svg>\n")

    def to_svg(self) -> str:
        """Close a canvas drawn without `out` and return the whole chart."""
        self.close()
        return self._out.getvalue()


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
    title: str,
    y_label: str,
    ys: LogScale,
    x_label: Optional[str] = None,
    xs: Optional[LogScale] = None,
):
    """Plot frame: border, title, y label and the y scale's decade ticks,
    plus the x label and the x scale's ticks when given (the bar panels have
    neither). The plotting area is (x0, y0) top-left to (x1, y1) bottom-right."""
    canvas.rect(x0, y0, x1 - x0, y1 - y0, fill="none", stroke="#999")
    canvas.text((x0 + x1) / 2, y0 - 8, title, size=12, anchor="middle")
    if x_label:
        canvas.text((x0 + x1) / 2, y1 + 32, x_label, anchor="middle")
    canvas.text(x0 - 46, (y0 + y1) / 2, y_label, anchor="middle", rotate=-90)
    for tick in xs.ticks() if xs else ():
        canvas.line(xs(tick), y1, xs(tick), y1 + 4)
        canvas.text(xs(tick), y1 + 16, si(tick), size=9, anchor="middle")
    for tick in ys.ticks():
        canvas.line(x0 - 4, ys(tick), x0, ys(tick))
        canvas.text(x0 - 6, ys(tick) + 3, si(tick), size=9, anchor="end")
