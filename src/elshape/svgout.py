"""Deterministic SVG rendering of reconstruction overlays.

Static SVG 1.1 documents built by string assembly: exact curve (red
solid), reconstruction (black dash-dot), initial guess (green dashed),
the receiver arc on the measurement circle (blue dashed) with a black
dashed auxiliary circle showing the rest of it, and source positions as
red dots.  Floats are formatted with %.6g so identical inputs produce
byte-identical files.
"""

from xml.sax.saxutils import escape

import numpy as np

from .geometry import disk

CANVAS = 480.0
MARGIN = 20.0
#: samples per drawn boundary curve
CURVE_POINTS = 512


def _fmt(x: float) -> str:
    return f"{x:.6g}"


class SvgCanvas:
    """Fixed world-to-pixel mapping plus element accumulation."""

    def __init__(self, world_limit: float):
        self.scale = (CANVAS - 2.0 * MARGIN) / (2.0 * world_limit)
        self.elements = []

    def _map(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        out = np.empty_like(pts)
        out[..., 0] = CANVAS / 2.0 + self.scale * pts[..., 0]
        out[..., 1] = CANVAS / 2.0 - self.scale * pts[..., 1]
        return out

    def polyline(self, pts, color, width=1.5, dash=None, close=False):
        mapped = self._map(pts)
        coords = " ".join(f"{_fmt(p[0])},{_fmt(p[1])}" for p in mapped)
        tag = "polygon" if close else "polyline"
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        self.elements.append(
            f'<{tag} points="{coords}" fill="none" stroke="{color}"'
            f' stroke-width="{_fmt(width)}"{dash_attr}/>'
        )

    def dots(self, pts, color, radius=3.0):
        for p in self._map(np.atleast_2d(pts)):
            self.elements.append(
                f'<circle cx="{_fmt(p[0])}" cy="{_fmt(p[1])}" r="{_fmt(radius)}"'
                f' fill="{color}"/>'
            )

    def text(self, s, x=MARGIN, y=MARGIN):
        self.elements.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-size="12"'
            f' font-family="sans-serif">{escape(s)}</text>'
        )

    def render(self) -> str:
        body = "\n".join(self.elements)
        return (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{_fmt(CANVAS)}" height="{_fmt(CANVAS)}" '
            f'viewBox="0 0 {_fmt(CANVAS)} {_fmt(CANVAS)}">\n'
            f'<rect width="100%" height="100%" fill="white"/>\n'
            f"{body}\n</svg>\n"
        )


def _arc_points(rho: float, lo: float, hi: float, n: int = 256) -> np.ndarray:
    return disk(rho).point(np.linspace(lo, hi, n))


def overlay_svg(rec, run, truth, title: str = "") -> str:
    """Figure-style overlay of a run on its record: the truth curve, the
    run's initial and final curves, the receiver arc and the sources."""
    t = np.linspace(0.0, 2.0 * np.pi, CURVE_POINTS, endpoint=False)
    canvas = SvgCanvas(world_limit=1.15 * rec.rho)
    lo, hi = rec.aperture
    canvas.polyline(_arc_points(rec.rho, 0.0, 2.0 * np.pi), "black", 0.8, dash="2,4")
    canvas.polyline(_arc_points(rec.rho, lo, hi), "blue", 1.5, dash="6,4")
    canvas.polyline(truth.sample(CURVE_POINTS), "red", 1.8, close=True)
    canvas.polyline(run.curves[0].point(t), "green", 1.2, dash="5,3", close=True)
    canvas.polyline(run.final.point(t), "black", 1.8, dash="8,3,2,3", close=True)
    if rec.sources:
        canvas.dots([s.location for s in rec.sources], "red", 2.5)
    if title:
        canvas.text(title)
    return canvas.render()
