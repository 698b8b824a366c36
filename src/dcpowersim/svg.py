"""Minimal deterministic SVG charts for simulation output.

Hand-rolled on purpose: the charts are a convenience view of the CSV data,
only well-formedness is contractual, and string assembly keeps the output
byte-for-byte reproducible.  Long series are decimated to the plot
width: per pixel column, the first, lowest, highest and last point.
"""

from __future__ import annotations

from typing import Sequence

_WIDTH = 960
_HEIGHT = 420
_X0, _Y0, _X1, _Y1 = 70, 20, 810, 380   # plot box; the legend sits right of it

_PALETTE = ("#4878a8", "#e49444", "#d1605e", "#85b6b2", "#6a9f58",
            "#e7ca60", "#a87c9f", "#967662")


def _decimate(values: Sequence[float]) -> list[int]:
    """Indices to draw; index i falls in pixel column i * width // (n-1)."""
    width, n = _X1 - _X0, len(values)
    if n <= 2 * width:
        return list(range(n))
    keep = set()
    for p in range(width + 1):
        lo = -(-p * (n - 1) // width)
        hi = min(n, -(-(p + 1) * (n - 1) // width))
        # index() finds the first occurrence, as min and max keep the first.
        chunk = values[lo:hi]
        keep.update((lo, hi - 1, lo + chunk.index(min(chunk)),
                     lo + chunk.index(max(chunk))))
    return sorted(keep)


def _escape(text: str) -> str:
    """``html.escape(text, quote=False)``, without importing ``html``."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _scale(values_max: float) -> float:
    return values_max if values_max > 0.0 else 1.0


def _document(title: str, y_max: float, shapes: list[str],
              labels: list[str]) -> str:
    """The chart around ``shapes``: header, axes, legend, closing tag."""
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<title>{_escape(title)}</title>',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<line x1="{_X0}" y1="{_Y1}" x2="{_X1}" y2="{_Y1}" stroke="black"/>',
        f'<line x1="{_X0}" y1="{_Y0}" x2="{_X0}" y2="{_Y1}" stroke="black"/>',
        f'<text x="{_X0}" y="{_Y0 - 6}" font-size="12">'
        f'power / W (max {y_max:.4g})</text>',
    ]
    for tick in range(5):
        frac = tick / 4
        y = _Y1 - frac * (_Y1 - _Y0)
        parts.append(
            f'<text x="{_X0 - 8}" y="{y + 4}" font-size="10" '
            f'text-anchor="end">{frac * y_max:.3g}</text>')
    parts += shapes
    for i, label in enumerate(labels):
        y, x = _Y0 + 16 * i + 10, _X1 + 12
        parts.append(f'<rect x="{x}" y="{y - 9}" width="10" height="10" '
                     f'fill="{_PALETTE[i % len(_PALETTE)]}"/>')
        parts.append(f'<text x="{x + 14}" y="{y}" font-size="11">'
                     f'{_escape(label)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_stacked_area(labels: list[str],
                        columns: Sequence[Sequence[float]],
                        totals: Sequence[float], title: str) -> str:
    """Stacked-area chart of component columns over row index (time);
    ``totals`` holds each row's sum of the columns."""
    n, y_max = len(totals), _scale(max(totals, default=0.0))

    def x_at(i: int) -> float:
        return _X0 if n == 1 else _X0 + (_X1 - _X0) * i / (n - 1)

    kept = _decimate(totals)
    xs = [f"{x_at(i):.2f}," for i in kept]
    # y at value v is bottom - height * v / y_max, so bottom at 0.
    bottom, height = _Y1, _Y1 - _Y0
    level, lower = [0.0] * len(kept), [f"{x}{bottom:.2f}" for x in xs]
    shapes = []
    for series_index, column in enumerate(columns):
        level = [low + column[i] for low, i in zip(level, kept)]
        upper = [f"{x}{bottom - height * y / y_max:.2f}"
                 for x, y in zip(xs, level)]
        points = " ".join(upper + lower[::-1])
        color = _PALETTE[series_index % len(_PALETTE)]
        shapes.append(f'<polygon points="{points}" fill="{color}" '
                      f'fill-opacity="0.85" stroke="none"/>')
        lower = upper
    return _document(title, y_max, shapes, labels)


def render_lines(xs: Sequence[float],
                 series: list[tuple[str, Sequence[float]]], title: str) -> str:
    """Line chart; each series is a label plus its y values at ``xs``."""
    x_min, x_max = min(xs, default=0.0), max(xs, default=1.0)
    x_span = (x_max - x_min) or 1.0
    y_max = _scale(max((y for _, ys in series for y in ys), default=0.0))
    left, width, bottom, height = _X0, _X1 - _X0, _Y1, _Y1 - _Y0
    shapes = []
    for series_index, (_, ys) in enumerate(series):
        color = _PALETTE[series_index % len(_PALETTE)]
        coords = " ".join(
            f"{left + width * (xs[i] - x_min) / x_span:.2f},"
            f"{bottom - height * ys[i] / y_max:.2f}" for i in _decimate(ys))
        shapes.append(f'<polyline points="{coords}" fill="none" '
                      f'stroke="{color}" stroke-width="1.5"/>')
    return _document(title, y_max, shapes, [label for label, _ in series])
