"""Minimal deterministic SVG charts for simulation output.

Hand-rolled on purpose: the charts are a convenience view of the CSV data,
only well-formedness is contractual, and string assembly keeps the output
byte-for-byte reproducible.  Long series are decimated to the plot
width: per pixel column, the first, lowest, highest and last point.
"""

from __future__ import annotations

from html import escape

_WIDTH = 960
_HEIGHT = 420
_MARGIN_LEFT = 70
_MARGIN_RIGHT = 150
_MARGIN_TOP = 20
_MARGIN_BOTTOM = 40

_PALETTE = ("#4878a8", "#e49444", "#d1605e", "#85b6b2", "#6a9f58",
            "#e7ca60", "#a87c9f", "#967662")


def _plot_box() -> tuple[float, float, float, float]:
    return (_MARGIN_LEFT, _MARGIN_TOP, _WIDTH - _MARGIN_RIGHT,
            _HEIGHT - _MARGIN_BOTTOM)


def _decimate(values: list[float]) -> list[int]:
    """Indices to draw; index i falls in pixel column i * width // (n-1)."""
    width, n = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT, len(values)
    if n <= 2 * width:
        return list(range(n))
    keep = set()
    for p in range(width + 1):
        pixel = range(-(-p * (n - 1) // width),
                      min(n, -(-(p + 1) * (n - 1) // width)))
        keep.update((pixel[0], pixel[-1], min(pixel, key=values.__getitem__),
                     max(pixel, key=values.__getitem__)))
    return sorted(keep)


def _scale(values_max: float) -> float:
    return values_max if values_max > 0.0 else 1.0


def _header(title: str) -> list[str]:
    return [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<title>{escape(title, quote=False)}</title>',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]


def _axes(y_max: float, y_label: str) -> list[str]:
    x0, y0, x1, y1 = _plot_box()
    parts = [
        f'<line x1="{x0}" y1="{y1}" x2="{x1}" y2="{y1}" stroke="black"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>',
        f'<text x="{x0}" y="{y0 - 6}" font-size="12">'
        f'{escape(y_label, quote=False)} (max {y_max:.4g})</text>',
    ]
    for tick in range(5):
        frac = tick / 4
        y = y1 - frac * (y1 - y0)
        parts.append(
            f'<text x="{x0 - 8}" y="{y + 4}" font-size="10" '
            f'text-anchor="end">{frac * y_max:.3g}</text>')
    return parts


def _legend(labels: list[str]) -> list[str]:
    parts = []
    for i, label in enumerate(labels):
        color = _PALETTE[i % len(_PALETTE)]
        y = _MARGIN_TOP + 16 * i + 10
        x = _WIDTH - _MARGIN_RIGHT + 12
        parts.append(f'<rect x="{x}" y="{y - 9}" width="10" height="10" '
                     f'fill="{color}"/>')
        parts.append(f'<text x="{x + 14}" y="{y}" font-size="11">'
                     f'{escape(label, quote=False)}</text>')
    return parts


def render_stacked_area(labels: list[str], rows: list[list[float]],
                        title: str, y_label: str = "power / W") -> str:
    """Stacked-area chart of component series over row index (time)."""
    x0, y0, x1, y1 = _plot_box()
    n = len(rows)
    totals = [sum(row) for row in rows]
    y_max = _scale(max(totals, default=0.0))
    parts = _header(title)
    parts += _axes(y_max, y_label)

    def x_at(i: int) -> float:
        return x0 if n == 1 else x0 + (x1 - x0) * i / (n - 1)

    def y_at(value: float) -> float:
        return y1 - (y1 - y0) * value / y_max

    kept = _decimate(totals)
    xs = [f"{x_at(i):.2f}," for i in kept]
    level, lower = [0.0] * len(kept), [f"{x}{y_at(0.0):.2f}" for x in xs]
    for series_index, label in enumerate(labels):
        level = [low + rows[i][series_index] for low, i in zip(level, kept)]
        upper = [f"{x}{y_at(y):.2f}" for x, y in zip(xs, level)]
        points = " ".join(upper + lower[::-1])
        color = _PALETTE[series_index % len(_PALETTE)]
        parts.append(f'<polygon points="{points}" fill="{color}" '
                     f'fill-opacity="0.85" stroke="none"/>')
        lower = upper
    parts += _legend(labels)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_lines(series: list[tuple[str, list[tuple[float, float]]]],
                 title: str, y_label: str = "power / W") -> str:
    """Line chart; each series is a label plus (x, y) points."""
    x0, y0, x1, y1 = _plot_box()
    all_points = [point for _, points in series for point in points]
    x_min = min((p[0] for p in all_points), default=0.0)
    x_max = max((p[0] for p in all_points), default=1.0)
    x_span = (x_max - x_min) or 1.0
    y_max = _scale(max((p[1] for p in all_points), default=0.0))
    parts = _header(title)
    parts += _axes(y_max, y_label)
    for series_index, (label, points) in enumerate(series):
        color = _PALETTE[series_index % len(_PALETTE)]
        coords = " ".join(
            f"{x0 + (x1 - x0) * (x - x_min) / x_span:.2f},"
            f"{y1 - (y1 - y0) * y / y_max:.2f}"
            for x, y in map(points.__getitem__,
                            _decimate([y for _, y in points])))
        parts.append(f'<polyline points="{coords}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"/>')
    parts += _legend([label for label, _ in series])
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
