"""SVG charts: well-formed, deterministic, decimated to the plot width."""

import datetime as dt
import html
import math
import random
import xml.etree.ElementTree as ET

from hypothesis import given, settings
from hypothesis import strategies as st

from dcpowersim.config import default_scenario
from dcpowersim.engine import COMPONENT_NAMES, simulate
from dcpowersim.profiles import AmbientProfile, UtilisationProfile
from dcpowersim.svg import (_decimate, _escape, render_lines,
                            render_stacked_area)

SVG = "{http://www.w3.org/2000/svg}"
PLOT_WIDTH_PX = 740
# The annual stacked chart before decimation: one vertex per hour.
FULL_ANNUAL_CHART_BYTES = 1_950_000


def points_of(element):
    return [tuple(map(float, pair.split(",")))
            for pair in element.get("points").split()]


def annual_chart():
    """A year of diurnal load, lighter at weekends, on a seasonal sine."""
    start = dt.datetime(2016, 1, 1)
    stamps = tuple((start + dt.timedelta(hours=h)).isoformat(
        timespec="minutes") for h in range(8760))
    us = tuple((0.6 if (h // 24) % 7 < 5 else 0.45)
               - 0.3 * math.cos(2 * math.pi * (h % 24) / 24)
               for h in range(8760))
    ts = tuple(11.0 - 11.0 * math.cos(2 * math.pi * h / 8760)
               for h in range(8760))
    utilisation = UtilisationProfile(stamps, us)
    ambient = AmbientProfile(stamps, ts)
    result = simulate(utilisation, ambient, default_scenario())
    rows = list(zip(*result.components))
    return rows, render_stacked_area(list(COMPONENT_NAMES), result.components,
                                     title="Hourly power <breakdown> & co")


def test_annual_stacked_chart_is_small_deterministic_and_well_formed():
    rows, text = annual_chart()
    assert annual_chart()[1] == text
    assert len(text.encode()) <= FULL_ANNUAL_CHART_BYTES / 3
    root = ET.fromstring(text)
    assert root.find(f"{SVG}title").text == "Hourly power <breakdown> & co"
    polygons = root.findall(f"{SVG}polygon")
    assert len(polygons) == len(COMPONENT_NAMES)
    # The top band's upper edge still reaches the year's highest and
    # lowest totals: y = 20 is the plot top, where the largest total sits.
    top = points_of(polygons[-1])
    upper = top[:len(top) // 2]
    totals = [sum(row) for row in rows]
    assert min(y for _, y in upper) == 20.0
    lowest = 380 - 360 * min(totals) / max(totals)
    assert max(y for _, y in upper) == float(f"{lowest:.2f}")
    assert len(upper) <= 4 * (PLOT_WIDTH_PX + 1)
    assert upper[0][0] == 70.0 and upper[-1][0] == 810.0


def test_short_stacked_series_keeps_every_point():
    rows = [[1.0 + (i % 7), 2.0] for i in range(2 * PLOT_WIDTH_PX)]
    root = ET.fromstring(render_stacked_area(["a", "b"], list(zip(*rows)),
                                             title="t"))
    for polygon in root.findall(f"{SVG}polygon"):
        assert len(points_of(polygon)) == 2 * len(rows)


def test_short_line_series_keeps_every_point():
    points = [(float(i), math.sin(i / 5.0) + 2.0) for i in range(100)]
    xs, ys = zip(*points)
    root = ET.fromstring(render_lines(xs, [("sine", ys)], title="t"))
    assert len(points_of(root.find(f"{SVG}polyline"))) == 100


def test_long_line_series_is_decimated_per_pixel():
    n = 8760
    points = [(float(i), 2.0 + math.sin(i * 0.37) + (i == 4321) * 5.0)
              for i in range(n)]
    mirrored = [(x, 4.0 - y) for x, y in points]
    xs = [x for x, _ in points]
    series = [("a", [y for _, y in points]), ("b", [y for _, y in mirrored])]
    text = render_lines(xs, series, title="t")
    assert render_lines(xs, series, title="t") == text
    lines = ET.fromstring(text).findall(f"{SVG}polyline")
    y_max = max(y for _, y in points)

    def pixel_y(y):
        return float(f"{380 - 360 * y / y_max:.2f}")

    for line, series in zip(lines, (points, mirrored)):
        drawn = points_of(line)
        assert len(drawn) <= 4 * (PLOT_WIDTH_PX + 1)
        assert drawn[0][0] == 70.0 and drawn[-1][0] == 810.0
        # Each series keeps its extremes, the one-hour spike among them.
        ys = [y for _, y in series]
        assert min(y for _, y in drawn) == pixel_y(max(ys))
        assert max(y for _, y in drawn) == pixel_y(min(ys))


def decimate_by_key(values):
    """_decimate as it was, with a key function per pixel."""
    width, n = PLOT_WIDTH_PX, len(values)
    if n <= 2 * width:
        return list(range(n))
    keep = set()
    for p in range(width + 1):
        pixel = range(-(-p * (n - 1) // width),
                      min(n, -(-(p + 1) * (n - 1) // width)))
        keep.update((pixel[0], pixel[-1], min(pixel, key=values.__getitem__),
                     max(pixel, key=values.__getitem__)))
    return sorted(keep)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2 * PLOT_WIDTH_PX - 3, 2 * PLOT_WIDTH_PX + 8)
       | st.sampled_from([4 * PLOT_WIDTH_PX + 1, 8760]),
       pool=st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 1e300]),
                     min_size=1, max_size=4),
       seed=st.integers(0, 2**32 - 1), as_tuple=st.booleans())
def test_decimate_keeps_the_points_the_key_search_kept(n, pool, seed,
                                                       as_tuple):
    # A small pool of values makes ties in every pixel; 0.0 and -0.0 tie.
    rng = random.Random(seed)
    values = [rng.choice(pool) for _ in range(n)]
    if as_tuple:
        values = tuple(values)
    assert _decimate(values) == decimate_by_key(values)


@given(text=st.text(alphabet=st.sampled_from('&<>"\'ab;#x\u00e9')))
def test_escape_is_html_escape_without_quotes(text):
    assert _escape(text) == html.escape(text, quote=False)
