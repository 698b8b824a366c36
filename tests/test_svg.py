"""SVG charts: well-formed, deterministic, decimated to the plot width."""

import datetime as dt
import hashlib
import html
import math
import random
import xml.etree.ElementTree as ET

import pytest
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
                                     result.total_w,
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
                                             list(map(sum, rows)), title="t"))
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


# --- byte-for-byte pins on small fixed inputs ---

def wave(n, k, scale):
    """A fixed series with ties and jumps: k selects one of several."""
    return [scale * ((i * 7919 + k * 104729) % 1000) / 8 for i in range(n)]


def stacked(n, bands, scale=1.0):
    columns = [wave(n, k, scale) for k in range(bands)]
    return render_stacked_area([f"load {k} <&>" for k in range(bands)],
                               columns, list(map(sum, zip(*columns))),
                               title="Stacked & <pinned>")


def lines(n, count, scale=1.0):
    xs = [i * 0.5 - 3.0 for i in range(n)]
    return render_lines(xs, [(f"series {k} <&>", wave(n, k, scale))
                             for k in range(count)],
                        title="Lines & <pinned>")


# Nine bands and series wrap the eight-colour palette; an all-zero chart
# and one peaking under 1 W keep their own scales; 1480 points is the most
# drawn whole, 1481 the fewest decimated.
CHARTS = {
    "stacked-one-hour": lambda: stacked(1, 2),
    "stacked-nine-bands": lambda: stacked(5, 9),
    "stacked-all-zero": lambda: stacked(4, 2, scale=0.0),
    "stacked-under-one-watt": lambda: stacked(4, 2, scale=1e-3),
    "stacked-1480": lambda: stacked(2 * PLOT_WIDTH_PX, 2),
    "stacked-1481": lambda: stacked(2 * PLOT_WIDTH_PX + 1, 2),
    "lines-nine-series": lambda: lines(5, 9),
    "lines-all-zero": lambda: lines(4, 2, scale=0.0),
    "lines-under-one-watt": lambda: lines(4, 2, scale=1e-3),
    "lines-1480": lambda: lines(2 * PLOT_WIDTH_PX, 2),
    "lines-1481": lambda: lines(2 * PLOT_WIDTH_PX + 1, 2),
}
CHART_SHA256 = {
    "lines-1480":
        "9fea7fc1e9f3faa1092f4bd6e0cb61749e7e0e5429179c51c24e43a6359f6a9a",
    "lines-1481":
        "142f6ca947a7143d9b7e9059a79933b7e200d5e48153f2c8e9d42f36185ab822",
    "lines-all-zero":
        "13c20ca71812147f796aa54a12607e5213e9f63fc0ab0623bd713db96a4c0600",
    "lines-nine-series":
        "60e3a41ec949b9644d178d10e1b1b4b44222bb2d4ef9453a1e1c74f344d8c54f",
    "lines-under-one-watt":
        "7cd47c8a94b226fb8f0d5b6cd2744e9e81071a4a4ac5ef3e13b73d3c1fc32ed5",
    "stacked-1480":
        "90363bec8aa4d3ef7f84203fa07ca8777db8c24b5865912a826cba2e1f48fc51",
    "stacked-1481":
        "629f82c0bce2fd33b032603c1f986eb228f20c89505b349d7a4c578eb68bb584",
    "stacked-all-zero":
        "23b5d700dc30e463302c13058530f01b6b3ee5e1afeb9ef127bf23a760ed8ad6",
    "stacked-nine-bands":
        "8a62d95c53593bb97668ade8225f3b7b010adb1208614caf2a36a9c8afe23910",
    "stacked-one-hour":
        "cb81cbb28e272d7820b6941668d88fb51a9ad5be61e1f85c645c7f1bf24784d1",
    "stacked-under-one-watt":
        "5f773bb4004a9dbd5bb162e0169f52b29b143ae66eededdb544cf1509f740dc1",
}


@pytest.mark.parametrize("name", sorted(CHARTS))
def test_chart_bytes_are_pinned(name):
    text = CHARTS[name]()
    assert hashlib.sha256(text.encode()).hexdigest() == CHART_SHA256[name]
