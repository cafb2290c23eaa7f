import math
import xml.etree.ElementTree as ET

from qge.svgplot import line_plot

SVG = "{http://www.w3.org/2000/svg}"


def _plot(tmp_path, series) -> ET.Element:
    path = tmp_path / "plot.svg"
    line_plot(series, path, "title", "x", "y")
    return ET.fromstring(path.read_text())


def _points(root) -> list[tuple[float, float]]:
    (line,) = root.iter(f"{SVG}polyline")
    return [tuple(map(float, p.split(","))) for p in line.get("points").split()]


def test_no_finite_data(tmp_path):
    # non-finite points and non-positive y values are all dropped
    root = _plot(tmp_path, [("a", [1.0, math.nan], [math.inf, 2.0]), ("b", [1.0, 2.0], [0.0, -1.0])])
    assert [t.text for t in root.iter(f"{SVG}text")] == ["no finite data"]
    assert list(root.iter(f"{SVG}polyline")) == []


def test_flat_y_is_drawn(tmp_path):
    # a constant y spans one decade from its value, so every point sits on
    # the bottom edge of the plot area
    root = _plot(tmp_path, [("a", [1.0, 2.0, 3.0], [5.0, 5.0, 5.0])])
    points = _points(root)
    assert len(points) == 3
    assert len({y for _, y in points}) == 1
    assert all(math.isfinite(x) and math.isfinite(y) for x, y in points)


def test_single_point_is_drawn(tmp_path):
    # one point is flat in x and in y
    (point,) = _points(_plot(tmp_path, [("a", [2.0], [3.0])]))
    assert all(math.isfinite(c) for c in point)
