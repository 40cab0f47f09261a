import numpy as np
import pytest

from vannodes import svgplot


def test_line_plot():
    x = np.arange(10)
    s = svgplot.line_plot(
        x,
        {"a": x * 0.1, "b": (x * 0.2, np.full(10, 0.05))},
        title="t",
        x_label="x",
        y_label="y",
    )
    assert s.startswith("<?xml") or s.startswith("<svg")
    assert "polyline" in s
    assert s.count("<svg") == 1 and "</svg>" in s


def test_heatmap():
    s = svgplot.heatmap(np.linspace(0, 1, 16).reshape(4, 4), title="h")
    assert s.count("<rect") >= 16
    assert "</svg>" in s


def test_box_plot():
    s = svgplot.box_plot({"g1": np.arange(20.0), "g2": np.arange(5.0, 25.0)}, y_label="v")
    assert "</svg>" in s


def _points(svg: str, tag: str) -> list:
    start = svg.index(f"<{tag} points=") + len(f'<{tag} points="')
    return [tuple(map(float, p.split(","))) for p in svg[start : svg.index('"', start)].split()]


def test_line_plot_series_shorter_than_x():
    # A series covers the first len(y) x values; its band's lower edge runs
    # back over the same x values as its upper edge.
    x = np.arange(10)
    y = np.linspace(0.2, 0.8, 6)
    s = svgplot.line_plot(x, {"long": x * 0.1, "short": (y, np.full(6, 0.05))})
    band = _points(s, "polygon")
    assert len(band) == 12
    assert [px for px, _ in band[6:]] == [px for px, _ in band[:6]][::-1]
    line = _points(s[s.index("polygon") :], "polyline")
    assert [px for px, _ in line] == [px for px, _ in band[:6]]
    with pytest.raises(ValueError, match="longer than x"):
        svgplot.line_plot(x[:5], {"y": y})
