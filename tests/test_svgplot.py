import numpy as np

from vannodes import svgplot


def test_line_plot(tmp_path):
    p = tmp_path / "lines.svg"
    x = np.arange(10)
    svgplot.line_plot(
        p,
        x,
        {"a": x * 0.1, "b": (x * 0.2, np.full(10, 0.05))},
        title="t",
        x_label="x",
        y_label="y",
    )
    s = p.read_text()
    assert s.startswith("<?xml") or s.startswith("<svg")
    assert "polyline" in s
    assert s.count("<svg") == 1 and "</svg>" in s


def test_heatmap(tmp_path):
    p = tmp_path / "hm.svg"
    svgplot.heatmap(p, np.linspace(0, 1, 16).reshape(4, 4), title="h")
    s = p.read_text()
    assert s.count("<rect") >= 16
    assert "</svg>" in s


def test_box_plot(tmp_path):
    p = tmp_path / "box.svg"
    svgplot.box_plot(p, {"g1": np.arange(20.0), "g2": np.arange(5.0, 25.0)}, y_label="v")
    assert "</svg>" in p.read_text()
