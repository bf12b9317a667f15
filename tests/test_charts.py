"""SVG chart rendering: well-formedness, NaN gaps, legends, markers."""

import json
import warnings
import xml.etree.ElementTree as ET

import numpy as np

from ska.charts import COLORS, Marker, Series, _ticks, line_chart
from ska.cli import main

SVG_NS = "{http://www.w3.org/2000/svg}"


def _render(curves, title="t", marks=()):
    """line_chart over (name, x, y) curves and (x, y) marks, each drawn in
    one color, with title and both axis labels set."""
    series = [Series(name, x, y, "#1f77b4") for name, x, y in curves]
    markers = [Marker(x, y, "#d62728") for x, y in marks]
    svg = line_chart(series, title, "x label", "y label", markers)
    return svg, ET.fromstring(svg)


def test_chart_is_well_formed_xml():
    svg, root = _render([("layer 1", np.arange(5.0), np.arange(5.0) ** 2)])
    assert root.tag == f"{SVG_NS}svg"
    assert root.get("width") == "760" and root.get("height") == "420"
    assert svg.count("<svg") == 1 and svg.rstrip().endswith("</svg>")
    assert {"t", "x label", "y label"} <= {t.text for t in root.iter(f"{SVG_NS}text")}


def test_chart_has_no_external_references():
    svg, _ = _render([("a", np.arange(4.0), np.ones(4))])
    for token in ("http://", "https://", "href", "url("):
        hits = svg.count(token)
        # the xmlns declaration is the one allowed absolute URI
        assert hits == (1 if token == "http://" else 0), token


def test_nan_splits_series_into_segments():
    y = np.array([1.0, 2.0, np.nan, 4.0, 5.0])
    svg, root = _render([("gap", np.arange(5.0), y)])
    polys = [e for e in root.iter(f"{SVG_NS}polyline")]
    assert len(polys) == 2
    assert len(polys[0].get("points").split()) == 2
    assert len(polys[1].get("points").split()) == 2


def test_isolated_point_becomes_a_dot():
    y = np.array([np.nan, 2.0, np.nan, 4.0, 4.5])
    _, root = _render([("dots", np.arange(5.0), y)])
    polys = list(root.iter(f"{SVG_NS}polyline"))
    circles = list(root.iter(f"{SVG_NS}circle"))
    assert len(polys) == 1
    assert len(circles) == 1  # the stranded sample at x = 1


def test_legend_labels_and_colors_cycle(tmp_path):
    """train --svg names each layer in every chart's legend, in the palette
    color of its index, and wraps round the palette past its last color."""
    layers = len(COLORS) + 1
    cfg = {"seed": 3, "network": {"layer_sizes": [4] + [3] * (layers - 1) + [2]},
           "run": {"dt": 0.05, "steps": 4},
           "data": {"source": "synthetic", "n": 12, "dim": 4, "classes": 3, "seed": 1}}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["train", "--config", str(tmp_path / "cfg.json"), "--out", str(out),
                 "--svg"]) == 0
    charts = sorted(out.glob("*.svg"))
    assert len(charts) == 6
    for path in charts:
        root = ET.fromstring(path.read_text())
        texts = [t.text for t in root.iter(f"{SVG_NS}text")]
        assert [f"layer {l}" for l in range(layers)] == [t for t in texts if t.startswith("layer")]
        legend = [e.get("stroke") for e in root.iter(f"{SVG_NS}line")
                  if e.get("stroke-width") == "2"]
        assert legend == [COLORS[l % len(COLORS)] for l in range(layers)], path.name


def test_markers_are_drawn_and_escape_is_applied():
    svg, root = _render([("a<b", np.arange(3.0), np.arange(3.0))], title='x "& y',
                        marks=[(1.0, 1.0)])
    assert "a&lt;b" in svg and "&quot;&amp;" in svg
    circles = list(root.iter(f"{SVG_NS}circle"))
    assert any(c.get("r") == "3.5" for c in circles)


def test_nonfinite_markers_are_skipped():
    _, root = _render([("a", np.arange(3.0), np.arange(3.0))],
                      marks=[(float("nan"), 0.0), (1.0, float("inf"))])
    assert all(c.get("r") != "3.5" for c in root.iter(f"{SVG_NS}circle"))


def test_degenerate_ranges_still_render():
    svg, root = _render([("flat", np.zeros(4), np.full(4, 2.5))])
    assert root.tag == f"{SVG_NS}svg"
    svg2, root2 = _render([("empty", np.array([]), np.array([]))])
    assert root2.tag == f"{SVG_NS}svg"


def test_ticks_on_an_axis_a_few_ulps_wide():
    """The ticks stop where a step below half an ulp no longer advances them."""
    assert _ticks(1.0, 1.0 + 4.4e-16) == [0.9999999999999999, 1.0]
    assert _ticks(0.0, 1.0) == [0.0, 0.2, 0.4, 0.6000000000000001, 0.8, 1.0]


def test_ticks_on_a_narrow_or_subnormal_axis():
    """The slack past hi scales with the tick step, so a narrow axis gets its
    usual handful of ticks and a subnormal one ends. An axis a few
    subnormals wide, whose decade or fifth of a span underflows to 0, gets
    its two ends, without a warning."""
    assert _ticks(0.0, 1e-14) == [0.0, 2e-15, 4e-15, 6.0000000000000005e-15, 8e-15,
                                  1.0000000000000002e-14]
    assert len(_ticks(0.0, 1e-16)) == 6
    for lo, hi in ((0.0, 1e-310), (-1e-310, 0.0), (-8.8e-311, -1.9e-311)):
        ticks = _ticks(lo, hi)
        assert 4 <= len(ticks) <= 6 and lo <= ticks[0] and ticks[-1] <= hi
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _ticks(0.0, 2e-323) == [0.0, 2e-323]
        assert _ticks(0.0, 5e-324) == [0.0, 5e-324]
