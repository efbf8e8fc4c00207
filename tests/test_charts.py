from xml.dom import minidom
from xml.sax.saxutils import escape as sax_escape

import pytest

from selfevolve.charts import escape, render_line_chart


def test_svg_escapes_text():
    svg = render_line_chart({"a<b & c": [(0, 0.1), (1, 0.9)]},
                            title="accuracy over iterations: p<1>&\"q\"")
    doc = minidom.parseString(svg)
    texts = [t.firstChild.data for t in doc.getElementsByTagName("text") if t.firstChild]
    assert "accuracy over iterations: p<1>&\"q\"" in texts
    assert "a<b & c" in texts


@pytest.mark.parametrize("text", [
    "", "plain", "a<b & c", "p<1>&\"q\"", "it's <'quoted'>", "&amp; &lt;&gt;",
    ">>&&<<", "Genauigkeit ≥ 0.5 · naïve <π> & 日本語",
])
def test_escape_matches_saxutils(text):
    assert escape(text) == sax_escape(text)
    svg = render_line_chart({text: [(0, 0.1), (1, 0.9)]}, title=text)
    assert svg.count(f">{sax_escape(text)}</text>") == 2


def test_empty_chart_refused():
    with pytest.raises(ValueError, match="no data to chart"):
        render_line_chart({})
    with pytest.raises(ValueError, match="no data to chart"):
        render_line_chart({"empty": []})


def test_one_point_chart_spans_one_iteration():
    # a run with max_iterations 0 charts one point: the x axis spans [x, x + 1]
    # and the point sits on its left end
    svg = render_line_chart({"avg": [(0, 0.5)]})
    doc = minidom.parseString(svg)
    [line] = doc.getElementsByTagName("polyline")
    assert line.getAttribute("points") == "56.00,200.00"
    ticks = [t.firstChild.data for t in doc.getElementsByTagName("text")
             if t.getAttribute("y") == "360"]
    assert ticks == ["0", "0.25", "0.5", "0.75", "1"]
