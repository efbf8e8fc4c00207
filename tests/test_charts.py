from xml.dom import minidom

from selfevolve.charts import render_line_chart


def test_svg_escapes_text():
    svg = render_line_chart({"a<b & c": [(0, 0.1), (1, 0.9)]},
                            title="accuracy over iterations: p<1>&\"q\"")
    doc = minidom.parseString(svg)
    texts = [t.firstChild.data for t in doc.getElementsByTagName("text") if t.firstChild]
    assert "accuracy over iterations: p<1>&\"q\"" in texts
    assert "a<b & c" in texts
