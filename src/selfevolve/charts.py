"""Minimal static SVG line charts (axes, legend, one polyline per series)."""

from __future__ import annotations

PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b"]

WIDTH, HEIGHT = 640, 400
MARGIN = 56


def escape(text: str) -> str:
    """Escape `&`, `<` and `>` in `text` as xml.sax.saxutils.escape does."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def render_line_chart(series: dict[str, list[tuple[float, float]]], title: str = "") -> str:
    """Render named (x, y) series into an SVG document string."""
    points = [p for pts in series.values() for p in pts]
    if not points:
        raise ValueError("no data to chart")
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_min, x_max = min(xs), max(xs)
    y_min, y_max = min(0.0, min(ys)), max(1.0, max(ys))
    if x_max == x_min:
        x_max = x_min + 1

    def sx(x: float) -> float:
        return MARGIN + (x - x_min) / (x_max - x_min) * (WIDTH - 2 * MARGIN)

    def sy(y: float) -> float:
        return HEIGHT - MARGIN - (y - y_min) / (y_max - y_min) * (HEIGHT - 2 * MARGIN)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2}" y="24" text-anchor="middle" font-size="15">{escape(title)}</text>',
        # axes
        f'<line x1="{MARGIN}" y1="{HEIGHT - MARGIN}" x2="{WIDTH - MARGIN}" '
        f'y2="{HEIGHT - MARGIN}" stroke="black"/>',
        f'<line x1="{MARGIN}" y1="{MARGIN}" x2="{MARGIN}" y2="{HEIGHT - MARGIN}" '
        f'stroke="black"/>',
        f'<text x="{WIDTH / 2}" y="{HEIGHT - 12}" text-anchor="middle" '
        f'font-size="12">iteration</text>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        xv = x_min + frac * (x_max - x_min)
        yv = y_min + frac * (y_max - y_min)
        parts.append(
            f'<text x="{sx(xv):.1f}" y="{HEIGHT - MARGIN + 16}" text-anchor="middle" '
            f'font-size="10">{xv:.4g}</text>'
        )
        parts.append(
            f'<text x="{MARGIN - 6}" y="{sy(yv):.1f}" text-anchor="end" '
            f'font-size="10">{yv:.3g}</text>'
        )
    for i, (name, pts) in enumerate(series.items()):
        color = PALETTE[i % len(PALETTE)]
        path = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
        parts.append(
            f'<polyline points="{path}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        ly = MARGIN + 16 * i
        parts.append(
            f'<line x1="{WIDTH - MARGIN - 120}" y1="{ly}" x2="{WIDTH - MARGIN - 96}" '
            f'y2="{ly}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{WIDTH - MARGIN - 90}" y="{ly + 4}" font-size="11">{escape(name)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def write_line_chart(path, series, title="") -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_line_chart(series, title))
