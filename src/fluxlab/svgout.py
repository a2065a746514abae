"""Minimal SVG output: domain outline plus nodal polylines, no plotting deps."""

from __future__ import annotations

from .geometry import Disk, Rect

_COLORS = ("#c0392b", "#2471a3", "#1e8449", "#9a7d0a", "#6c3483")


def _shape_element(shape, fill, stroke):
    if isinstance(shape, Disk):
        return (
            f'<circle cx="{shape.cx}" cy="{-shape.cy}" r="{shape.r}" '
            f'fill="{fill}" stroke="{stroke}" stroke-width="0.6%"/>'
        )
    if isinstance(shape, Rect):
        return (
            f'<rect x="{shape.x0}" y="{-shape.y1}" width="{shape.x1 - shape.x0}" '
            f'height="{shape.y1 - shape.y0}" fill="{fill}" stroke="{stroke}" '
            f'stroke-width="0.6%"/>'
        )
    raise TypeError(f"cannot draw {shape!r}")


def nodal_svg(spec, nodal_sets, path):
    """Write the domain outline and a list of nodal sets to an SVG file."""
    xmin, ymin, xmax, ymax = spec.outer.bbox()
    pad = 0.05 * max(xmax - xmin, ymax - ymin)
    view = f"{xmin - pad} {-ymax - pad} {xmax - xmin + 2 * pad} {ymax - ymin + 2 * pad}"
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{view}" width="640">',
        _shape_element(spec.outer, "#f4f4f4", "#333333"),
    ]
    for hole in spec.holes:
        lines.append(_shape_element(hole, "#ffffff", "#333333"))
    for s, nodal in enumerate(nodal_sets):
        color = _COLORS[s % len(_COLORS)]
        for poly in nodal.polylines:
            pts = " ".join(f"{x},{-y}" for x, y in poly)
            lines.append(
                f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="0.8%"/>'
            )
    lines.append("</svg>")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
