"""Dependency-free SVG renderings of formations and simulation snapshots.

Only the first two coordinates are drawn; 3-D scenes are projected onto the
xy plane. Each kind of element (lines, circles, a polygon's corners) is
mapped to the viewport by one numpy expression and rendered by one ``%``
over its repeated template. Output is deterministic (fixed float
formatting), so the files diff cleanly between runs.
"""

from __future__ import annotations

import numpy as np

from .engine import Run, inflated_zone
from .formation import ROLE_BOUNDARY, ROLE_COOPERATIVE, ROLE_CORE, ROLE_UNCOOPERATIVE

ROLE_COLORS = {
    ROLE_BOUNDARY: "#1f77b4",
    ROLE_CORE: "#ff7f0e",
    ROLE_COOPERATIVE: "#2ca02c",
    ROLE_UNCOOPERATIVE: "#d62728",
}
EDGE_COLOR = "#999999"
SAMPLE_COLOR = "#bbbbbb"
ZONE_COLOR = "#555555"


class _Canvas:
    """Maps workspace coordinates onto a fixed-size SVG viewport (y up)."""

    def __init__(self, points: np.ndarray, size: int = 720, pad: float = 0.06):
        pts = np.asarray(points, dtype=float)[:, :2]
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        margin = pad * float(np.maximum(hi - lo, 1e-9).max())
        self.lo, self.hi = lo - margin, hi + margin
        extent = self.hi - self.lo
        self.scale = size / float(extent.max())
        self.width, self.height = extent * self.scale
        self.elements: list[str] = []

    def _map(self, points) -> list[list[float]]:
        """Viewport x and y of each point, by the same float operations for all."""
        p = np.asarray(points, dtype=float)
        x = (p[:, 0] - self.lo[0]) * self.scale
        return [x.tolist(), (self.height - (p[:, 1] - self.lo[1]) * self.scale).tolist()]

    @staticmethod
    def _fill(tmpl: str, columns, sep: str) -> str:
        """``tmpl`` once per row of ``columns``, joined by ``sep``, filled by one ``%``."""
        args = np.array(columns, dtype=object).T.ravel().tolist()
        return sep.join([tmpl] * len(columns[0])) % tuple(args)

    def _put(self, tmpl: str, *columns) -> None:
        if len(columns[0]):
            self.elements.append(self._fill(tmpl, columns, "\n"))

    def lines(self, a, b, color=EDGE_COLOR, width=0.8, opacity=0.6):
        """A line from each point of ``a`` to the same row of ``b``."""
        style = f'stroke="{color}" stroke-width="{width}" stroke-opacity="{opacity}"/>'
        self._put('<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" ' + style, *self._map(a), *self._map(b))

    def circles(self, points, radius, colors, titles=None):
        """A circle at each point; ``colors`` is one color or one per point."""
        cols, fill = self._map(points), colors
        if not isinstance(colors, str):
            cols, fill = [*cols, colors], "%s"
        tmpl = f'<circle cx="%.2f" cy="%.2f" r="{radius}" fill="{fill}"'
        if titles is None:
            self._put(tmpl + "/>", *cols)
        else:
            self._put(tmpl + "><title>%s</title></circle>", *cols, titles)

    def polygon(self, pts, color=ZONE_COLOR, width=1.2, dashed=False):
        coords = self._fill("%.2f,%.2f", self._map(pts), " ")
        dash = ' stroke-dasharray="6,4"' if dashed else ""
        style = f'fill="none" stroke="{color}" stroke-width="{width}"{dash}/>'
        self.elements.append(f'<polygon points="{coords}" {style}')

    def text(self, message, x=8.0, y=16.0):
        self.elements.append(f'<text x="{x}" y="{y}" font-family="monospace" font-size="13">{message}</text>')

    def render(self) -> str:
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width:.0f}" '
            f'height="{self.height:.0f}" viewBox="0 0 {self.width:.2f} {self.height:.2f}">\n'
            '<rect width="100%" height="100%" fill="white"/>\n'
            + "\n".join(self.elements)
            + "\n</svg>\n"
        )


def _edges(graph) -> tuple[np.ndarray, np.ndarray]:
    """Mentor and mentee rows of the mentor graph's edges, by mentor, then mentee."""
    mentors, mentees = graph.mentors.ravel(), np.repeat(graph.mentees, graph.mentors.shape[1])
    order = np.lexsort((mentees, mentors))
    return mentors[order], mentees[order]


def formation_svg(formation, graph) -> str:
    """Initial formation with mentor edges, nodes colored by role."""
    pos = formation.positions
    canvas = _Canvas(pos)
    canvas.polygon(pos[formation.boundary], color="#333333", width=1.0)
    mentor, mentee = _edges(graph)
    canvas.lines(pos[mentor], pos[mentee])
    canvas.circles(pos, 4.0, [ROLE_COLORS[r] for r in graph.roles], titles=formation.ids)
    canvas.text(f"agents={formation.n_agents} layers={graph.n_layers}")
    return canvas.render()


def snapshot_svg(run: Run, k: int) -> str:
    """Output frame k of ``run``: the target samples, the zone, its scoring
    outline dashed, the mentor edges between the agents' positions at that
    time and the agents colored by role."""
    plan, sc = run.plan, run.plan.scenario
    pts = run.positions[k]
    zone = sc.targets.zone_polygon
    inflated = inflated_zone(zone, sc.margin)
    canvas = _Canvas(np.vstack([pts, zone, inflated]))
    canvas.circles(sc.targets.samples, 1.5, SAMPLE_COLOR)
    canvas.polygon(zone)
    canvas.polygon(inflated, dashed=True)
    mentor, mentee = _edges(plan.graph)
    canvas.lines(pts[mentor], pts[mentee], opacity=0.35)
    canvas.circles(pts, 3.5, [ROLE_COLORS[r] for r in plan.graph.roles], titles=sc.formation.ids)
    canvas.text(f"t = {run.times[k]:g} s")
    return canvas.render()
