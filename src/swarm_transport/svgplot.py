"""Dependency-free SVG renderings of formations and simulation snapshots.

Only the first two coordinates are drawn; 3-D scenes are projected onto the
xy plane. Output is deterministic (fixed float formatting), so the files
diff cleanly between runs.
"""

from __future__ import annotations

import numpy as np

ROLE_COLORS = {
    "boundary": "#1f77b4",
    "core": "#ff7f0e",
    "cooperative": "#2ca02c",
    "uncooperative": "#d62728",
}
EDGE_COLOR = "#999999"
SAMPLE_COLOR = "#bbbbbb"
ZONE_COLOR = "#555555"


class _Canvas:
    """Maps workspace coordinates onto a fixed-size SVG viewport (y up)."""

    def __init__(self, points: np.ndarray, size: int = 720, pad: float = 0.06):
        pts = np.asarray(points, dtype=float)[:, :2]
        lo = pts.min(axis=0)
        hi = pts.max(axis=0)
        span = np.maximum(hi - lo, 1e-9)
        margin = pad * float(span.max())
        self.lo = lo - margin
        self.hi = hi + margin
        extent = self.hi - self.lo
        self.scale = size / float(extent.max())
        self.width = extent[0] * self.scale
        self.height = extent[1] * self.scale
        self.elements: list[str] = []

    def xy(self, p) -> tuple[float, float]:
        x = (float(p[0]) - self.lo[0]) * self.scale
        y = self.height - (float(p[1]) - self.lo[1]) * self.scale
        return x, y

    def line(self, a, b, color=EDGE_COLOR, width=0.8, opacity=0.6):
        (x1, y1), (x2, y2) = self.xy(a), self.xy(b)
        self.elements.append(
            f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
            f'stroke="{color}" stroke-width="{width}" stroke-opacity="{opacity}"/>'
        )

    def circle(self, p, radius=4.0, color="#000000", title=None):
        x, y = self.xy(p)
        body = f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{radius}" fill="{color}"'
        if title is not None:
            self.elements.append(body + f"><title>{title}</title></circle>")
        else:
            self.elements.append(body + "/>")

    def polygon(self, pts, color=ZONE_COLOR, width=1.2, dashed=False):
        coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in (self.xy(p) for p in pts))
        dash = ' stroke-dasharray="6,4"' if dashed else ""
        self.elements.append(
            f'<polygon points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="{width}"{dash}/>'
        )

    def text(self, message, x=8.0, y=16.0):
        self.elements.append(
            f'<text x="{x}" y="{y}" font-family="monospace" font-size="13">{message}</text>'
        )

    def render(self) -> str:
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width:.0f}" '
            f'height="{self.height:.0f}" viewBox="0 0 {self.width:.2f} {self.height:.2f}">\n'
            '<rect width="100%" height="100%" fill="white"/>\n'
            + "\n".join(self.elements)
            + "\n</svg>\n"
        )


def _edges(graph) -> list[tuple[int, int]]:
    """(mentor row, mentee row) pairs of the mentor graph, sorted."""
    mentees = np.repeat(graph.mentees, graph.mentors.shape[1])
    return sorted(zip(graph.mentors.ravel().tolist(), mentees.tolist()))


def formation_svg(formation, graph) -> str:
    """Initial formation with mentor edges, nodes colored by role."""
    pos = formation.positions
    canvas = _Canvas(pos)
    canvas.polygon(pos[formation.boundary], color="#333333", width=1.0)
    for mentor, mentee in _edges(graph):
        canvas.line(pos[mentor], pos[mentee])
    for a, p, role in zip(formation.ids, pos, graph.roles):
        canvas.circle(p, radius=4.0, color=ROLE_COLORS[role], title=str(a))
    canvas.text(f"agents={formation.n_agents} layers={graph.n_layers}")
    return canvas.render()


def snapshot_svg(
    positions,
    roles,
    t: float,
    zone=None,
    inflated_zone=None,
    samples=None,
    graph=None,
    ids=None,
) -> str:
    """Team snapshot at time t with zone outlines, target samples and, given
    the mentor ``graph``, its edges between the agents' current positions."""
    pts = np.asarray(positions, dtype=float)
    frame = [pts]
    if zone is not None:
        frame.append(np.asarray(zone, dtype=float))
    if inflated_zone is not None:
        frame.append(np.asarray(inflated_zone, dtype=float))
    canvas = _Canvas(np.vstack(frame))
    if samples is not None and len(samples):
        for s in np.asarray(samples, dtype=float):
            canvas.circle(s, radius=1.5, color=SAMPLE_COLOR)
    if zone is not None:
        canvas.polygon(zone)
    if inflated_zone is not None:
        canvas.polygon(inflated_zone, dashed=True)
    if graph is not None:
        for mentor, mentee in _edges(graph):
            canvas.line(pts[mentor], pts[mentee], opacity=0.35)
    for k in range(len(pts)):
        title = str(ids[k]) if ids is not None else None
        canvas.circle(pts[k], radius=3.5, color=ROLE_COLORS[roles[k]], title=title)
    canvas.text(f"t = {t:g} s")
    return canvas.render()
