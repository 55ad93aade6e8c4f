"""Simplex and polygon geometry in R^2 and R^3.

Convex hulls, barycentric coordinates, containment tests and a few polygon
utilities. Everything operates on plain numpy arrays in workspace units
(meters) and is pure, so calls are safe from any thread.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, DegenerateSimplex

# A simplex counts as degenerate when |det| of its augmented vertex matrix
# falls below DEGENERACY_COEFF * (max vertex coordinate magnitude)^n.
DEGENERACY_COEFF = 1e-12
# Points within this slack of a face still count as inside the simplex.
CONTAINMENT_TOL = 1e-9


def augmented_matrix(vertices: np.ndarray) -> np.ndarray:
    """(n+1)x(n+1) matrix with vertex coordinates as columns over a row of ones."""
    verts = np.asarray(vertices, dtype=float)
    return np.vstack([verts.T, np.ones(len(verts))])


def degeneracy_threshold(vertices: np.ndarray) -> float:
    verts = np.asarray(vertices, dtype=float)
    n = verts.shape[1]
    scale = float(np.max(np.abs(verts))) if verts.size else 0.0
    return DEGENERACY_COEFF * scale**n


def is_degenerate(vertices) -> bool:
    verts = np.asarray(vertices, dtype=float)
    return abs(float(np.linalg.det(augmented_matrix(verts)))) < degeneracy_threshold(verts)


def barycentric(point, vertices) -> np.ndarray:
    """Barycentric coordinates of ``point`` w.r.t. n+1 simplex vertices.

    Solves the augmented (n+1)x(n+1) system directly; the weights sum to 1
    and reconstruct the point exactly up to round-off.
    """
    verts = np.asarray(vertices, dtype=float)
    mat = augmented_matrix(verts)
    if abs(float(np.linalg.det(mat))) < degeneracy_threshold(verts):
        raise DegenerateSimplex("simplex vertices are affinely dependent")
    rhs = np.append(np.asarray(point, dtype=float), 1.0)
    return np.linalg.solve(mat, rhs)


def barycentric_many(points, vertices) -> np.ndarray:
    """Barycentric coordinates of many points at once; returns (len(points), n+1)."""
    pts = np.asarray(points, dtype=float)
    verts = np.asarray(vertices, dtype=float)
    mat = augmented_matrix(verts)
    if abs(float(np.linalg.det(mat))) < degeneracy_threshold(verts):
        raise DegenerateSimplex("simplex vertices are affinely dependent")
    rhs = np.vstack([pts.T, np.ones(len(pts))])
    return np.linalg.solve(mat, rhs).T


def contains(vertices, point, tol: float = CONTAINMENT_TOL) -> bool:
    """True iff ``point`` lies in the closed simplex (faces count as inside)."""
    return bool(np.min(barycentric(point, vertices)) >= -tol)


@dataclass(frozen=True)
class Simplex:
    """An n-simplex tagged with the formation rows of the agents at its vertices."""

    vertex_rows: tuple[int, ...]
    vertex_points: np.ndarray  # (n+1, n); point k belongs to vertex_rows[k]

    def barycentric(self, point) -> np.ndarray:
        return barycentric(point, self.vertex_points)

    def contains(self, point, tol: float = CONTAINMENT_TOL) -> bool:
        return contains(self.vertex_points, point, tol)

    def is_degenerate(self) -> bool:
        return is_degenerate(self.vertex_points)

    def replace_vertex(self, k: int, row: int, point) -> "Simplex":
        rows = list(self.vertex_rows)
        rows[k] = row
        pts = self.vertex_points.copy()
        pts[k] = np.asarray(point, dtype=float)
        return Simplex(tuple(rows), pts)


def convex_hull(points) -> list[int]:
    """Indices of the convex hull vertices of a 2-D or 3-D point set.

    In 2-D the returned cycle is counterclockwise and starts at the smallest
    participating index; points lying on hull edges are not vertices. In 3-D
    the indices are sorted ascending (no canonical cycle exists).
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] not in (2, 3):
        raise ValueError("points must be an (N, 2) or (N, 3) array")
    if len(pts) < pts.shape[1] + 1:
        raise DegenerateInput("need at least n+1 points for a full-dimensional hull")
    if pts.shape[1] == 2:
        return _hull_2d(pts)
    return _hull_3d(pts)


def _hull_2d(pts: np.ndarray) -> list[int]:
    # Monotone chain; strict turns only, so collinear edge points are dropped.
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    scale = float(np.max(np.abs(pts)))
    eps = DEGENERACY_COEFF * scale * scale

    def cross(o, a, b):
        return (pts[a, 0] - pts[o, 0]) * (pts[b, 1] - pts[o, 1]) - (
            pts[a, 1] - pts[o, 1]
        ) * (pts[b, 0] - pts[o, 0])

    def chain(indices):
        out: list[int] = []
        for i in indices:
            while len(out) >= 2 and cross(out[-2], out[-1], i) <= eps:
                out.pop()
            out.append(int(i))
        return out

    lower = chain(order)
    upper = chain(order[::-1])
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        raise DegenerateInput("all points are collinear")
    start = hull.index(min(hull))
    return hull[start:] + hull[:start]


def _hull_3d(pts: np.ndarray) -> list[int]:
    from scipy.spatial import ConvexHull, QhullError

    try:
        hull = ConvexHull(pts)
    except QhullError as exc:
        raise DegenerateInput(f"degenerate 3-d point set: {exc}") from exc
    return sorted(int(i) for i in hull.vertices)


def hull_facets(points) -> list[tuple[int, ...]]:
    """Triangular facets (vertex index triples) of a 3-D convex hull."""
    from scipy.spatial import ConvexHull, QhullError

    pts = np.asarray(points, dtype=float)
    try:
        hull = ConvexHull(pts)
    except QhullError as exc:
        raise DegenerateInput(f"degenerate 3-d point set: {exc}") from exc
    facets = [tuple(int(i) for i in f) for f in hull.simplices]
    return sorted(facets, key=lambda f: tuple(sorted(f)))


def polygon_area(polygon) -> float:
    """Signed shoelace area; positive for counterclockwise orientation."""
    poly = np.asarray(polygon, dtype=float)
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def polygon_centroid(polygon) -> np.ndarray:
    """Area centroid of a simple polygon; vertex mean if the area vanishes."""
    poly = np.asarray(polygon, dtype=float)
    x, y = poly[:, 0], poly[:, 1]
    cross = x * np.roll(y, -1) - np.roll(x, -1) * y
    area2 = float(np.sum(cross))
    scale = max(1.0, float(np.max(np.abs(poly))))
    if abs(area2) < 1e-12 * scale * scale:
        return poly.mean(axis=0)
    cx = float(np.sum((x + np.roll(x, -1)) * cross)) / (3.0 * area2)
    cy = float(np.sum((y + np.roll(y, -1)) * cross)) / (3.0 * area2)
    return np.array([cx, cy])


def ensure_ccw(polygon) -> np.ndarray:
    poly = np.asarray(polygon, dtype=float)
    if polygon_area(poly) < 0:
        return poly[::-1].copy()
    return poly.copy()


def scale_polygon(polygon, factor: float, about=None) -> np.ndarray:
    """Scale a polygon about a point (its area centroid by default)."""
    poly = np.asarray(polygon, dtype=float)
    center = polygon_centroid(poly) if about is None else np.asarray(about, dtype=float)
    return center + factor * (poly - center)


def point_in_polygon(point, polygon, tol: float = CONTAINMENT_TOL):
    """Even-odd containment test for a simple polygon; boundary counts as inside.

    Both tests run over all edges at once: a point within ``tol`` of the
    clamped projection onto any edge segment is inside, otherwise the parity
    of edge crossings to its right decides. A (K, 2) array of points gives a
    (K,) bool array; one (2,) point gives a bool.
    """
    pts = np.asarray(point, dtype=float)
    x, y = pts.reshape(-1, 2).T[:, :, None]  # (K, 1) each, against (m,) edges
    poly = np.asarray(polygon, dtype=float)
    x1, y1 = poly.T
    x2, y2 = np.concatenate([poly[1:], poly[:1]]).T
    dx, dy = x2 - x1, y2 - y1
    denom = dx * dx + dy * dy
    dot = (x - x1) * dx + (y - y1) * dy
    s = np.clip(np.divide(dot, denom, out=np.zeros_like(dot), where=denom != 0.0), 0.0, 1.0)
    ex, ey = x1 + s * dx - x, y1 + s * dy - y
    on_edge = (np.sqrt(ex * ex + ey * ey) <= tol).any(axis=1)
    cross = (y1 > y) != (y2 > y)
    xc = x1 + np.divide((y - y1) * dx, dy, out=np.zeros_like(dot), where=cross)
    inside = on_edge | (np.count_nonzero(cross & (x < xc), axis=1) % 2 == 1)
    return bool(inside[0]) if pts.ndim == 1 else inside
