"""Simplex and polygon geometry in R^2 and R^3.

Convex hulls, barycentric coordinates, one convex-region containment test
and a few polygon utilities. Weights, simplex containment and capture all
apply each simplex's inverse elementwise, which gives a point the same bits
in any batch.
Everything operates on plain numpy arrays in workspace units (meters) and
is pure, so calls are safe from any thread.
"""

from __future__ import annotations

import math
import numpy as np

from .errors import DegenerateInput, DegenerateSimplex

# A simplex counts as degenerate when |det| of its edge vectors v_i - v_0 is
# at most DEGENERACY_COEFF * extent^n (``extent``), so one whose vertices all
# coincide is too. Every tolerance on a shape is relative to its own extent.
DEGENERACY_COEFF = 1e-12
# Points within this slack of a face still count as inside the simplex.
CONTAINMENT_TOL = 1e-9


def augmented_matrix(vertices: np.ndarray) -> np.ndarray:
    """(n+1)x(n+1) matrix with vertex coordinates as columns over a row of ones;
    a (..., n+1, n) stack of simplices gives a stack of matrices."""
    verts = np.asarray(vertices, dtype=float)
    ones = np.ones(verts.shape[:-2] + (1, verts.shape[-2]))
    return np.concatenate([np.swapaxes(verts, -1, -2), ones], axis=-2)


def extent(points) -> np.ndarray:
    """Length scale of each point set of a (..., K, n) stack: its largest
    |coordinate difference| from the set's first point (0 when it is empty).
    It depends on where the set lies only through rounding."""
    pts = np.asarray(points, dtype=float)
    return np.abs(pts - pts[..., :1, :]).max(axis=(-2, -1), initial=0.0)


def degenerate(vertices) -> np.ndarray:
    """Whether each simplex of a (..., n+1, n) stack is degenerate: |det| of its
    edge vectors v_i - v_0 at most DEGENERACY_COEFF * ``extent``^n."""
    verts = np.asarray(vertices, dtype=float)
    edges = verts[..., 1:, :] - verts[..., :1, :]
    return np.abs(np.linalg.det(edges)) <= DEGENERACY_COEFF * extent(verts) ** verts.shape[-1]


def barycentric(point, vertices) -> np.ndarray:
    """Barycentric coordinates of ``point`` w.r.t. n+1 simplex vertices; a (..., n)
    stack of points in a (..., n+1, n) stack of simplices gives (..., n+1)."""
    return barycentric_many(np.asarray(point, dtype=float)[..., None, :], vertices)[..., 0, :]


def barycentric_many(points, vertices) -> np.ndarray:
    """Barycentric coordinates of (K, n) points in one (n+1, n) simplex, as
    (K, n+1), or of a (C, K, n) stack in a (C, n+1, n) stack, through each
    simplex's inverse (``DegenerateSimplex`` if one is degenerate)."""
    return inverse_coordinates(simplex_inverse(vertices)[..., None, :, :], points)


def simplex_inverse(vertices) -> np.ndarray:
    """Inverses of the augmented matrices of a (..., n+1, n) stack of simplices,
    for ``inverse_coordinates``; ``DegenerateSimplex`` if any is degenerate."""
    verts = np.asarray(vertices, dtype=float)
    if degenerate(verts).any():
        raise DegenerateSimplex("simplex vertices are affinely dependent")
    return np.linalg.inv(augmented_matrix(verts))


def inverse_coordinates(inverse, points) -> np.ndarray:
    """Barycentric coordinates of (..., n) points through (..., n+1, n+1)
    simplex inverses broadcast against them, as (..., n+1): column j of the
    inverse times coordinate j, summed for j = 0..n-1 in order, then plus the
    last column, all elementwise, so a point's bits never depend on its batch."""
    x = np.asarray(points, dtype=float)[..., None, :]
    lam = inverse[..., 0] * x[..., 0]
    for j in range(1, x.shape[-1]):
        lam = lam + inverse[..., j] * x[..., j]
    return lam + inverse[..., -1]


# A simplex looks for points only where every barycentric coordinate is
# >= -_SLACK: the simplex scaled by 1 + (n+1)*_SLACK about its centroid.
# The slack lies far above CONTAINMENT_TOL and the coordinates' rounding, so
# that region holds every point the test can find inside, and every point
# inside a child cell (one vertex moved into the simplex), whose coordinates
# in the simplex are at least about -2*CONTAINMENT_TOL.
_SLACK = 1e-3
_EDGES = {m: np.triu_indices(m, 1) for m in (3, 4)}  # vertex pairs of a simplex
# At most this many (simplex, point) pairs, ``candidates`` tests every pair
# against the simplices' boxes: the column search pays about 60 small numpy
# calls, the direct test about 0.08 us a pair. Only the first mentee layer of
# each planning phase and each clamped agent search for candidates. On a
# 2-core Xeon the two tie between 8,000 and 12,000 pairs; the direct test won
# all 32 such calls of the 16 sweep-small plans (378 to 2,244 pairs), the
# columns all 4 of transport-large seeds 1-2 (51,688 pairs or more).
_DIRECT_PAIRS = 2**13


def candidates(points, vertices):
    """(simplex, point) pairs for (P, n) points and a (C, n+1, n) stack of
    simplices, sorted by simplex then point, among them every point of each
    simplex grown by ``_SLACK``: for at most ``_DIRECT_PAIRS`` (simplex,
    point) pairs, every point in the grown simplex's bounding box; above
    that, ``_column_candidates``, which forms no (C, P) array."""
    pts, verts = np.asarray(points, dtype=float), np.asarray(vertices, dtype=float)
    center = verts.mean(axis=1, keepdims=True)
    grown = center + (1.0 + verts.shape[1] * _SLACK) * (verts - center)
    pad = 1e-12 * np.abs(grown).max(axis=(1, 2), initial=0.0)
    if len(verts) * len(pts) <= _DIRECT_PAIRS:
        lo, hi = grown.min(axis=1) - pad[:, None], grown.max(axis=1) + pad[:, None]
        return np.nonzero(((pts >= lo[:, None]) & (pts <= hi[:, None])).all(axis=2))
    return _column_candidates(pts, grown, pad)


def _column_candidates(pts, grown, pad):
    """``candidates`` over about sqrt(P) equal-count columns of points by x,
    each sorted by y: each simplex takes, in every column it spans, the
    points in the box around its part of that column's x-slab."""
    n_pts = len(pts)
    by_x = np.argsort(pts[:, 0], kind="stable")
    xs = pts[by_x, 0]
    per = max(1, -(-n_pts // max(1, math.isqrt(n_pts))))  # column c holds x ranks [c*per, (c+1)*per)
    ys = np.sort(pts[:, 1])
    key = np.empty(n_pts, dtype=np.intp)  # column * P + rank of y
    key[by_x] = np.arange(n_pts) // per * n_pts
    key += np.searchsorted(ys, pts[:, 1])
    order = np.argsort(key, kind="stable")
    key = key[order]
    # one query per (simplex, column) pair, over the column's points in
    # the simplex's x-range: xa..xb
    first = np.searchsorted(xs, grown[:, :, 0].min(axis=1) - pad, side="left")
    last = np.searchsorted(xs, grown[:, :, 0].max(axis=1) + pad, side="right")
    spans = np.where(last > first, (last - 1) // per - first // per + 1, 0)
    q_cell, q_col = _ranges(first // per, spans)
    xa = xs[np.maximum(first[q_cell], q_col * per)]
    xb = xs[np.minimum(last[q_cell], (q_col + 1) * per) - 1]
    # bounds on the other axes of each simplex's part in its slab: its
    # vertices in the slab and its edges' crossings of the two planes
    v = grown[q_cell]
    inner = ((v[:, :, 0] >= xa[:, None]) & (v[:, :, 0] <= xb[:, None]))[:, :, None]
    i, j = _EDGES[v.shape[1]]
    edge = v[:, j] - v[:, i]  # (Q, E, n)
    planes = np.stack([xa, xb], axis=1)[:, None, :] - v[:, i, :1]  # (Q, E, 2)
    t = np.divide(planes, edge[:, :, :1], out=np.full_like(planes, -1.0), where=edge[:, :, :1] != 0.0)
    cross = v[:, i, None, 1:] + t[..., None] * edge[:, :, None, 1:]  # (Q, E, 2, n-1)
    ok = ((t >= 0.0) & (t <= 1.0))[..., None]
    lo = np.minimum(np.where(inner, v[:, :, 1:], np.inf).min(axis=1), np.where(ok, cross, np.inf).min(axis=(1, 2)))
    hi = np.maximum(np.where(inner, v[:, :, 1:], -np.inf).max(axis=1), np.where(ok, cross, -np.inf).max(axis=(1, 2)))
    lo, hi = lo - pad[q_cell, None], hi + pad[q_cell, None]
    start = np.searchsorted(key, q_col * n_pts + np.searchsorted(ys, lo[:, 0], side="left"))
    end = np.searchsorted(key, q_col * n_pts + np.searchsorted(ys, hi[:, 0], side="right"))
    q, at = _ranges(start, np.maximum(end - start, 0))
    idx = order[at]
    x = pts[idx]
    keep = (x[:, 0] >= xa[q]) & (x[:, 0] <= xb[q]) & np.all((x[:, 1:] >= lo[q]) & (x[:, 1:] <= hi[q]), axis=1)
    cell, idx = q_cell[q[keep]], idx[keep]
    pair = np.argsort(cell * n_pts + idx)
    return cell[pair], idx[pair]


def near_pairs(vertices, cell, idx, points):
    """The (cell, point) pairs of ``cell`` and ``idx`` whose point lies in the
    cell grown by ``_SLACK`` (every barycentric coordinate at least
    -``_SLACK``), in their order, with each point's minimum coordinate in its
    cell. Only the cells of the (C, n+1, n) ``vertices`` stack that have a
    pair are inverted; the caller keeps degenerate cells out of the pairs."""
    used = np.bincount(cell, minlength=len(vertices)) > 0
    inv = np.linalg.inv(augmented_matrix(vertices[used]))[np.cumsum(used)[cell] - 1]
    score = inverse_coordinates(inv, points[idx]).min(axis=1)
    keep = np.flatnonzero(score >= -_SLACK)
    return cell[keep], idx[keep], score[keep]


def inherit(cell, idx, parent):
    """Each child cell's copy of its parent's (cell, point) pairs: for pairs
    sorted by cell and the parent cell of each child, the (child, point)
    pairs sorted by child, each child's points in its parent's order."""
    lo, hi = np.searchsorted(cell, parent), np.searchsorted(cell, parent, side="right")
    child, at = _ranges(lo, hi - lo)
    return child, idx[at]


def _ranges(start, count):
    """Owner and value of every slot when block k holds ``count[k]``
    consecutive integers from ``start[k]``."""
    owner = np.repeat(np.arange(len(count)), count)
    return owner, np.arange(len(owner)) - np.repeat(np.cumsum(count) - count, count) + start[owner]


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
    return sorted(int(i) for i in hull_3d(pts).vertices)


def _hull_2d(pts: np.ndarray) -> list[int]:
    # Monotone chain; strict turns only, so collinear edge points are dropped.
    # Python floats round each operation as numpy's float64 scalars do, faster.
    order = np.lexsort((pts[:, 1], pts[:, 0])).tolist()
    xy = pts.tolist()
    scale = float(extent(pts))
    eps = DEGENERACY_COEFF * scale * scale

    def chain(indices):
        out: list[int] = []
        for i in indices:
            bx, by = xy[i]
            while len(out) >= 2:
                (ox, oy), (ax, ay) = xy[out[-2]], xy[out[-1]]
                if not (ax - ox) * (by - oy) - (ay - oy) * (bx - ox) <= eps:  # NaN keeps the point
                    break
                out.pop()
            out.append(i)
        return out

    lower = chain(order)
    upper = chain(order[::-1])
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        raise DegenerateInput("all points are collinear")
    start = hull.index(min(hull))
    return hull[start:] + hull[:start]


def hull_3d(points):
    """scipy's ``ConvexHull`` of 3-D points; ``DegenerateInput`` where Qhull
    fails, with a message of its own, since Qhull's names a per-process run id."""
    from scipy.spatial import ConvexHull, QhullError

    pts = np.asarray(points, dtype=float)
    try:
        return ConvexHull(pts)
    except QhullError as exc:
        rank = np.linalg.matrix_rank(pts - pts.mean(axis=0))
        raise DegenerateInput(f"degenerate 3-d point set: no hull of {len(pts)} points, whose centred rank is {rank}") from exc


def hull_facets(points) -> list[tuple[int, ...]]:
    """Triangular facets (vertex index triples) of a 3-D convex hull."""
    facets = [tuple(int(i) for i in f) for f in hull_3d(points).simplices]
    return sorted(facets, key=lambda f: tuple(sorted(f)))


def polygon_area(polygon) -> float:
    """Signed shoelace area; positive for counterclockwise orientation."""
    poly = np.asarray(polygon, dtype=float)
    (x, y), (x1, y1) = poly.T, np.concatenate((poly[1:], poly[:1])).T
    return 0.5 * float(np.sum(x * y1 - x1 * y))


def polygon_centroid(polygon) -> np.ndarray:
    """Area centroid of a simple polygon; the vertex mean if its area is
    zero: |2A| at most DEGENERACY_COEFF * ``extent``^2."""
    poly = np.asarray(polygon, dtype=float)
    (x, y), (x1, y1) = poly.T, np.concatenate((poly[1:], poly[:1])).T
    cross = x * y1 - x1 * y
    area2 = float(np.sum(cross))
    if abs(area2) <= DEGENERACY_COEFF * float(extent(poly)) ** 2:
        return poly.mean(axis=0)
    cx = float(np.sum((x + x1) * cross)) / (3.0 * area2)
    cy = float(np.sum((y + y1) * cross)) / (3.0 * area2)
    return np.array([cx, cy])


def ensure_ccw(polygon) -> np.ndarray:
    poly = np.asarray(polygon, dtype=float)
    if polygon_area(poly) < 0:
        return poly[::-1].copy()
    return poly.copy()


def scale_polygon(polygon, factor: float, about) -> np.ndarray:
    """Scale a polygon about the point ``about``."""
    center = np.asarray(about, dtype=float)
    return center + factor * (np.asarray(polygon, dtype=float) - center)


def point_in_polygon(points, vertices, tol: float = CONTAINMENT_TOL):
    """Whether points lie in the convex region of ``vertices`` (in 2-D its
    corner cycle, either way round; in 3-D their hull): a point's signed
    distance from every facet's plane, along unit outward normals, is at
    most ``tol``, so the outline is inside and a negative ``tol`` asks for
    the strict interior. (K, n) points give a (K,) bool array, tested in
    passes of at most 2^16 (point, facet) pairs; one (n,) point gives a bool.
    """
    verts = np.asarray(vertices, dtype=float)
    if verts.shape[1] == 3:
        eq = hull_3d(verts).equations  # rows (unit outward normal, offset)
        normal, offset = eq[:, :-1], eq[:, -1]
    else:  # one facet per edge of nonzero length, outward by the sign of the area
        edge = np.concatenate((verts[1:], verts[:1])) - verts
        length = np.hypot(edge[:, 0], edge[:, 1])
        keep = length > 0
        (ex, ey), unit = edge[keep].T, np.copysign(1.0, polygon_area(verts)) / length[keep]
        normal = np.column_stack((ey * unit, -ex * unit))
        offset = -np.sum(normal * verts[keep], axis=1)
    pts = np.asarray(points, dtype=float)
    x = pts.reshape(-1, verts.shape[1])
    step = max(1, 2**16 // max(1, len(offset)))  # points per pass, so memory is bounded by a pass
    passes = range(0, max(len(x), 1), step)
    inside = np.concatenate([(x[s : s + step] @ normal.T + offset <= tol).all(axis=1) for s in passes])
    return bool(inside[0]) if pts.ndim == 1 else inside
