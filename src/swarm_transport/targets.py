"""Target abstraction: map sampled target points to per-agent final positions.

Final positions are assigned layer by layer, as one (N, n) array in
formation row order. Hull agents take the scenario's anchor positions, the
core and clamped agents hold their initial positions, and every mentee
averages the target samples that fall inside the simplex spanned by its
mentors' final positions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from . import geometry
from .errors import BadConfig, DegenerateMentorSimplex
from .formation import Formation, LayeredGraph


@dataclass(frozen=True)
class TargetSet:
    """Finite target sample set plus the zone outline used for scoring."""

    samples: np.ndarray  # (S, n)
    # the corners of a convex polygon in order, either way round (3-D: points
    # whose hull is the zone); the samples' hull when absent
    zone: np.ndarray | None = None

    @cached_property
    def zone_polygon(self) -> np.ndarray:
        """The scoring outline, read-only and computed once per target set."""
        if self.zone is not None:
            zone = np.asarray(self.zone, dtype=float)
            zone = geometry.ensure_ccw(zone) if zone.shape[1] == 2 else zone.copy()
        elif len(self.samples) >= 3:
            zone = self.samples[geometry.convex_hull(self.samples)]
        else:
            raise BadConfig("target set has no zone polygon and too few samples for a hull")
        zone.flags.writeable = False
        return zone

    @cached_property
    def center(self) -> np.ndarray:
        """The point the plan's core is nearest and its zone scales about; read-only."""
        center = zone_center(self.zone_polygon)
        center.flags.writeable = False
        return center


def zone_center(zone) -> np.ndarray:
    """The center of a zone: in 2-D the area centroid of its counter-clockwise
    outline, summed about its vertex mean so that it moves with the zone, in
    3-D the mean of its vertices."""
    zone = np.asarray(zone, dtype=float)
    mean = zone.mean(axis=0)
    return mean + geometry.polygon_centroid(geometry.ensure_ccw(zone - mean)) if zone.shape[1] == 2 else mean


@dataclass(frozen=True)
class DesiredPositions:
    """Final desired position of every row plus the sample capture bookkeeping."""

    p: np.ndarray  # (N, n) in formation row order; boundary rows hold the anchors
    captured: dict[int, tuple[int, ...]]  # mentee row -> indices into the sample list
    fallback_ids: tuple[int, ...]  # mentee rows whose simplex captured nothing

    def uncovered_samples(self, n_samples: int) -> tuple[int, ...]:
        """Ascending indices of the samples that no mentee captured."""
        seen = np.zeros(n_samples, dtype=bool)
        seen[list(chain.from_iterable(self.captured.values()))] = True
        return tuple(np.flatnonzero(~seen).tolist())


def equal_arclength_points(polygon, count: int) -> np.ndarray:
    """``count`` points spaced at equal arc length along a closed polygon.

    Walks the boundary counterclockwise starting at vertex 0.
    """
    poly = geometry.ensure_ccw(polygon)
    seg = np.concatenate((poly[1:], poly[:1])) - poly
    lengths = np.linalg.norm(seg, axis=1)
    total = float(lengths.sum())
    if total <= 0:
        raise BadConfig("zone polygon has zero perimeter")
    cum = np.concatenate([[0.0], np.cumsum(lengths)])
    s = total * np.arange(count) / count
    j = np.minimum(np.searchsorted(cum, s, side="right") - 1, len(poly) - 1)
    frac = np.divide(s - cum[j], lengths[j], out=np.zeros(count), where=lengths[j] > 0)
    return poly[j] + frac[:, None] * seg[j]


def leader_final_positions(formation: Formation, targets: TargetSet, scale: float) -> np.ndarray:
    """Generated anchor positions of the hull agents, shaped (B, n) in hull
    cycle order: equal arc length along the zone outline scaled by ``scale``
    about ``targets.center``, preserving the hull's cyclic order. The
    placement is a convention of this artifact, not part of the underlying
    method.
    """
    if formation.dim != 2:
        raise BadConfig("generated leader placement is only available in 2-D")
    ring = geometry.scale_polygon(targets.zone_polygon, scale, about=targets.center)
    return equal_arclength_points(ring, len(formation.boundary))


def compute_desired(
    graph: LayeredGraph,
    formation: Formation,
    targets: TargetSet,
    leader_p: np.ndarray,
) -> DesiredPositions:
    """Final desired positions of every row, mentees in (layer, row) order.

    ``leader_p`` holds the (B, n) anchors in hull cycle order. Each mentee
    captures the samples inside its mentors' final simplex and averages
    them. A mentee whose simplex captures nothing falls back to the simplex
    centroid (equal weights); such agents are reported in ``fallback_ids``.
    A collapsed final mentor simplex raises ``DegenerateMentorSimplex``,
    with samples or without. One ``geometry.candidates`` search finds the
    samples near the first mentee layer. After that, a mentee's candidates
    are the samples near the final simplex of its latest mentor: in a graph
    from ``build_actual`` that mentor is of the previous layer and was
    adopted by the parent of the mentee's cell, so its final simplex holds
    the mentee's.
    """
    samples = np.asarray(targets.samples, dtype=float)
    p = formation.positions.copy()  # the core and clamped rows keep these
    p[formation.boundary] = leader_p

    captured: dict[int, tuple[int, ...]] = {}
    fallback: list[int] = []
    starts = graph.layer_starts
    for sl in map(slice, starts[:-1], starts[1:]):
        rows, mentors = graph.mentees[sl], graph.mentors[sl]
        verts = p[mentors]
        if len(flat := np.flatnonzero(geometry.degenerate(verts))):
            a, ms = rows[flat[0]], mentors[flat[0]]
            raise DegenerateMentorSimplex(
                f"agent {formation.ids[a]}: mentors {tuple(formation.ids[m] for m in ms)} "
                "have affinely dependent final positions"
            )
        if sl.start == 0:
            near_cell, near_idx = geometry.candidates(samples, verts)
        else:
            latest = np.take_along_axis(mentors, graph.layer[mentors].argmax(axis=1)[:, None], axis=1)[:, 0]
            near_cell, near_idx = geometry.inherit(near_cell, near_idx, np.searchsorted(parents, latest))
        near_cell, near_idx, score = geometry.near_pairs(verts, near_cell, near_idx, samples)
        parents = rows
        inside = score >= -geometry.CONTAINMENT_TOL
        cell, idx = near_cell[inside], near_idx[inside]
        count = np.bincount(cell, minlength=len(rows))
        # one sum per axis in capture order, as ``mean`` adds them
        sums = np.stack([np.bincount(cell, weights=samples[idx, d], minlength=len(rows)) for d in range(p.shape[1])], 1)
        hit = count > 0
        p[rows[hit]] = sums[hit] / count[hit, None]
        p[rows[~hit]] = p[mentors[~hit]].mean(axis=1)
        fallback += rows[~hit].tolist()
        found, ends = idx.tolist(), np.cumsum(count).tolist()
        for a, start, end in zip(rows.tolist(), [0, *ends], ends):
            captured[a] = tuple(found[start:end])
    return DesiredPositions(p=p, captured=captured, fallback_ids=tuple(fallback))
