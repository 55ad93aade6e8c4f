"""Formation model and layered feed-forward mentor-graph synthesis.

The builder grows a directed acyclic mentor graph out of an initial
formation. Hull agents plus one interior "core" agent anchor a fan
triangulation of the hull; the remaining agents are claimed layer by layer:
each open simplex adopts the best-centered unclaimed agent inside it as a
mentee, wires edges from its n+1 vertices (the mentors), and splits into
n+1 child simplices around the mentee. Clamped (uncooperative) agents are
spliced into the triangulation up front as extra layer-0 vertices, so they
can serve as information sources while never receiving mentors or edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from . import geometry
from .errors import (
    BadConfig,
    CoreOnBoundary,
    CycleDetected,
    NoCandidate,
    UnassignedAgents,
)
from .geometry import Simplex

ROLE_BOUNDARY = "boundary"
ROLE_CORE = "core"
ROLE_COOPERATIVE = "cooperative"
ROLE_UNCOOPERATIVE = "uncooperative"


@dataclass(frozen=True)
class Formation:
    """Initial agent layout: positions, hull cycle, clamped set, target center."""

    dim: int
    ids: tuple[int, ...]  # sorted ascending
    positions: np.ndarray  # (N, dim); row k belongs to ids[k]
    boundary_ids: tuple[int, ...]  # hull cycle, counterclockwise for dim 2
    uncooperative_ids: frozenset[int]
    target_center: np.ndarray
    core_id: int | None = None  # declared core, auto-selected when None
    _index: Mapping[int, int] = field(default_factory=dict, repr=False, compare=False)

    @classmethod
    def build(
        cls,
        ids,
        positions,
        target_center,
        *,
        uncooperative=(),
        core_id=None,
        declared_boundary=None,
    ) -> "Formation":
        """Validate raw agent data and compute the hull cycle.

        ``declared_boundary``, when given, is checked against the computed
        hull vertex set; the cyclic order always comes from the hull.
        """
        ids = [int(i) for i in ids]
        if len(set(ids)) != len(ids):
            raise BadConfig("duplicate agent ids")
        pos = np.asarray(positions, dtype=float)
        if pos.ndim != 2 or pos.shape[0] != len(ids):
            raise BadConfig("positions must be an (N, dim) array matching ids")
        dim = pos.shape[1]
        if dim not in (2, 3):
            raise BadConfig("dimension must be 2 or 3")
        if not np.all(np.isfinite(pos)):
            raise BadConfig("agent positions must be finite")
        order = sorted(range(len(ids)), key=lambda k: ids[k])
        ids_sorted = tuple(ids[k] for k in order)
        pos_sorted = pos[order]

        hull = geometry.convex_hull(pos_sorted)
        boundary = tuple(ids_sorted[k] for k in hull)
        if declared_boundary is not None and set(declared_boundary) != set(boundary):
            raise BadConfig(
                "declared boundary does not match the convex hull of the positions: "
                f"declared {sorted(set(declared_boundary))}, hull {sorted(set(boundary))}"
            )
        uncoop = frozenset(int(i) for i in uncooperative)
        if not uncoop <= set(ids_sorted):
            raise BadConfig("uncooperative ids not present in the formation")
        if uncoop & set(boundary):
            raise BadConfig("boundary agents cannot be uncooperative")
        if core_id is not None:
            core_id = int(core_id)
            if core_id not in ids_sorted:
                raise BadConfig(f"declared core {core_id} is not an agent")
            if core_id in boundary:
                raise BadConfig(f"declared core {core_id} lies on the boundary")
            if core_id in uncoop:
                raise BadConfig(f"declared core {core_id} is uncooperative")
        center = np.asarray(target_center, dtype=float)
        if center.shape != (dim,) or not np.all(np.isfinite(center)):
            raise BadConfig("target center must be a finite point of the same dimension")

        form = cls(
            dim=dim,
            ids=ids_sorted,
            positions=pos_sorted,
            boundary_ids=boundary,
            uncooperative_ids=uncoop,
            target_center=center,
            core_id=core_id,
            _index={a: k for k, a in enumerate(ids_sorted)},
        )
        inside = _strict_interior_mask(form)
        offenders = [
            a
            for k, a in enumerate(ids_sorted)
            if a not in set(boundary) and not inside[k]
        ]
        if offenders:
            raise BadConfig(
                f"non-boundary agents must lie strictly inside the hull: {offenders}"
            )
        return form

    @property
    def n_agents(self) -> int:
        return len(self.ids)

    def index(self, agent_id: int) -> int:
        return self._index[agent_id]

    def position(self, agent_id: int) -> np.ndarray:
        return self.positions[self._index[agent_id]]

    def interior_ids(self) -> tuple[int, ...]:
        boundary = set(self.boundary_ids)
        return tuple(i for i in self.ids if i not in boundary)


def _strict_interior_mask(formation: Formation) -> np.ndarray:
    """Boolean mask over formation.positions: strictly inside the hull."""
    return _strict_interior_mask_points(formation, formation.positions)


@dataclass(frozen=True)
class LayeredGraph:
    """Layered mentor graph: layer sets, per-mentee mentor tuples, forward edges."""

    core_id: int
    layers: tuple[frozenset[int], ...]  # index 0 holds boundary + core + clamped
    mentors: Mapping[int, tuple[int, ...]]  # mentee -> n+1 mentor ids
    edges: frozenset[tuple[int, int]]  # (mentor, mentee)
    layer_index: Mapping[int, int]
    n_initial_simplices: int  # simplices in the core fan before any refinement

    @property
    def n_layers(self) -> int:
        """Number of mentee layers (0 when nobody needed a mentor)."""
        return len(self.layers) - 1

    def mentee_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self.mentors))

    def mentors_of(self, agent_id: int) -> tuple[int, ...]:
        return self.mentors.get(agent_id, ())

    def members_through(self, layer: int) -> frozenset[int]:
        """Union of layers 0..layer (everything that can mentor layer+1)."""
        out: set[int] = set()
        for l in range(min(layer, self.n_layers) + 1):
            out |= self.layers[l]
        return frozenset(out)


def role_map(formation: Formation, graph: LayeredGraph) -> dict[int, str]:
    roles = {}
    boundary = set(formation.boundary_ids)
    for a in formation.ids:
        if a in boundary:
            roles[a] = ROLE_BOUNDARY
        elif a == graph.core_id:
            roles[a] = ROLE_CORE
        elif a in formation.uncooperative_ids:
            roles[a] = ROLE_UNCOOPERATIVE
        else:
            roles[a] = ROLE_COOPERATIVE
    return roles


def cooperative_ids(formation: Formation, graph: LayeredGraph) -> tuple[int, ...]:
    excluded = set(formation.boundary_ids) | formation.uncooperative_ids
    excluded.add(graph.core_id)
    return tuple(i for i in formation.ids if i not in excluded)


def select_core(formation: Formation) -> int:
    """Interior agent nearest the target center; ties go to the smaller id.

    Clamped agents are not eligible: the core must supply an adaptive
    reference, which a clamped agent cannot.
    """
    boundary = set(formation.boundary_ids)
    best: tuple[float, int] | None = None
    for a in formation.ids:
        if a in boundary or a in formation.uncooperative_ids:
            continue
        d = float(np.linalg.norm(formation.position(a) - formation.target_center))
        if best is None or (d, a) < best:
            best = (d, a)
    if best is None:
        raise NoCandidate("every non-boundary agent is uncooperative")
    return best[1]


def fan_triangulate(formation: Formation, core: int) -> list[Simplex]:
    """Core-anchored triangulation of the hull.

    dim 2: one triangle per hull edge, (b_k, b_{k+1}, core). dim 3: one
    tetrahedron per hull facet with the core as apex.
    """
    core_pos = formation.position(core)
    if not _strictly_inside_hull_point(formation, core_pos):
        raise CoreOnBoundary(f"core agent {core} is not strictly inside the hull")
    if formation.dim == 2:
        b = formation.boundary_ids
        out = []
        for k in range(len(b)):
            ids = (b[k], b[(k + 1) % len(b)], core)
            pts = np.array([formation.position(i) for i in ids])
            out.append(Simplex(ids, pts))
        return out
    hull_pts = np.array([formation.position(i) for i in formation.boundary_ids])
    out = []
    for facet in geometry.hull_facets(hull_pts):
        ids = tuple(formation.boundary_ids[k] for k in facet) + (core,)
        pts = np.array([formation.position(i) for i in ids])
        out.append(Simplex(ids, pts))
    return out


def _strictly_inside_hull_point(formation: Formation, point: np.ndarray) -> bool:
    pts = np.asarray(point, dtype=float)[None, :]
    return bool(_strict_interior_mask_points(formation, pts)[0])


def _strict_interior_mask_points(formation: Formation, pts: np.ndarray) -> np.ndarray:
    # equations path (dim 3) uses scipy's (normal, offset) with inside <= 0
    hull_pts = np.array([formation.position(b) for b in formation.boundary_ids])
    if formation.dim == 2:
        scale = max(1.0, float(np.max(np.abs(hull_pts))))
        eps = geometry.DEGENERACY_COEFF * scale * scale
        mask = np.ones(len(pts), dtype=bool)
        m = len(hull_pts)
        for k in range(m):
            a = hull_pts[k]
            e = hull_pts[(k + 1) % m] - a
            cross = e[0] * (pts[:, 1] - a[1]) - e[1] * (pts[:, 0] - a[0])
            mask &= cross > eps
        return mask
    from scipy.spatial import ConvexHull

    hull = ConvexHull(hull_pts)
    vals = pts @ hull.equations[:, :-1].T + hull.equations[:, -1]
    scale = max(1.0, float(np.max(np.abs(hull_pts))))
    return np.all(vals < -geometry.DEGENERACY_COEFF * scale, axis=1)


def build_actual(formation: Formation) -> LayeredGraph:
    """Mentor graph with clamped agents folded into layer 0 as extra sources.

    With no clamped agents this is the nominal, fully cooperative graph.
    """
    core = formation.core_id if formation.core_id is not None else select_core(formation)
    fan = fan_triangulate(formation, core)
    n_initial = len(fan)

    open_list = list(fan)
    for u in sorted(formation.uncooperative_ids):
        open_list = _insert_vertex(open_list, u, formation.position(u))

    layer0 = frozenset(formation.boundary_ids) | {core} | formation.uncooperative_ids
    unassigned = set(formation.ids) - layer0
    layers: list[frozenset[int]] = [layer0]
    mentors: dict[int, tuple[int, ...]] = {}
    edges: set[tuple[int, int]] = set()

    while open_list:
        next_open: list[Simplex] = []
        new_layer: set[int] = set()
        for simplex in open_list:
            mentee = _pick_mentee(simplex, unassigned, formation)
            if mentee is None:
                continue  # nobody left inside: the cell is closed and dropped
            unassigned.discard(mentee)
            new_layer.add(mentee)
            mentors[mentee] = simplex.vertex_ids
            edges.update((j, mentee) for j in simplex.vertex_ids)
            next_open.extend(_expand(simplex, mentee, formation.position(mentee)))
        if not new_layer:
            break
        layers.append(frozenset(new_layer))
        open_list = next_open

    if unassigned:
        raise UnassignedAgents(
            f"open set exhausted with agents {sorted(unassigned)} unassigned"
        )

    layer_index: dict[int, int] = {}
    for l, members in enumerate(layers):
        for a in members:
            layer_index[a] = l
    return LayeredGraph(
        core_id=core,
        layers=tuple(layers),
        mentors=mentors,
        edges=frozenset(edges),
        layer_index=layer_index,
        n_initial_simplices=n_initial,
    )


def _pick_mentee(simplex: Simplex, unassigned, formation: Formation) -> int | None:
    """Best-centered unassigned agent inside the simplex, smaller id on ties."""
    if not unassigned:
        return None
    ids = sorted(unassigned)
    pts = np.array([formation.position(i) for i in ids])
    weights = geometry.barycentric_many(pts, simplex.vertex_points)
    min_w = weights.min(axis=1)
    eligible = min_w >= -geometry.CONTAINMENT_TOL
    if not np.any(eligible):
        return None
    min_w = np.where(eligible, min_w, -np.inf)
    return ids[int(np.argmax(min_w))]  # argmax takes the first (smallest id) on ties


def _expand(simplex: Simplex, vertex_id: int, point: np.ndarray) -> list[Simplex]:
    """Split a simplex around an interior point into n+1 children.

    Children that collapse (the point sat exactly on a face) are dropped;
    the surviving ones still cover the parent.
    """
    out = []
    for k in range(len(simplex.vertex_ids)):
        child = simplex.replace_vertex(k, vertex_id, point)
        if not child.is_degenerate():
            out.append(child)
    return out


def _insert_vertex(open_list: list[Simplex], vertex_id: int, point: np.ndarray) -> list[Simplex]:
    """Splice a clamped agent into the triangulation at its containing cell."""
    for k, simplex in enumerate(open_list):
        if simplex.contains(point):
            children = _expand(simplex, vertex_id, point)
            return open_list[:k] + children + open_list[k + 1 :]
    raise UnassignedAgents(
        f"clamped agent {vertex_id} lies outside every open simplex"
    )


def topological_order(graph: LayeredGraph) -> list[int]:
    """Agents sorted by (layer, id); every agent follows all of its mentors.

    Raises CycleDetected if mentor precedence is violated, which would mean
    the builder produced an inconsistent graph.
    """
    order = sorted(graph.layer_index, key=lambda a: (graph.layer_index[a], a))
    seen: set[int] = set()
    for a in order:
        for m in graph.mentors_of(a):
            if m not in seen:
                raise CycleDetected(f"mentor {m} of agent {a} does not precede it")
        seen.add(a)
    return order


def ancestor_ids(graph: LayeredGraph, agent_id: int) -> frozenset[int]:
    """Transitive mentors of an agent (excluding itself)."""
    out: set[int] = set()
    stack = list(graph.mentors_of(agent_id))
    while stack:
        m = stack.pop()
        if m in out:
            continue
        out.add(m)
        stack.extend(graph.mentors_of(m))
    return frozenset(out)


def graph_records(formation: Formation, graph: LayeredGraph) -> str:
    """Plain-text dump, one record per agent: id, layer, role, mentor ids."""
    roles = role_map(formation, graph)
    lines = ["# id\tlayer\trole\tmentors"]
    for a in formation.ids:
        ms = graph.mentors_of(a)
        lines.append(
            f"{a}\t{graph.layer_index[a]}\t{roles[a]}\t"
            + (",".join(str(m) for m in ms) if ms else "-")
        )
    return "\n".join(lines) + "\n"
