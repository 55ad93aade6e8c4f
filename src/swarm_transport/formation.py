"""Formation model and layered feed-forward mentor-graph synthesis.

The builder grows a directed acyclic mentor graph out of an initial
formation. Hull agents plus one interior "core" agent anchor a fan
triangulation of the hull; the remaining agents are claimed layer by layer:
each open simplex adopts the best-centered unclaimed agent inside it as a
mentee, takes its n+1 vertices as the mentee's mentors, and splits into
n+1 child simplices around the mentee. Clamped (uncooperative) agents are
spliced into the triangulation up front as extra layer-0 vertices, so they
can serve as information sources while never receiving mentors.

Everything here is indexed by formation row. ``Formation.ids`` is sorted,
so row order is id order and every tie-break matches the id order. Agent ids
appear only in error messages and in ``graph_records``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry
from .errors import (
    BadConfig,
    CoreOnBoundary,
    CycleDetected,
    NoCandidate,
    UnassignedAgents,
)

ROLE_BOUNDARY = "boundary"
ROLE_CORE = "core"
ROLE_COOPERATIVE = "cooperative"
ROLE_UNCOOPERATIVE = "uncooperative"


@dataclass(frozen=True)
class Formation:
    """Initial agent layout: positions, hull cycle, clamped rows, declared core."""

    dim: int
    ids: tuple[int, ...]  # sorted ascending; row k belongs to ids[k]
    positions: np.ndarray  # (N, dim)
    boundary: np.ndarray  # (B,) hull cycle rows, counterclockwise for dim 2
    clamped: np.ndarray  # (C,) rows of the uncooperative agents, ascending
    core: int | None = None  # row of the declared core, auto-selected when None

    @classmethod
    def build(
        cls,
        ids,
        positions,
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
        row = {a: k for k, a in enumerate(ids_sorted)}

        boundary = np.array(geometry.convex_hull(pos[order]), dtype=np.intp)
        hull_ids = {ids_sorted[k] for k in boundary}
        if declared_boundary is not None and set(declared_boundary) != hull_ids:
            raise BadConfig(
                "declared boundary does not match the convex hull of the positions: "
                f"declared {sorted(set(declared_boundary))}, hull {sorted(hull_ids)}"
            )
        uncoop = {int(i) for i in uncooperative}
        if not uncoop <= set(ids_sorted):
            raise BadConfig("uncooperative ids not present in the formation")
        if uncoop & hull_ids:
            raise BadConfig("boundary agents cannot be uncooperative")
        if core_id is not None:
            core_id = int(core_id)
            if core_id not in row:
                raise BadConfig(f"declared core {core_id} is not an agent")
            if core_id in hull_ids:
                raise BadConfig(f"declared core {core_id} lies on the boundary")
            if core_id in uncoop:
                raise BadConfig(f"declared core {core_id} is uncooperative")

        form = cls(
            dim=dim,
            ids=ids_sorted,
            positions=pos[order],
            boundary=boundary,
            clamped=np.array(sorted(row[u] for u in uncoop), dtype=np.intp),
            core=None if core_id is None else row[core_id],
        )
        outside = ~_strictly_inside(form, form.positions)
        outside[boundary] = False
        if outside.any():
            raise BadConfig(
                "non-boundary agents must lie strictly inside the hull: "
                f"{[ids_sorted[k] for k in np.flatnonzero(outside)]}"
            )
        return form

    @property
    def n_agents(self) -> int:
        return len(self.ids)


@dataclass(frozen=True, eq=False)
class LayeredGraph:
    """Layered mentor graph over formation rows.

    Mentees are ordered by (layer, row), so each mentee layer is a contiguous
    slice and every mentor row precedes the rows it feeds. Constructing a
    graph that breaks this precedence raises ``CycleDetected``.
    """

    core: int  # row of the core agent
    layer: np.ndarray  # (N,) layer of each row; 0 for hull, core and clamped rows
    roles: np.ndarray  # (N,) role of each row, from ``agent_roles``
    mentees: np.ndarray  # (M,) mentee rows in (layer, row) order
    mentors: np.ndarray  # (M, n+1) mentor rows of each mentee, in simplex vertex order
    n_initial_simplices: int  # simplices in the core fan before any refinement

    def __post_init__(self):
        late = self.layer[self.mentors] >= self.layer[self.mentees][:, None]
        if late.any():
            k, j = np.argwhere(late)[0]
            raise CycleDetected(
                f"mentor row {self.mentors[k, j]} of row {self.mentees[k]} does not precede it"
            )

    @property
    def n_layers(self) -> int:
        """Number of mentee layers (0 when nobody needed a mentor)."""
        return int(self.layer.max())

    @property
    def layer_starts(self) -> np.ndarray:
        """(n_layers + 1,) offsets into ``mentees``: mentee layer k is the
        slice ``[layer_starts[k - 1], layer_starts[k])``."""
        return np.searchsorted(self.layer[self.mentees], np.arange(1, self.n_layers + 2))


def agent_roles(formation: Formation, core: int | None) -> np.ndarray:
    """Role of every formation row, shaped (N,); ``core`` is a row or None."""
    roles = np.full(formation.n_agents, ROLE_COOPERATIVE, dtype=object)
    roles[formation.clamped] = ROLE_UNCOOPERATIVE
    if core is not None:
        roles[core] = ROLE_CORE
    roles[formation.boundary] = ROLE_BOUNDARY
    return roles


def select_core(formation: Formation, center) -> int:
    """Row of the interior agent nearest the point ``center`` (in a plan, the
    target set's center); ties go to the smaller row.

    Clamped agents are not eligible: the core must supply an adaptive
    reference, which a clamped agent cannot.
    """
    eligible = np.ones(formation.n_agents, dtype=bool)
    eligible[formation.boundary] = False
    eligible[formation.clamped] = False
    rows = np.flatnonzero(eligible)
    if not len(rows):
        raise NoCandidate("every non-boundary agent is uncooperative")
    v = (formation.positions[rows] - np.asarray(center, dtype=float))[:, None, :]
    # each row's dot product, as ``np.linalg.norm`` of one vector takes it
    d = np.sqrt(np.matmul(v, v.swapaxes(1, 2))[:, 0, 0])
    return int(rows[np.argmin(d)])  # the first of equal minima


def fan_triangulate(formation: Formation, core: int) -> np.ndarray:
    """Core-anchored triangulation of the hull, as (C, n+1) vertex rows.

    dim 2: one triangle per hull edge, (b_k, b_{k+1}, core). dim 3: one
    tetrahedron per hull facet with the core as apex.
    """
    if not _strictly_inside(formation, formation.positions[[core]])[0]:
        raise CoreOnBoundary(
            f"core agent {formation.ids[core]} is not strictly inside the hull"
        )
    b = formation.boundary.tolist()
    if formation.dim == 2:
        cells = [(b[k], b[(k + 1) % len(b)], core) for k in range(len(b))]
    else:
        facets = geometry.hull_facets(formation.positions[formation.boundary])
        cells = [tuple(b[k] for k in facet) + (core,) for facet in facets]
    return np.array(cells, dtype=np.intp).reshape(-1, formation.dim + 1)


def _strictly_inside(formation: Formation, pts: np.ndarray) -> np.ndarray:
    """Boolean mask over the (K, dim) points: strictly inside the hull, more than
    ``DEGENERACY_COEFF`` times its ``geometry.extent`` from every facet."""
    hull_pts = formation.positions[formation.boundary]
    return geometry.point_in_polygon(pts, hull_pts, tol=-geometry.DEGENERACY_COEFF * float(geometry.extent(hull_pts)))


def build_actual(formation: Formation, center) -> LayeredGraph:
    """Mentor graph with clamped agents folded into layer 0 as extra sources.

    With no clamped agents this is the nominal, fully cooperative graph.
    The core is the formation's declared one, else ``select_core(formation,
    center)``; a plan passes its target set's center.
    The open cells are one (C, n+1) array of vertex rows; each layer adopts
    and splits all of them at once. Collapsed cells are dropped where they
    are made, fan cells as ``_split``'s children, so every open cell is
    full-dimensional; ``n_initial_simplices`` counts the fan before that.
    Each clamped agent splits the first open cell that contains it. One
    ``geometry.candidates`` search locates the free agents near the open
    cells of layer 1; after that, each child takes the agents near its
    parent that are still free, since a child lies inside its parent.
    """
    core = formation.core if formation.core is not None else select_core(formation, center)
    cells = fan_triangulate(formation, core)
    n_fan, pos = len(cells), formation.positions
    cells = cells[~geometry.degenerate(pos[cells])]
    for u in formation.clamped.tolist():
        verts, point = pos[cells], pos[[u]]
        cell, _, score = geometry.near_pairs(verts, *geometry.candidates(point, verts), point)
        hit = cell[score >= -geometry.CONTAINMENT_TOL]
        if not len(hit):
            raise UnassignedAgents(f"clamped agent {formation.ids[u]} lies outside every open simplex")
        h = hit[0]
        cells = np.concatenate([cells[:h], _split(cells[h : h + 1], np.array([u]), pos)[0], cells[h + 1 :]])

    layer = np.zeros(formation.n_agents, dtype=np.intp)
    free = np.ones(formation.n_agents, dtype=bool)
    free[formation.boundary] = free[formation.clamped] = free[core] = False
    mentees, mentors = [np.empty(0, dtype=np.intp)], [np.empty((0, formation.dim + 1), dtype=np.intp)]
    rows = np.flatnonzero(free)
    cell, at = geometry.candidates(pos[rows], pos[cells])
    row = rows[at]
    while len(cells) and free.any():
        cell, row, score = geometry.near_pairs(pos[cells], cell, row, pos)
        pick = _pick_mentee(len(cells), cell, row, score)
        adopt = np.flatnonzero(pick >= 0)
        if not len(adopt):
            break
        new, by_row = pick[adopt], np.argsort(pick[adopt])
        free[new], layer[new] = False, len(mentees)
        mentees.append(new[by_row])
        mentors.append(cells[adopt[by_row]])
        cells, parent = _split(cells[adopt], new, pos)
        live = free[row]
        cell, row = geometry.inherit(cell[live], row[live], adopt[parent])

    if free.any():
        raise UnassignedAgents(
            f"open set exhausted with agents {[formation.ids[k] for k in np.flatnonzero(free)]} unassigned"
        )
    return LayeredGraph(
        core=core,
        layer=layer,
        roles=agent_roles(formation, core),
        mentees=np.concatenate(mentees),
        mentors=np.concatenate(mentors),
        n_initial_simplices=n_fan,
    )


def _pick_mentee(n_cells: int, cell: np.ndarray, row: np.ndarray, score: np.ndarray) -> np.ndarray:
    """Row adopted by each of the ``n_cells`` open cells, -1 where none,
    shaped (C,), from the (cell, free row, minimum barycentric coordinate)
    triples of the free rows near the cells.

    The cells take turns in order, as one at a time would: each adopts the
    best-centered of the free rows inside it that no earlier cell took,
    smaller row on ties.
    """
    pick = np.full(n_cells, -1, dtype=np.intp)
    hit = score >= -geometry.CONTAINMENT_TOL
    cell, row, score = cell[hit], row[hit], score[hit]
    # each cell's preference: larger minimum coordinate first, then smaller row
    order = np.lexsort((row, -score, cell))
    cell, row = cell[order], row[order]
    best = np.diff(cell, prepend=-1) != 0
    pick[cell[best]] = row[best]
    # a row inside several cells (on a shared face) goes to the earliest one
    # that still wants it: replay those cells in order
    shared = np.bincount(row) > 1
    taken: set[int] = set()
    for c in np.unique(cell[shared[row]]).tolist():
        lo, hi = np.searchsorted(cell, [c, c + 1])
        pick[c] = next((r for r in row[lo:hi].tolist() if r not in taken), -1)
        taken.add(int(pick[c]))
    return pick


def _split(cells: np.ndarray, rows: np.ndarray, pos: np.ndarray):
    """Children of each cell around its adopted row, in cell order, with the
    index of each child's parent in ``cells``: child k has vertex k replaced
    by the row. Children that collapse (the row sat exactly on a face) are
    dropped, as flat fan cells are; the rest still cover the parent."""
    m = cells.shape[1]
    kids = np.repeat(cells, m, axis=0)
    kids.reshape(-1, m, m)[:, np.arange(m), np.arange(m)] = rows[:, None]
    full = ~geometry.degenerate(pos[kids])
    return kids[full], np.flatnonzero(full) // m


def graph_records(formation: Formation, graph: LayeredGraph) -> str:
    """Plain-text dump, one record per agent: id, layer, role, mentor ids."""
    ids = formation.ids
    mentors = ["-"] * formation.n_agents
    for mentee, ms in zip(graph.mentees.tolist(), graph.mentors.tolist()):
        mentors[mentee] = ",".join(str(ids[m]) for m in ms)
    lines = ["# id\tlayer\trole\tmentors"]
    for a, layer, role, ms in zip(ids, graph.layer.tolist(), graph.roles, mentors):
        lines.append(f"{a}\t{layer}\t{role}\t{ms}")
    return "\n".join(lines) + "\n"
