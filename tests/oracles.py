"""Reference implementations that the fast paths are tested against."""

from dataclasses import dataclass

import numpy as np
import scipy.sparse

from swarm_transport import dynamics, geometry, svgplot
from swarm_transport.engine import Run, inflated_zone, judge_run
from swarm_transport.errors import (
    DegenerateInput,
    DegenerateMentorSimplex,
    DegenerateSimplex,
    Diverged,
    SwarmTransportError,
    UnassignedAgents,
)
from swarm_transport.formation import (
    ROLE_BOUNDARY,
    ROLE_CORE,
    LayeredGraph,
    agent_roles,
    fan_triangulate,
    select_core,
)
from swarm_transport.targets import DesiredPositions
from swarm_transport.weights import beta


def ramp(plan, t):
    """The blend ramp ``weights.beta`` of the plan's scenario at time(s) t."""
    return beta(t, plan.scenario.t0, plan.scenario.tf)


def weights_at(schedule, b: float) -> np.ndarray:
    """Convex blend of the endpoint weights at ramp value b, shaped (M, n+1)."""
    return (1.0 - b) * schedule.omega + b * schedule.varpi


def initial_state(position) -> np.ndarray:
    """State at rest at ``position``: all derivatives zero."""
    pos = np.asarray(position, dtype=float)
    state = np.zeros(pos.shape[:-1] + (4,) + pos.shape[-1:])
    state[..., 0, :] = pos
    return state


def contains(vertices, point, tol: float = geometry.CONTAINMENT_TOL) -> bool:
    """True iff ``point`` lies in the closed simplex (faces count as inside)."""
    return bool(np.min(geometry.inverse_coordinates(geometry.simplex_inverse(vertices), point)) >= -tol)


def inside(points, vertices):
    """Every (simplex, point) pair with the point in the closed simplex, for
    (P, n) points and a (C, n+1, n) stack of simplices: the simplex and point
    indices, sorted by simplex then point, and the points' minimum
    barycentric coordinates. The ``geometry.candidates`` are scored through
    ``simplex_inverse`` of the simplices that have one (``DegenerateSimplex``
    if one of those is degenerate)."""
    pts, verts = np.asarray(points, dtype=float), np.asarray(vertices, dtype=float)
    cell, idx = geometry.candidates(pts, verts)
    used = np.bincount(cell, minlength=len(verts)) > 0
    inverse = geometry.simplex_inverse(verts[used])[np.cumsum(used)[cell] - 1]
    score = geometry.inverse_coordinates(inverse, pts[idx]).min(axis=1)
    keep = np.flatnonzero(score >= -geometry.CONTAINMENT_TOL)
    return cell[keep], idx[keep], score[keep]


def scalar_hull_2d(pts: np.ndarray) -> list[int]:
    """The monotone chain on numpy float64 scalars, as ``geometry._hull_2d``
    ran before it moved to Python floats; its tolerance is relative to the
    largest coordinate difference from the first point."""
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    scale = float(np.max(np.abs(pts - pts[0])))
    eps = geometry.DEGENERACY_COEFF * scale * scale

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


def staged_rk4(state, r_d, gains, dt):
    """Classic four-stage RK4 on the state with ``r_d`` held."""
    state = np.asarray(state, dtype=float)
    r_d = np.asarray(r_d, dtype=float)

    def deriv(x):
        v = dynamics.virtual_control(x, r_d, gains)
        return np.concatenate([x[..., 1:, :], v[..., None, :]], axis=-2)

    s1 = deriv(state)
    s2 = deriv(state + 0.5 * dt * s1)
    s3 = deriv(state + 0.5 * dt * s2)
    s4 = deriv(state + dt * s3)
    return state + (dt / 6.0) * (s1 + 2.0 * s2 + 2.0 * s3 + s4)


def stepwise_integrate(plan, step=dynamics.step) -> Run:
    """The closed loop one step for the whole team at a time: every
    follower's r_d is the blend of its mentors' positions at that step, and
    ``step(states, r_d, phi)`` advances all agents. Same run and errors as
    ``engine._integrate``."""
    sc = plan.scenario
    graph = plan.graph
    ids = sc.formation.ids
    anchor = (graph.roles == ROLE_BOUNDARY) | (graph.roles == ROLE_CORE)
    p_arr = plan.desired.p
    a_arr = sc.formation.positions

    steps = int(round((sc.t_end - sc.t0) / sc.dt))
    log_every = int(round(sc.output_period / sc.dt))
    states = initial_state(a_arr)  # (N, 4, n)
    phi = dynamics.rk4_map(sc.gains, sc.dt)

    times, pos_log, des_log = [], [], []
    for k in range(steps + 1):
        t = sc.t0 + k * sc.dt
        r = states[:, 0, :]
        r_d = p_arr.copy()
        b = beta(t, sc.t0, sc.tf)
        if sc.leader_blend:
            r_d[anchor] = (1.0 - b) * a_arr[anchor] + b * p_arr[anchor]
        r_d[graph.mentees] = np.einsum("mk,mkd->md", weights_at(plan.schedule, b), r[graph.mentors])
        if k % log_every == 0 or k == steps:
            times.append(t)
            pos_log.append(r.copy())
            des_log.append(r_d.copy())
        if k == steps:
            break
        try:
            states = step(states, r_d, phi)
        except Diverged as exc:
            # the agent farthest from the failing step's reference before it
            offset = states - np.eye(4)[:, :1] * r_d[:, None, :]
            worst = ids[int(np.argmax(np.abs(offset).max(axis=(1, 2))))]
            raise Diverged(f"agent {worst} diverged near t = {t:.3f} s") from exc

    return judge_run(plan, np.array(times), np.concatenate((pos_log, des_log), axis=2))


# The planner one cell, one mentee and one weight vector at a time: the
# reference for formation.build_actual, targets.compute_desired and
# weights.build_schedule, which must match it bit for bit.


@dataclass(frozen=True)
class Simplex:
    """An n-simplex tagged with the formation rows of the agents at its vertices."""

    vertex_rows: tuple
    vertex_points: np.ndarray  # (n+1, n); point k belongs to vertex_rows[k]

    def contains(self, point, tol=geometry.CONTAINMENT_TOL) -> bool:
        return contains(self.vertex_points, point, tol)

    def is_degenerate(self) -> bool:
        return bool(geometry.degenerate(self.vertex_points))

    def replace_vertex(self, k, row, point) -> "Simplex":
        rows = list(self.vertex_rows)
        rows[k] = row
        pts = self.vertex_points.copy()
        pts[k] = np.asarray(point, dtype=float)
        return Simplex(tuple(rows), pts)


def cellwise_build_actual(formation, center) -> LayeredGraph:
    """Mentor graph from a list of open ``Simplex`` cells, visited in order;
    each adopts its best-centered free row, which leaves the free set at once.
    Collapsed cells, fan cells too, never open."""
    core = formation.core if formation.core is not None else select_core(formation, center)
    fan = [Simplex(tuple(rows), formation.positions[rows]) for rows in fan_triangulate(formation, core).tolist()]

    open_list = [simplex for simplex in fan if not simplex.is_degenerate()]  # as _expand drops children
    for u in formation.clamped.tolist():
        open_list = _insert_vertex(open_list, u, formation)

    layer = np.zeros(formation.n_agents, dtype=np.intp)
    unassigned = np.ones(formation.n_agents, dtype=bool)
    unassigned[formation.boundary] = False
    unassigned[formation.clamped] = False
    unassigned[core] = False
    unassigned = np.flatnonzero(unassigned)
    adopted = []  # (mentee, mentors), (layer, row) order

    depth = 0
    while open_list:
        next_open = []
        new_layer = []
        for simplex in open_list:
            mentee = _pick_one(simplex, unassigned, formation)
            if mentee is None:
                continue  # nobody left inside: the cell is closed and dropped
            unassigned = unassigned[unassigned != mentee]
            new_layer.append((mentee, simplex.vertex_rows))
            next_open.extend(_expand(simplex, mentee, formation.positions[mentee]))
        if not new_layer:
            break
        depth += 1
        for mentee, _ in new_layer:
            layer[mentee] = depth
        adopted.extend(sorted(new_layer))
        open_list = next_open

    if len(unassigned):
        raise UnassignedAgents(
            f"open set exhausted with agents {[formation.ids[k] for k in unassigned]} unassigned"
        )
    return LayeredGraph(
        core=core,
        layer=layer,
        roles=agent_roles(formation, core),
        mentees=np.array([m for m, _ in adopted], dtype=np.intp),
        mentors=np.array([v for _, v in adopted], dtype=np.intp).reshape(len(adopted), formation.dim + 1),
        n_initial_simplices=len(fan),
    )


def _pick_one(simplex, unassigned, formation):
    """Best-centered of the ascending ``unassigned`` rows inside the simplex,
    smaller row on ties; None when no row lies inside."""
    if not len(unassigned):
        return None
    inverse = geometry.simplex_inverse(simplex.vertex_points)
    weights = geometry.inverse_coordinates(inverse, formation.positions[unassigned])
    min_w = weights.min(axis=1)
    eligible = min_w >= -geometry.CONTAINMENT_TOL
    if not np.any(eligible):
        return None
    min_w = np.where(eligible, min_w, -np.inf)
    return int(unassigned[np.argmax(min_w)])  # argmax takes the first (smallest row) on ties


def _expand(simplex, row, point):
    """Split a simplex around an interior point into its non-degenerate children."""
    out = []
    for k in range(len(simplex.vertex_rows)):
        child = simplex.replace_vertex(k, row, point)
        if not child.is_degenerate():
            out.append(child)
    return out


def _insert_vertex(open_list, row, formation):
    """Splice a clamped agent into the triangulation at its containing cell."""
    point = formation.positions[row]
    for k, simplex in enumerate(open_list):
        if simplex.contains(point):
            children = _expand(simplex, row, point)
            return open_list[:k] + children + open_list[k + 1 :]
    raise UnassignedAgents(f"clamped agent {formation.ids[row]} lies outside every open simplex")


def cellwise_compute_desired(graph, formation, targets, leader_p) -> DesiredPositions:
    """Final positions one mentee at a time, each testing every sample."""
    samples = np.asarray(targets.samples, dtype=float)
    p = formation.positions.copy()
    p[formation.boundary] = np.asarray(leader_p, dtype=float)
    captured = {}
    fallback = []
    for a, mentors in zip(graph.mentees.tolist(), graph.mentors):
        verts = p[mentors]
        try:
            weights = geometry.inverse_coordinates(geometry.simplex_inverse(verts), samples)
        except DegenerateSimplex as exc:
            raise DegenerateMentorSimplex(
                f"agent {formation.ids[a]}: mentors {tuple(formation.ids[m] for m in mentors)} "
                "have affinely dependent final positions"
            ) from exc
        inside = np.flatnonzero(weights.min(axis=1) >= -geometry.CONTAINMENT_TOL)
        captured[a] = tuple(int(i) for i in inside)
        if len(inside):
            p[a] = samples[inside].mean(axis=0)
        else:
            p[a] = verts.mean(axis=0)
            fallback.append(a)
    return DesiredPositions(p=p, captured=captured, fallback_ids=tuple(fallback))


def cellwise_endpoint_weights(graph, ids, points) -> np.ndarray:
    """Barycentric weights of each mentee's point in its mentors' points, one
    mentee at a time, cleaned of solver-noise negatives."""
    out = np.empty(graph.mentors.shape)
    for k, (row, mentors) in enumerate(zip(graph.mentees, graph.mentors)):
        w = geometry.barycentric(points[row], points[mentors])
        if float(w.min()) < -geometry.CONTAINMENT_TOL:
            raise DegenerateMentorSimplex(
                f"agent {ids[row]}: barycentric weight {w.min():.3e} below tolerance; "
                f"the point lies outside the simplex of its mentors {tuple(ids[m] for m in mentors)}"
            )
        w = np.where(w < 0.0, 0.0, w)
        out[k] = w / w.sum()
    return out


# Set-points as one sparse linear relation, and its dense partitioned solve:
# independent references for setpoints.propagate_setpoints.


class SingularFollowerBlock(SwarmTransportError):
    """Dense set-point solve hit a singular follower block."""


class GridMismatch(SwarmTransportError):
    """Time grids of two series do not line up."""


def loop_blend(w, x) -> np.ndarray:
    """The closed loop's mentor blend before time became the innermost
    axis: ``w`` (k, j, t) or (k, j, 1) weights, ``x`` (k, j, d, t) mentor
    positions, summed over the mentors j as one strided reduction."""
    return (w[:, :, None] * x).sum(axis=1)


def time_major_setpoints(graph, schedule, anchors, b) -> np.ndarray:
    """``setpoints.propagate_setpoints`` on a (T, N, n) array, time the
    outermost axis of every blend."""
    anchors = np.asarray(anchors, dtype=float)
    b = np.asarray(b, dtype=float)[:, None, None]
    s = np.repeat(anchors[None], len(b), axis=0)
    starts = np.searchsorted(graph.layer[graph.mentees], np.arange(1, graph.n_layers + 2))
    for sl in map(slice, starts[:-1], starts[1:]):
        w = (1.0 - b) * schedule.omega[sl] + b * schedule.varpi[sl]
        s[:, graph.mentees[sl]] = np.einsum("tmk,tmkd->tmd", w, s[:, graph.mentors[sl]])
    return s


def build_comm_matrix(graph, schedule, b) -> scipy.sparse.csr_matrix:
    """The (N, N) communication matrix at ramp value b, in formation row order:
    -1 on the diagonal, the mentor weights on follower rows."""
    n_agents = len(graph.layer)
    diag = np.arange(n_agents)
    rows = np.concatenate([diag, np.repeat(graph.mentees, graph.mentors.shape[1])])
    cols = np.concatenate([diag, graph.mentors.ravel()])
    vals = np.concatenate([-np.ones(n_agents), weights_at(schedule, b).ravel()])
    return scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(n_agents, n_agents))


def solve_setpoints_dense(graph, schedule, anchors, b) -> np.ndarray:
    """Partitioned dense solve at ramp value b: anchors clamped, follower
    block inverted. Returns (N, n) in formation row order."""
    anchors = np.asarray(anchors, dtype=float)
    dense = build_comm_matrix(graph, schedule, b).toarray()
    fixed = np.flatnonzero(graph.layer == 0)
    follow = graph.mentees
    s = anchors.copy()
    try:
        s[follow] = np.linalg.solve(
            dense[np.ix_(follow, follow)], -dense[np.ix_(follow, fixed)] @ anchors[fixed]
        )
    except np.linalg.LinAlgError as exc:
        raise SingularFollowerBlock(str(exc)) from exc
    return s


def setpoint_residual(graph, schedule, anchors, s, b) -> float:
    """Max-norm residual of the stacked linear relation for set-points s at ramp value b."""
    anchors = np.asarray(anchors, dtype=float)
    offset = np.zeros_like(anchors)
    fixed = graph.layer == 0
    offset[fixed] = anchors[fixed]
    comm = build_comm_matrix(graph, schedule, b)
    return float(np.max(np.abs(comm @ np.asarray(s, dtype=float) + offset)))


@dataclass(frozen=True)
class TrackingReport:
    ids: tuple
    times: np.ndarray  # (T,)
    errors: np.ndarray  # (T, N): ||r_i(t) - s_i(t)||
    terminal: np.ndarray  # (N,) ||r_i(t_end) - p_i||


def tracking_error_report(run, setpoint_times, setpoints) -> TrackingReport:
    """Distance between logged positions and planned set-points over time."""
    st = np.asarray(setpoint_times, dtype=float)
    sp = np.asarray(setpoints, dtype=float)
    if st.shape != run.times.shape or not np.allclose(st, run.times, atol=1e-12):
        raise GridMismatch("set-point series is not on the run's time grid")
    if sp.shape != run.positions.shape:
        raise GridMismatch(
            f"set-point series shape {sp.shape} does not match the run's {run.positions.shape}"
        )
    errors = np.linalg.norm(run.positions - sp, axis=2)
    return TrackingReport(
        ids=run.plan.scenario.formation.ids,
        times=run.times.copy(),
        errors=errors,
        terminal=run.terminal_error.copy(),
    )


class ElementCanvas(svgplot._Canvas):
    """The per-element canvas that the array methods replaced: one method
    call and one f-string per element."""

    def xy(self, p) -> tuple[float, float]:
        x = (float(p[0]) - self.lo[0]) * self.scale
        y = self.height - (float(p[1]) - self.lo[1]) * self.scale
        return x, y

    def line(self, a, b, color=svgplot.EDGE_COLOR, width=0.8, opacity=0.6):
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

    def polygon(self, pts, color=svgplot.ZONE_COLOR, width=1.2, dashed=False):
        coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in (self.xy(p) for p in pts))
        dash = ' stroke-dasharray="6,4"' if dashed else ""
        self.elements.append(
            f'<polygon points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="{width}"{dash}/>'
        )


def _sorted_edges(graph) -> list[tuple[int, int]]:
    mentees = np.repeat(graph.mentees, graph.mentors.shape[1])
    return sorted(zip(graph.mentors.ravel().tolist(), mentees.tolist()))


def elementwise_formation_svg(formation, graph) -> str:
    pos = formation.positions
    canvas = ElementCanvas(pos)
    canvas.polygon(pos[formation.boundary], color="#333333", width=1.0)
    for mentor, mentee in _sorted_edges(graph):
        canvas.line(pos[mentor], pos[mentee])
    for a, p, role in zip(formation.ids, pos, graph.roles):
        canvas.circle(p, radius=4.0, color=svgplot.ROLE_COLORS[role], title=str(a))
    canvas.text(f"agents={formation.n_agents} layers={graph.n_layers}")
    return canvas.render()


def elementwise_snapshot_svg(run, k) -> str:
    plan, sc = run.plan, run.plan.scenario
    pts = run.positions[k]
    zone = sc.targets.zone_polygon
    inflated = inflated_zone(zone, sc.margin)
    canvas = ElementCanvas(np.vstack([pts, zone, inflated]))
    for s in sc.targets.samples:
        canvas.circle(s, radius=1.5, color=svgplot.SAMPLE_COLOR)
    canvas.polygon(zone)
    canvas.polygon(inflated, dashed=True)
    for mentor, mentee in _sorted_edges(plan.graph):
        canvas.line(pts[mentor], pts[mentee], opacity=0.35)
    for a, p, role in zip(sc.formation.ids, pts, plan.graph.roles):
        canvas.circle(p, radius=3.5, color=svgplot.ROLE_COLORS[role], title=str(a))
    canvas.text(f"t = {float(run.times[k]):g} s")
    return canvas.render()
