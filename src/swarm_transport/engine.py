"""Scenario orchestration: plan the graph, weights and final positions, then
integrate the closed-loop team and score convergence.

The plan is array-form and indexed by formation row: the mentor graph's
roles, layers, (M,) mentee rows and (M, n+1) mentor rows, the (N, n) final
positions and the (M, n+1) endpoint weights. The closed loop follows the
deployed coordination law: every follower's desired position is the current
convex blend of its mentors' *actual* positions, anchors track their
constant final positions, and clamped agents rest on their own final
positions, a fixed point of the RK4 map (``dynamics.rk4_map``, built once
per run).

Mentors sit in strictly earlier layers, so the loop runs over passes of
blocks of up to 50 steps and, inside a pass, one mentor layer at a time: a
layer's desired positions over the whole pass are one blend of mentor
positions already computed for that pass, with the weights
``weights.weights_at`` gives at the pass's frames, as the set-points take
theirs; one subtraction sets the held inputs of every block, one matrix
product per block moves the layer through it, and one sum writes the
layer's positions over the pass. The product takes ``dynamics.block_maps``:
the positions at each step and the full state at the block's end, which
starts the layer's next block. A pass holds as many blocks as keep its
chain rows (N n) times its steps within 2^16: 16 blocks at N = 40 in 2-D,
so a small team makes its few calls per layer per pass, not per block, and
one block from N = 600 on, where the calls are large and memory beyond the
logs stays O(block N n). Once every layer has run, one certificate per
block, from its largest start state and input (``dynamics.certified``),
stands in for the per-step divergence test of each agent's offset from its
reference. A block it cannot clear is replayed from its start state with
``dynamics.step``, the one per-step test, so a divergence is reported at
the same step and agent as stepping the whole run; the trajectory always
comes from the products. Every block takes at least one step and forms r_d
at the m + 1 frames from its start to its end, so the last block ends at
t_end.
Planned set-points are computed separately for reporting, all output times
at once, and never drive the loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dynamics, geometry
from .dynamics import DEFAULT_GAINS, Gains
from .errors import BadConfig, DegenerateInput, Diverged
from .formation import (
    ROLE_BOUNDARY,
    ROLE_COOPERATIVE,
    ROLE_CORE,
    Formation,
    LayeredGraph,
    build_actual,
)
from .setpoints import blend, propagate_setpoints
from .targets import DesiredPositions, TargetSet, compute_desired, leader_final_positions, zone_center
from .weights import WeightSchedule, beta, build_schedule, weights_at


@dataclass(frozen=True)
class Scenario:
    """One self-contained experiment: formation, targets, gains and timing.
    The defaults are those of a scenario file and of generation. A scenario
    is validated where it is built, by ``dataclasses.replace`` too. The
    anchors are ``leader_positions``, a (B, n) array in the hull cycle order
    of ``formation.boundary``, when given, else generated at
    ``leader_scale``. ``t0`` and ``tf`` bound the weight blend."""

    formation: Formation
    targets: TargetSet
    gains: Gains = DEFAULT_GAINS
    t0: float = 0.0
    tf: float = 15.0
    t_end: float = 25.0
    dt: float = 0.01
    output_period: float = 0.1
    margin: float = 0.10
    seed: int = 0
    leader_scale: float = 1.1
    leader_positions: np.ndarray | None = None
    leader_blend: bool = False

    def __post_init__(self) -> None:
        validate_scenario(self)


# most RK4 steps a run may take: 1,678 times the default 2,500 (17 s of loop
# at N = 40); more means a t_end or dt off by orders of magnitude
_MAX_STEPS = 2**22

# largest coordinate magnitude of a scenario's points and generated anchors:
# cubes of a team's extent (``geometry.degenerate``; at most twice this) and
# squares of its spans (the SVG canvas, scoring) then stay finite
MAX_COORDINATE = 1e100


def validate_scenario(scenario: Scenario) -> None:
    """Raise ``BadConfig`` unless the scenario can run."""
    sc = scenario
    for name in ("t0", "tf", "t_end", "dt", "output_period", "margin"):
        if not math.isfinite(getattr(sc, name)):
            raise BadConfig(f"{name} must be finite, got {getattr(sc, name)}")
    if not (sc.t0 < sc.tf <= sc.t_end):
        raise BadConfig(f"times must satisfy t0 < tf <= t_end, got {sc.t0}, {sc.tf}, {sc.t_end}")
    if sc.dt <= 0:
        raise BadConfig("dt must be positive")
    nsteps = (sc.t_end - sc.t0) / sc.dt
    if not nsteps <= _MAX_STEPS:
        raise BadConfig(f"times t0 {sc.t0:g}, t_end {sc.t_end:g}, dt {sc.dt:g}: {nsteps:.3g} steps, over {_MAX_STEPS}")
    # the floats near t0 and t_end must resolve a step to the slack that the
    # divisibility check below allows, or the grid's times collapse
    ulp = math.ulp(max(abs(sc.t0), abs(sc.t_end)))
    if not ulp < 1e-6 * sc.dt:
        raise BadConfig(
            f"times t0 {sc.t0}, t_end {sc.t_end}: floats there are {ulp:.3g} apart, not finer than 1e-6 of dt {sc.dt:g}"
        )
    ratio = sc.output_period / sc.dt
    if not ratio <= _MAX_STEPS:
        raise BadConfig(f"output_period {sc.output_period:g} is {ratio:.3g} steps of dt {sc.dt:g}, over {_MAX_STEPS}")
    if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
        raise BadConfig("dt must divide the output sampling period")
    if abs(nsteps - round(nsteps)) > 1e-6 or round(nsteps) < 1:
        raise BadConfig(f"dt must divide the simulation horizon t_end - t0, got {nsteps:.3g} steps")
    if sc.margin < 0:
        raise BadConfig("margin must be nonnegative")
    if sc.leader_positions is not None:
        shape = (len(sc.formation.boundary), sc.formation.dim)
        if np.shape(sc.leader_positions) != shape or not np.isfinite(sc.leader_positions).all():
            raise BadConfig(f"leader positions must be a finite {shape} array in hull order")
    for name, points in (("samples", sc.targets.samples), ("zone", sc.targets.zone)):  # read as the team's points
        if points is not None and (np.shape(points)[1:] != (sc.formation.dim,) or not np.isfinite(points).all()):
            raise BadConfig(f"targets.{name} must be finite points of the team's dimension {sc.formation.dim}")
    if sc.targets.zone is not None:
        zone = np.asarray(sc.targets.zone, dtype=float)
        try:
            hull = geometry.convex_hull(zone)
        except DegenerateInput as exc:
            raise BadConfig(f"targets.zone has no area or volume: {exc}") from exc
        # a planar hull cycle starts at corner 0; it must visit all, either way round
        if zone.shape[1] == 2 and hull not in (list(range(len(zone))), [0, *range(len(zone) - 1, 0, -1)]):
            raise BadConfig("targets.zone must list the corners of a convex polygon in order")
    zone = sc.targets.zone_polygon  # the samples' hull without a zone
    with np.errstate(over="ignore", invalid="ignore"):  # the inflated zone's squared edges must stay finite
        inflated = inflated_zone(zone, sc.margin)
        edges = inflated - np.concatenate((inflated[-1:], inflated[:-1]))  # not finite where a vertex is not
        if not np.isfinite(np.sum(edges * edges, axis=1)).all():
            raise BadConfig(f"margin {sc.margin:g} inflates the target zone beyond the float range")
        if sc.leader_positions is None and zone.shape[1] == 2:  # the ring that make_plan spaces anchors on
            if not np.abs(geometry.scale_polygon(zone, sc.leader_scale, about=sc.targets.center)).max() <= MAX_COORDINATE:
                raise BadConfig(f"leader_final.scale {sc.leader_scale:g} puts the anchors beyond {MAX_COORDINATE:g}")
        phi = dynamics.rk4_map(sc.gains, sc.dt)
    if not dynamics.check_hurwitz(sc.gains):
        raise BadConfig(f"gains {sc.gains} do not make the closed loop Hurwitz-stable")
    if not (np.isfinite(phi).all() and np.max(np.abs(np.linalg.eigvals(phi))) < 1.0):
        raise BadConfig(f"dt {sc.dt:g} is outside the RK4 stability region of gains {sc.gains}")


@dataclass(frozen=True)
class Plan:
    """Everything the loop needs before any integration happens."""

    scenario: Scenario
    graph: LayeredGraph
    desired: DesiredPositions
    schedule: WeightSchedule


@dataclass(frozen=True)
class Run:
    """One transport run: its plan, the agents' histories on the output
    grid and the convergence verdicts. Ids, roles and layers are the
    plan's."""

    plan: Plan
    times: np.ndarray  # (T,)
    log: np.ndarray  # (T, N, 2n): each row's position, then its reference position
    converged: np.ndarray  # (N,) verdict of each row; False where not ``scored``
    terminal_error: np.ndarray  # (N,) ||r(t_end) - p_i|| of each row

    @property
    def positions(self) -> np.ndarray:  # (T, N, n) view of the log
        return self.log[..., : self.log.shape[2] // 2]

    @property
    def desired(self) -> np.ndarray:  # (T, N, n) view of the log
        return self.log[..., self.log.shape[2] // 2 :]

    @property
    def scored(self) -> np.ndarray:
        """(N,) mask of the rows that get a verdict: the cooperative followers."""
        return self.plan.graph.roles == ROLE_COOPERATIVE

    @property
    def rate(self) -> float:
        """The share of scored rows that converged; 1 when none is scored."""
        evaluated = int(self.scored.sum())
        return int(self.converged.sum()) / evaluated if evaluated else 1.0


def make_plan(scenario: Scenario) -> Plan:
    """Pipeline prefix: graph synthesis, anchor placement, targets, weights."""
    formation = scenario.formation
    graph = build_actual(formation, scenario.targets.center)
    leader_p = scenario.leader_positions
    if leader_p is None:
        leader_p = leader_final_positions(formation, scenario.targets, scenario.leader_scale)
    desired = compute_desired(graph, formation, scenario.targets, leader_p)
    schedule = build_schedule(graph, formation, desired)
    return Plan(scenario=scenario, graph=graph, desired=desired, schedule=schedule)


def run(scenario: Scenario) -> Run:
    """Plan and integrate a full scenario."""
    return _integrate(make_plan(scenario))


def judge_run(plan: Plan, times, log) -> Run:
    """The run of ``plan`` with this (T, N, 2n) log: each cooperative follower
    is judged by its last logged position (``convergence_check``) and every
    row's terminal error is its distance there from its final position."""
    sc = plan.scenario
    final = log[-1, :, : sc.formation.dim]
    coop = plan.graph.roles == ROLE_COOPERATIVE
    converged = np.zeros(len(final), dtype=bool)
    converged[coop] = convergence_check(final[coop], sc.targets.zone_polygon, sc.margin)
    terminal_error = np.linalg.norm(final - plan.desired.p, axis=1)
    return Run(plan, times, log, converged, terminal_error)


_BLOCK = 50  # steps advanced per matrix product
_PASS = 2**16  # most chain rows times steps in one pass: 16 blocks at N = 40 in 2-D, one at N = 600


def _integrate(plan: Plan) -> Run:
    sc = plan.scenario
    graph = plan.graph
    ids = sc.formation.ids
    n_agents, dim = sc.formation.positions.shape

    # Rows in layer order: layer 0 (hull, core, clamped), then the mentees,
    # already in (layer, row) order, so every layer is a slice [s, e).
    order = np.concatenate([np.flatnonzero(graph.layer == 0), graph.mentees])
    rank = np.empty_like(order)
    rank[order] = np.arange(n_agents)
    n0 = n_agents - len(graph.mentees)
    bounds = [0, *(n0 + graph.layer_starts).tolist()]
    mentors = rank[graph.mentors]
    p = plan.desired.p[order]
    a = sc.formation.positions[order]
    roles = graph.roles[order]

    steps = int(round((sc.t_end - sc.t0) / sc.dt))
    log_every = int(round(sc.output_period / sc.dt))
    t = sc.t0 + np.arange(steps + 1) * sc.dt
    b = beta(t, sc.t0, sc.tf)
    logged = np.union1d(np.arange(0, steps + 1, log_every), [steps])
    log = np.empty((len(logged), n_agents, 2 * dim))

    per_pass = max(1, _PASS // (n_agents * dim * _BLOCK))

    # Agent-major pass buffers, one row per (agent, axis) chain and one slot
    # per block of the pass: error state x - p e0 then held inputs r_d - p;
    # positions and r_d at the pass's frames; the block products' error
    # positions after each step and the last step's rates. Layer 0 rests at
    # r_d = p unless the leader blend moves it. The views split
    # a pass's frames into its blocks' input frames and position frames.
    z = np.zeros((n_agents * dim, per_pass, 4 + _BLOCK))
    z4 = z.reshape(n_agents, dim, per_pass, -1)
    z4[:, :, 0, 0] = a - p
    x = np.zeros((n_agents, dim, per_pass * _BLOCK + 1))
    x[:, :, 0] = a
    r_d = np.zeros_like(x)
    r_d[:n0] = p[:n0, :, None]
    fast = np.zeros((n_agents * dim, per_pass, _BLOCK + 3))
    moved = fast.reshape(n_agents, dim, per_pass, -1)[..., :_BLOCK]
    inputs, held = z4[..., 4:], r_d[:, :, :-1].reshape(moved.shape)
    after = x[:, :, 1:].reshape(moved.shape)
    p4 = p[:, :, None, None]

    # Steps after a divergence, and the map powers of gains outside the RK4
    # region, may overflow or turn NaN; the certificate fails on every such
    # value, and the block's replay through ``step`` then stops the run.
    with np.errstate(over="ignore", invalid="ignore"):
        phi = dynamics.rk4_map(sc.gains, sc.dt)
        # maps and factors of a full block and of the last, maybe shorter, one
        by_size = {m: dynamics.block_maps(phi, m) for m in {_BLOCK, (steps - 1) % _BLOCK + 1}}
        i0 = 0
        for k0 in range(0, steps, per_pass * _BLOCK):
            k1 = min(k0 + per_pass * _BLOCK, steps)
            sizes = [min(_BLOCK, k1 - k) for k in range(k0, k1, _BLOCK)]  # steps of each block
            nb, f = len(sizes), k1 - k0 + 1  # r_d is formed at the f frames k0 ... k1
            bk = b[k0 : k1 + 1]
            w = weights_at(plan.schedule.omega, plan.schedule.varpi, bk)
            if sc.leader_blend:
                mask, ramp = _leader_ramp(roles, a, p, bk)
                r_d[mask, :, :f] = ramp
            # one layer at a time: a mentee layer's r_d blends mentor positions
            # already moved through the pass, and one product per block moves
            # the layer through it, from the state the layer's last block left
            for s, e in zip(bounds[:-1], bounds[1:]):
                if s:
                    ms = slice(s - n0, e - n0)
                    blend(w[ms], x[mentors[ms], :, :f], out=r_d[s:e, :, :f])
                np.subtract(held[s:e, :, :nb], p4[s:e], out=inputs[s:e, :, :nb])
                c = slice(s * dim, e * dim)
                for j, m in enumerate(sizes):
                    np.matmul(z[c, j, : 4 + m], by_size[m][0], out=fast[c, j, : m + 3])
                    if j + 1 < nb:
                        z[c, j + 1, :4] = fast[c, j, m - 1 : m + 3]
                np.add(moved[s:e, :, :nb], p4[s:e], out=after[s:e, :, :nb])
            for j, m in enumerate(sizes):
                e_max, u_max = np.abs(z[:, j, :4]).max(), np.abs(z[:, j, 4 : 4 + m]).max()
                if not dynamics.certified(by_size[m][1], e_max, u_max):
                    # replay the block from its start state, one step for the whole team at a time
                    kj = j * _BLOCK
                    state = z4[:, :, j, :4].transpose(0, 2, 1).copy()  # (N, 4, n)
                    state[:, 0] = x[:, :, kj]
                    for i in range(m):
                        try:
                            state = dynamics.step(state, r_d[:, :, kj + i], phi)
                        except Diverged as exc:
                            # the agent farthest from that step's reference before it
                            state[:, 0] -= r_d[:, :, kj + i]
                            worst = ids[int(np.argmax(np.abs(state).max(axis=(1, 2))[rank]))]
                            raise Diverged(f"agent {worst} diverged near t = {t[k0 + kj + i]:.3f} s") from exc
            i1 = int(np.searchsorted(logged, k1, side="right"))
            js = logged[i0:i1] - k0
            log[i0:i1, order, :dim] = x[:, :, js].transpose(2, 0, 1)
            log[i0:i1, order, dim:] = r_d[:, :, js].transpose(2, 0, 1)
            i0 = i1
            m = sizes[-1]
            z[:, 0, :4] = fast[:, nb - 1, m - 1 : m + 3]  # the state after the pass's last step
            x[:, :, 0] = x[:, :, f - 1]

    return judge_run(plan, t[logged], log)


def _leader_ramp(roles, start, final, b):
    """The leader blend's references: the (N,) mask of the hull and core
    rows, which ramp from their ``start`` to their ``final`` positions as
    the weights do, and those rows' (K, n, T) positions at the T ramp
    values ``b``."""
    mask = (roles == ROLE_BOUNDARY) | (roles == ROLE_CORE)
    return mask, (1.0 - b) * start[mask, :, None] + b * final[mask, :, None]


def inflated_zone(zone, margin: float) -> np.ndarray:
    """The zone that scoring uses: its vertices, in their order, scaled by
    (1 + margin) about ``zone_center``."""
    return geometry.scale_polygon(zone, 1.0 + margin, about=zone_center(zone))


def convergence_check(positions, zone, margin: float):
    """Whether positions lie inside ``inflated_zone(zone, margin)``, by
    ``geometry.point_in_polygon``: points on the inflated outline count as
    inside, and a 3-D zone is the convex hull of its vertices. The zone is
    inflated once per call, so a (K, n) array of positions gives a (K,) bool
    array; one (n,) position gives a bool.
    """
    return geometry.point_in_polygon(positions, inflated_zone(zone, margin))


def setpoint_series(plan: Plan, times) -> np.ndarray:
    """Planned set-point positions on a time grid, shaped (T, N, n): one
    propagation per distinct ramp value (by bit pattern), expanded back.
    Under ``leader_blend`` the hull and core anchors ramp from their initial
    to their final positions, as the closed loop's references do."""
    sc = plan.scenario
    b = beta(np.asarray(times, dtype=float), sc.t0, sc.tf)
    _, first, back = np.unique(b.view(np.int64), return_index=True, return_inverse=True)
    b = b[first]
    p = anchors = plan.desired.p
    if sc.leader_blend:
        hull, ramp = _leader_ramp(plan.graph.roles, sc.formation.positions, p, b)
        anchors = np.repeat(p[:, :, None], len(b), axis=2)
        anchors[hull] = ramp
    return propagate_setpoints(plan.graph, plan.schedule, anchors, b)[back]
