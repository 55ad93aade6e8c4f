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

Mentors sit in strictly earlier layers, so the loop runs over blocks of
steps and, inside a block, one mentor layer at a time: a layer's desired
positions over the whole block are blends of mentor positions already
computed for that block, and ``dynamics.advance`` then moves the layer
through the block in one matrix product. The Python loop runs once per
layer per block, and memory beyond the logs is O(block N n). Planned
set-points are computed separately for reporting, all output times at
once, and never drive the loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dynamics, geometry
from .dynamics import Gains
from .errors import BadConfig, Diverged, GridMismatch
from .formation import (
    ROLE_BOUNDARY,
    ROLE_COOPERATIVE,
    ROLE_CORE,
    Formation,
    LayeredGraph,
    build_actual,
)
from .setpoints import propagate_setpoints
from .targets import DesiredPositions, TargetSet, compute_desired, leader_final_positions
from .weights import WeightSchedule, beta, build_schedule


@dataclass(frozen=True)
class Scenario:
    """One self-contained experiment: formation, targets, gains and timing."""

    formation: Formation
    targets: TargetSet
    gains: Gains
    t0: float
    tf: float
    t_end: float
    dt: float
    margin: float = 0.10
    seed: int = 0
    output_period: float = 0.1
    leader_mode: str = "generated"  # or "explicit"
    leader_scale: float = 1.1
    leader_positions: dict[int, np.ndarray] | None = None
    leader_blend: bool = False


def validate_scenario(scenario: Scenario) -> None:
    sc = scenario
    for name in ("t0", "tf", "t_end", "dt", "output_period", "margin"):
        if not math.isfinite(getattr(sc, name)):
            raise BadConfig(f"{name} must be finite, got {getattr(sc, name)}")
    if not (sc.t0 < sc.tf <= sc.t_end):
        raise BadConfig(f"times must satisfy t0 < tf <= t_end, got {sc.t0}, {sc.tf}, {sc.t_end}")
    if sc.dt <= 0:
        raise BadConfig("dt must be positive")
    ratio = sc.output_period / sc.dt
    if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
        raise BadConfig("dt must divide the output sampling period")
    nsteps = (sc.t_end - sc.t0) / sc.dt
    if abs(nsteps - round(nsteps)) > 1e-6:
        raise BadConfig("dt must divide the simulation horizon t_end - t0")
    if sc.margin < 0:
        raise BadConfig("margin must be nonnegative")
    if not dynamics.check_hurwitz(sc.gains):
        raise BadConfig(f"gains {sc.gains} do not make the closed loop Hurwitz-stable")
    if np.max(np.abs(np.linalg.eigvals(dynamics.rk4_map(sc.gains, sc.dt)))) >= 1.0:
        raise BadConfig(f"dt {sc.dt:g} is outside the RK4 stability region of gains {sc.gains}")
    if sc.leader_mode not in ("generated", "explicit"):
        raise BadConfig(f"unknown leader mode {sc.leader_mode!r}")
    if sc.leader_mode == "explicit" and sc.leader_positions is None:
        raise BadConfig("explicit leader mode requires leader positions")


@dataclass(frozen=True)
class Plan:
    """Everything the loop needs before any integration happens."""

    scenario: Scenario
    graph: LayeredGraph
    desired: DesiredPositions
    schedule: WeightSchedule


@dataclass(frozen=True)
class SimTrace:
    """Logged agent histories plus the convergence verdicts."""

    ids: tuple[int, ...]
    roles: np.ndarray  # (N,) role of each row
    layer: np.ndarray  # (N,) mentor layer of each row
    times: np.ndarray  # (T,)
    positions: np.ndarray  # (T, N, n)
    desired: np.ndarray  # (T, N, n) logged reference positions
    converged: np.ndarray  # (N,) verdict of each row; False where not ``scored``
    rate: float
    terminal_error: np.ndarray  # (N,) ||r(t_end) - p_i|| of each row

    @property
    def scored(self) -> np.ndarray:
        """(N,) mask of the rows that get a verdict: the cooperative followers."""
        return self.roles == ROLE_COOPERATIVE


@dataclass(frozen=True)
class RunResult:
    plan: Plan
    trace: SimTrace


def make_plan(scenario: Scenario) -> Plan:
    """Pipeline prefix: graph synthesis, anchor placement, targets, weights."""
    validate_scenario(scenario)
    formation = scenario.formation
    graph = build_actual(formation)
    explicit = scenario.leader_positions if scenario.leader_mode == "explicit" else None
    leader_p = leader_final_positions(
        formation, scenario.targets, explicit=explicit, scale=scenario.leader_scale
    )
    desired = compute_desired(graph, formation, scenario.targets, leader_p)
    schedule = build_schedule(graph, formation, desired, scenario.t0, scenario.tf)
    return Plan(scenario=scenario, graph=graph, desired=desired, schedule=schedule)


def run(scenario: Scenario) -> RunResult:
    """Plan and integrate a full scenario."""
    plan = make_plan(scenario)
    trace = _integrate(plan)
    return RunResult(plan=plan, trace=trace)


_BLOCK = 50  # steps advanced per matrix product


def _integrate(plan: Plan) -> SimTrace:
    sc = plan.scenario
    graph = plan.graph
    ids = sc.formation.ids
    n_agents, dim = sc.formation.positions.shape
    coop = graph.roles == ROLE_COOPERATIVE

    # Rows in layer order: layer 0 (hull, core, clamped), then the mentees,
    # already in (layer, row) order, so every layer is a slice [s, e).
    order = np.concatenate([np.flatnonzero(graph.layer == 0), graph.mentees])
    rank = np.empty_like(order)
    rank[order] = np.arange(n_agents)
    bounds = np.searchsorted(graph.layer[order], np.arange(graph.n_layers + 2)).tolist()
    n0 = bounds[1]
    mentors = rank[graph.mentors]
    p = plan.desired.p[order]
    a = sc.formation.positions[order]
    roles = graph.roles[order]
    anchor = (roles == ROLE_BOUNDARY) | (roles == ROLE_CORE)

    steps = int(round((sc.t_end - sc.t0) / sc.dt))
    log_every = int(round(sc.output_period / sc.dt))
    t = sc.t0 + np.arange(steps + 1) * sc.dt
    b = np.array([beta(tk, sc.t0, sc.tf) for tk in t.tolist()])
    logged = np.union1d(np.arange(0, steps + 1, log_every), [steps])
    pos_log = np.empty((len(logged), n_agents, dim))
    des_log = np.empty_like(pos_log)

    # Agent-major block buffers, one row per (agent, axis) chain: error state
    # x - p e0 then held inputs r_d - p; error states after each step; and
    # positions and r_d at the block's steps.
    z = np.zeros((n_agents, dim, 4 + _BLOCK))
    z[:, :, 0] = a - p
    states = np.empty((n_agents, dim, _BLOCK, 4))
    x = np.empty((n_agents, dim, _BLOCK + 1))
    x[:, :, 0] = a
    r_d = np.empty((n_agents, dim, _BLOCK))
    zf, sf, pf = z.reshape(-1, 4 + _BLOCK), states.reshape(-1, 4 * _BLOCK), p.ravel()
    omega, varpi = plan.schedule.omega[:, :, None], plan.schedule.varpi[:, :, None]
    # Steps after a divergence, and the map powers of gains outside the RK4
    # region, may overflow or turn NaN; the divergence test fails on every
    # such value and raises.
    with np.errstate(over="ignore", invalid="ignore"):
        maps = dynamics.block_maps(dynamics.rk4_map(sc.gains, sc.dt), _BLOCK)
        i0 = 0
        for k0 in range(0, steps + 1, _BLOCK):
            m = min(_BLOCK, steps + 1 - k0)  # steps whose r_d is formed and maybe logged
            adv = min(m, steps - k0)  # steps taken: none from t_end
            bk = b[k0 : k0 + m]
            w = (1.0 - bk) * omega + bk * varpi  # (M, n+1, m)
            held = adv
            for s, e in zip(bounds[:-1], bounds[1:]):
                if s == 0:
                    r_d[:e, :, :m] = p[:e, :, None]
                    if sc.leader_blend:
                        r_d[anchor, :, :m] = (1.0 - bk) * a[anchor, :, None] + bk * p[anchor, :, None]
                else:
                    ms = slice(s - n0, e - n0)
                    blend = w[ms, None, 0] * x[mentors[ms, 0], :, :m]
                    for j in range(1, mentors.shape[1]):
                        blend += w[ms, None, j] * x[mentors[ms, j], :, :m]
                    r_d[s:e, :, :m] = blend
                np.subtract(r_d[s:e, :, :adv], p[s:e, :, None], out=z[s:e, :, 4 : 4 + adv])
                c = slice(s * dim, e * dim)
                held = min(held, dynamics.advance(maps, zf[c, : 4 + adv], pf[c], sf[c, : 4 * adv]))
                np.add(states[s:e, :, :adv, 0], p[s:e, :, None], out=x[s:e, :, 1 : adv + 1])
            if held < adv:
                # the first step that left the bound, judged from the state before it
                rates = z[:, :, 1:4] if held == 0 else states[:, :, held - 1, 1:]
                peak = np.maximum(np.abs(x[:, :, held]).max(axis=1), np.abs(rates).max(axis=(1, 2)))
                worst = ids[int(np.argmax(peak[rank]))]
                raise Diverged(f"agent {worst} diverged near t = {t[k0 + held]:.3f} s")
            i1 = int(np.searchsorted(logged, k0 + m))
            js = logged[i0:i1] - k0
            pos_log[i0:i1, order] = x[:, :, js].transpose(2, 0, 1)
            des_log[i0:i1, order] = r_d[:, :, js].transpose(2, 0, 1)
            i0 = i1
            if adv == m:  # another block follows
                z[:, :, :4] = states[:, :, adv - 1]
                x[:, :, 0] = x[:, :, adv]

    final = pos_log[-1]
    converged = np.zeros(len(ids), dtype=bool)
    converged[coop] = convergence_check(final[coop], sc.targets.zone_polygon(), sc.margin)
    evaluated = int(coop.sum())
    rate = int(converged.sum()) / evaluated if evaluated else 1.0
    return SimTrace(
        ids=ids,
        roles=graph.roles,
        layer=graph.layer,
        times=t[logged],
        positions=pos_log,
        desired=des_log,
        converged=converged,
        rate=float(rate),
        terminal_error=np.linalg.norm(final - plan.desired.p, axis=1),
    )


def convergence_check(positions, zone, margin: float):
    """Whether positions lie inside the zone inflated by ``margin``.

    Inflation scales the zone outline by (1 + margin) about its centroid;
    points on the inflated outline count as inside. A 3-D zone is treated as
    the convex hull of its vertices. The zone is inflated once per call, so
    a (K, n) array of positions gives a (K,) bool array; one (n,) position
    gives a bool.
    """
    pts = np.asarray(positions, dtype=float)
    zone = np.asarray(zone, dtype=float)
    if zone.shape[1] == 2:
        inflated = geometry.scale_polygon(geometry.ensure_ccw(zone), 1.0 + margin)
        inside = geometry.point_in_polygon(pts.reshape(-1, 2), inflated)
    else:
        from scipy.spatial import ConvexHull

        center = zone.mean(axis=0)
        hull = ConvexHull(center + (1.0 + margin) * (zone - center))
        vals = pts.reshape(-1, 3) @ hull.equations[:, :-1].T + hull.equations[:, -1]
        inside = np.all(vals <= geometry.CONTAINMENT_TOL, axis=1)
    return bool(inside[0]) if pts.ndim == 1 else inside


def setpoint_series(plan: Plan, times) -> np.ndarray:
    """Planned set-point positions on a time grid, shaped (T, N, n)."""
    return propagate_setpoints(plan.graph, plan.schedule, plan.desired.p, times)


@dataclass(frozen=True)
class TrackingReport:
    ids: tuple[int, ...]
    times: np.ndarray  # (T,)
    errors: np.ndarray  # (T, N): ||r_i(t) - s_i(t)||
    terminal: np.ndarray  # (N,) ||r_i(t_end) - p_i||


def tracking_error_report(trace: SimTrace, setpoint_times, setpoints) -> TrackingReport:
    """Distance between logged positions and planned set-points over time."""
    st = np.asarray(setpoint_times, dtype=float)
    sp = np.asarray(setpoints, dtype=float)
    if st.shape != trace.times.shape or not np.allclose(st, trace.times, atol=1e-12):
        raise GridMismatch("set-point series is not on the trace's time grid")
    if sp.shape != trace.positions.shape:
        raise GridMismatch(
            f"set-point series shape {sp.shape} does not match trace {trace.positions.shape}"
        )
    errors = np.linalg.norm(trace.positions - sp, axis=2)
    return TrackingReport(
        ids=trace.ids,
        times=trace.times.copy(),
        errors=errors,
        terminal=trace.terminal_error.copy(),
    )
