"""Scenario orchestration: plan the graph, weights and final positions, then
integrate the closed-loop team and score convergence.

The closed loop follows the deployed coordination law: every follower's
desired position is the current convex blend of its mentors' *actual*
positions, anchors track their constant final positions, and clamped agents
are frozen in place. The blend is a gather over the weight schedule's
(M, n+1) mentor rows, so one step costs O(N (n+1)). Planned set-points are
computed separately for reporting, all output times at once, and never
drive the loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dynamics, geometry
from .dynamics import Gains
from .errors import BadConfig, Diverged, GridMismatch
from .formation import Formation, LayeredGraph, build_actual, role_map
from .setpoints import propagate_setpoints
from .targets import DesiredPositions, TargetSet, compute_desired, leader_final_positions
from .weights import WeightSchedule, beta, build_schedule, weights_at


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
    if sc.leader_mode not in ("generated", "explicit"):
        raise BadConfig(f"unknown leader mode {sc.leader_mode!r}")
    if sc.leader_mode == "explicit" and sc.leader_positions is None:
        raise BadConfig("explicit leader mode requires leader positions")


@dataclass(frozen=True)
class Plan:
    """Everything the loop needs before any integration happens."""

    scenario: Scenario
    graph: LayeredGraph
    leader_p: dict[int, np.ndarray]
    desired: DesiredPositions
    schedule: WeightSchedule


@dataclass(frozen=True)
class SimTrace:
    """Logged agent histories plus the convergence verdicts."""

    ids: tuple[int, ...]
    roles: tuple[str, ...]
    layer: tuple[int, ...]
    times: np.ndarray  # (T,)
    positions: np.ndarray  # (T, N, n)
    desired: np.ndarray  # (T, N, n) logged reference positions
    converged: dict[int, bool]  # cooperative agents only
    rate: float
    terminal_error: dict[int, float]  # ||r(t_end) - p_i|| for every agent


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
    return Plan(
        scenario=scenario,
        graph=graph,
        leader_p=leader_p,
        desired=desired,
        schedule=schedule,
    )


def run(scenario: Scenario) -> RunResult:
    """Plan and integrate a full scenario."""
    plan = make_plan(scenario)
    trace = _integrate(plan)
    return RunResult(plan=plan, trace=trace)


def _integrate(plan: Plan) -> SimTrace:
    sc = plan.scenario
    formation = sc.formation
    ids = formation.ids
    roles = role_map(formation, plan.graph)
    role_arr = tuple(roles[a] for a in ids)
    layer_arr = tuple(plan.graph.layer_index[a] for a in ids)

    coop = np.array([roles[a] == "cooperative" for a in ids])
    frozen = np.array([roles[a] == "uncooperative" for a in ids])
    anchor = np.array([roles[a] in ("boundary", "core") for a in ids])

    p_arr = _final_positions(plan)
    a_arr = formation.positions.copy()
    schedule = plan.schedule

    steps = int(round((sc.t_end - sc.t0) / sc.dt))
    log_every = int(round(sc.output_period / sc.dt))
    states = dynamics.initial_state(a_arr)  # (N, 4, n)

    times: list[float] = []
    pos_log: list[np.ndarray] = []
    des_log: list[np.ndarray] = []
    for k in range(steps + 1):
        t = sc.t0 + k * sc.dt
        r = states[:, 0, :]
        r_d = p_arr.copy()
        if sc.leader_blend:
            b = beta(t, sc.t0, sc.tf)
            r_d[anchor] = (1.0 - b) * a_arr[anchor] + b * p_arr[anchor]
        r_d[schedule.rows] = np.einsum(
            "mk,mkd->md", weights_at(schedule, t), r[schedule.mentors]
        )
        if k % log_every == 0 or k == steps:
            times.append(t)
            pos_log.append(r.copy())
            des_log.append(r_d.copy())
        if k == steps:
            break
        try:
            new = dynamics.step(states, r_d, sc.gains, sc.dt)
        except Diverged as exc:
            worst = ids[int(np.argmax(np.abs(states).max(axis=(1, 2))))]
            raise Diverged(f"agent {worst} diverged near t = {t:.3f} s") from exc
        new[frozen] = states[frozen]  # clamped agents never move
        states = new

    positions = np.array(pos_log)
    desired_log = np.array(des_log)
    zone = sc.targets.zone_polygon()
    final = positions[-1]
    converged: dict[int, bool] = {}
    for k, a in enumerate(ids):
        if coop[k]:
            converged[a] = convergence_check(final[k], zone, sc.margin)
    evaluated = int(coop.sum())
    rate = (sum(converged.values()) / evaluated) if evaluated else 1.0
    terminal = {
        a: float(np.linalg.norm(final[k] - p_arr[k])) for k, a in enumerate(ids)
    }
    return SimTrace(
        ids=ids,
        roles=role_arr,
        layer=layer_arr,
        times=np.array(times),
        positions=positions,
        desired=desired_log,
        converged=converged,
        rate=float(rate),
        terminal_error=terminal,
    )


def convergence_check(position, zone, margin: float) -> bool:
    """True iff the position lies inside the zone inflated by ``margin``.

    Inflation scales the zone outline by (1 + margin) about its centroid;
    points on the inflated outline count as inside. A 3-D zone is treated as
    the convex hull of its vertices.
    """
    zone = np.asarray(zone, dtype=float)
    if zone.shape[1] == 2:
        poly = geometry.ensure_ccw(zone)
        inflated = geometry.scale_polygon(poly, 1.0 + margin)
        return geometry.point_in_polygon(position, inflated)
    from scipy.spatial import ConvexHull

    center = zone.mean(axis=0)
    inflated = center + (1.0 + margin) * (zone - center)
    hull = ConvexHull(inflated)
    vals = np.asarray(position, dtype=float) @ hull.equations[:, :-1].T + hull.equations[:, -1]
    return bool(np.all(vals <= geometry.CONTAINMENT_TOL))


def _final_positions(plan: Plan) -> np.ndarray:
    """Final desired positions in formation row order, shaped (N, n)."""
    return np.array([plan.desired.p[a] for a in plan.scenario.formation.ids])


def setpoint_series(plan: Plan, times) -> np.ndarray:
    """Planned set-point positions on a time grid, shaped (T, N, n)."""
    return propagate_setpoints(plan.graph, plan.schedule, _final_positions(plan), times)


@dataclass(frozen=True)
class TrackingReport:
    ids: tuple[int, ...]
    times: np.ndarray  # (T,)
    errors: np.ndarray  # (T, N): ||r_i(t) - s_i(t)||
    terminal: dict[int, float]  # ||r_i(t_end) - p_i||


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
        terminal=dict(trace.terminal_error),
    )
