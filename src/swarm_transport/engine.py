"""Scenario orchestration: plan the graph, weights and final positions, then
integrate the closed-loop team and score convergence.

The plan is array-form and indexed by formation row: the mentor graph's
roles, layers, (M,) mentee rows and (M, n+1) mentor rows, the (N, n) final
positions and the (M, n+1) endpoint weights. The closed loop follows the
deployed coordination law: every follower's desired position is the current
convex blend of its mentors' *actual* positions, anchors track their
constant final positions, and clamped agents rest on their own final
positions, a fixed point of the RK4 map (``dynamics.rk4_map``, built once
per run). The blend is a gather over the mentor rows, so one step costs
O(N (n+1)). Planned set-points are computed separately for reporting, all
output times at once, and never drive the loop.
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


def _integrate(plan: Plan) -> SimTrace:
    sc = plan.scenario
    graph = plan.graph
    ids = sc.formation.ids
    coop = graph.roles == ROLE_COOPERATIVE
    anchor = (graph.roles == ROLE_BOUNDARY) | (graph.roles == ROLE_CORE)

    p_arr = plan.desired.p
    a_arr = sc.formation.positions
    schedule = plan.schedule

    steps = int(round((sc.t_end - sc.t0) / sc.dt))
    log_every = int(round(sc.output_period / sc.dt))
    states = dynamics.initial_state(a_arr)  # (N, 4, n)
    phi = dynamics.rk4_map(sc.gains, sc.dt)

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
        r_d[graph.mentees] = np.einsum("mk,mkd->md", weights_at(schedule, t), r[graph.mentors])
        if k % log_every == 0 or k == steps:
            times.append(t)
            pos_log.append(r.copy())
            des_log.append(r_d.copy())
        if k == steps:
            break
        try:
            states = dynamics.step(states, r_d, phi)
        except Diverged as exc:
            worst = ids[int(np.argmax(np.abs(states).max(axis=(1, 2))))]
            raise Diverged(f"agent {worst} diverged near t = {t:.3f} s") from exc

    positions = np.array(pos_log)
    desired_log = np.array(des_log)
    final = positions[-1]
    converged = np.zeros(len(ids), dtype=bool)
    converged[coop] = convergence_check(final[coop], sc.targets.zone_polygon(), sc.margin)
    evaluated = int(coop.sum())
    rate = int(converged.sum()) / evaluated if evaluated else 1.0
    return SimTrace(
        ids=ids,
        roles=graph.roles,
        layer=graph.layer,
        times=np.array(times),
        positions=positions,
        desired=desired_log,
        converged=converged,
        rate=float(rate),
        terminal_error=np.array([np.linalg.norm(d) for d in final - p_arr]),
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
