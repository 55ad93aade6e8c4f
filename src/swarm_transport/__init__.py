"""Deterministic planner and simulator for decentralized swarm transport.

A team of agents is driven from an arbitrary initial formation to a
coverage-optimal final formation over a finite target sample set. The
coordination graph is a layered feed-forward mentor network synthesized
from the initial positions; communication weights are barycentric and
blend smoothly from initial to final values, and clamped (uncooperative)
agents are tolerated as frozen information sources.
"""

from .dynamics import DEFAULT_GAINS, Gains, check_hurwitz, rk4_map, step, virtual_control
from .engine import (
    Plan,
    RunResult,
    Scenario,
    SimTrace,
    convergence_check,
    make_plan,
    run,
    setpoint_series,
)
from .errors import SwarmTransportError
from .formation import (
    Formation,
    LayeredGraph,
    build_actual,
    fan_triangulate,
    select_core,
)
from .geometry import barycentric, convex_hull
from .scenario import (
    GenerateParams,
    generate_scenario,
    load_scenario,
    parse_scenario_text,
    serialize_scenario,
)
from .setpoints import propagate_setpoints
from .targets import DesiredPositions, TargetSet, compute_desired, leader_final_positions
from .weights import WeightSchedule, beta, build_schedule

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_GAINS",
    "DesiredPositions",
    "Formation",
    "Gains",
    "GenerateParams",
    "LayeredGraph",
    "Plan",
    "RunResult",
    "Scenario",
    "SimTrace",
    "SwarmTransportError",
    "TargetSet",
    "WeightSchedule",
    "barycentric",
    "beta",
    "build_actual",
    "build_schedule",
    "check_hurwitz",
    "compute_desired",
    "convergence_check",
    "convex_hull",
    "fan_triangulate",
    "generate_scenario",
    "leader_final_positions",
    "load_scenario",
    "make_plan",
    "parse_scenario_text",
    "propagate_setpoints",
    "rk4_map",
    "run",
    "select_core",
    "serialize_scenario",
    "setpoint_series",
    "step",
    "virtual_control",
]
