"""Scenario files: parsing, canonical serialization and seeded generation.

A scenario is one self-describing JSON document: dimension, agents with role
tags, target samples (or a zone with a sampling spacing), anchor placement
config, gains, times, margin and seed. Serialization is canonical (fixed key
order, shortest round-trip floats), so generate -> parse -> serialize is
byte-identical.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from . import geometry
from .dynamics import DEFAULT_GAINS, Gains
from .engine import Scenario, validate_scenario
from .errors import BadConfig, InfeasibleParams, ParseError
from .formation import Formation
from .targets import TargetSet

ROLES = ("boundary", "core", "cooperative", "uncooperative")

_TOP_KEYS = {"dimension", "seed", "margin", "times", "gains", "leader_final", "agents", "targets"}
_TIME_KEYS = {"t0", "tf", "t_end", "dt", "output_period"}
_GAIN_KEYS = {"k1", "k2", "k3", "k4"}

DEFAULT_TIMES = {"t0": 0.0, "tf": 15.0, "t_end": 25.0, "dt": 0.01, "output_period": 0.1}


def _reject_unknown(obj: dict, allowed: set[str], where: str) -> None:
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ParseError(f"unknown key {unknown[0]!r} in {where}", field=unknown[0])


def _number(obj, key, where, default=None):
    if key not in obj:
        if default is None:
            raise ParseError(f"missing {key!r} in {where}", field=key)
        return float(default)
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{where}.{key} must be a number", field=key)
    number = _finite(value)
    if number is None:
        raise ParseError(f"{where}.{key} must be a finite number", field=key)
    return number


def _finite(value) -> float | None:
    """The JSON number as a float, or None when it is NaN, infinite or too large."""
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the float range
        return None
    return number if math.isfinite(number) else None


def parse_scenario_text(text: str) -> Scenario:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno) from exc
    if not isinstance(doc, dict):
        raise ParseError("scenario document must be a JSON object")
    _reject_unknown(doc, _TOP_KEYS, "scenario")

    dim = doc.get("dimension")
    if dim not in (2, 3):
        raise ParseError("dimension must be 2 or 3", field="dimension")
    seed = doc.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ParseError("seed must be an integer", field="seed")
    margin = _number(doc, "margin", "scenario", default=0.10)

    times = doc.get("times", {})
    if not isinstance(times, dict):
        raise ParseError("times must be an object", field="times")
    _reject_unknown(times, _TIME_KEYS, "times")
    tvals = {k: _number(times, k, "times", default=DEFAULT_TIMES[k]) for k in _TIME_KEYS}

    gains_doc = doc.get("gains", {})
    if not isinstance(gains_doc, dict):
        raise ParseError("gains must be an object", field="gains")
    _reject_unknown(gains_doc, _GAIN_KEYS, "gains")
    gains = Gains(
        k1=_number(gains_doc, "k1", "gains", default=DEFAULT_GAINS.k1),
        k2=_number(gains_doc, "k2", "gains", default=DEFAULT_GAINS.k2),
        k3=_number(gains_doc, "k3", "gains", default=DEFAULT_GAINS.k3),
        k4=_number(gains_doc, "k4", "gains", default=DEFAULT_GAINS.k4),
    )

    agents = doc.get("agents")
    if not isinstance(agents, list) or not agents:
        raise ParseError("agents must be a non-empty list", field="agents")
    coord_keys = ["x", "y", "z"][:dim]
    ids: list[int] = []
    positions: list[list[float]] = []
    declared_boundary: list[int] = []
    uncooperative: list[int] = []
    core_id = None
    for k, entry in enumerate(agents):
        where = f"agents[{k}]"
        if not isinstance(entry, dict):
            raise ParseError(f"{where} must be an object", field="agents")
        _reject_unknown(entry, {"id", "role", *coord_keys}, where)
        if "id" not in entry or isinstance(entry["id"], bool) or not isinstance(entry["id"], int):
            raise ParseError(f"{where} needs an integer id", field="id")
        agent_id = entry["id"]
        pos = [_number(entry, c, where) for c in coord_keys]
        role = entry.get("role")
        if role not in ROLES:
            raise ParseError(
                f"agent {agent_id} has malformed role tag {role!r}", field="role"
            )
        if role == "boundary":
            declared_boundary.append(agent_id)
        elif role == "uncooperative":
            uncooperative.append(agent_id)
        elif role == "core":
            if core_id is not None:
                raise ParseError(
                    f"agent {agent_id}: a scenario may declare at most one core",
                    field="role",
                )
            core_id = agent_id
        ids.append(agent_id)
        positions.append(pos)
    if len(set(ids)) != len(ids):
        raise ParseError("duplicate agent ids", field="agents")

    targets_doc = doc.get("targets")
    if not isinstance(targets_doc, dict):
        raise ParseError("targets must be an object", field="targets")
    _reject_unknown(targets_doc, {"samples", "zone", "sample_spacing"}, "targets")
    zone = None
    if "zone" in targets_doc:
        zone = _point_rows(targets_doc["zone"], dim, "targets.zone", minimum=3)
    if "samples" in targets_doc:
        samples = _point_rows(targets_doc["samples"], dim, "targets.samples", minimum=0)
        if "sample_spacing" in targets_doc:
            raise ParseError(
                "targets may give samples or sample_spacing, not both", field="targets"
            )
    elif "sample_spacing" in targets_doc:
        if zone is None:
            raise ParseError("sample_spacing requires a zone", field="sample_spacing")
        if dim != 2:
            raise ParseError("sample_spacing generation is 2-D only", field="sample_spacing")
        spacing = _number(targets_doc, "sample_spacing", "targets")
        if spacing <= 0:
            raise ParseError("sample_spacing must be positive", field="sample_spacing")
        samples = _grid_samples(zone, spacing)
    else:
        raise ParseError("targets need samples or a zone with sample_spacing", field="targets")
    if zone is None and len(samples) < 3:
        raise ParseError("targets need a zone or at least 3 samples", field="targets")
    target_set = TargetSet(samples=samples, zone=zone)

    leader_doc = doc.get("leader_final", {"mode": "generated", "scale": 1.1})
    if not isinstance(leader_doc, dict):
        raise ParseError("leader_final must be an object", field="leader_final")
    mode = leader_doc.get("mode")
    if mode == "generated":
        _reject_unknown(leader_doc, {"mode", "scale"}, "leader_final")
        leader_scale = _number(leader_doc, "scale", "leader_final", default=1.1)
        leader_positions = None
    elif mode == "explicit":
        _reject_unknown(leader_doc, {"mode", "positions"}, "leader_final")
        rows = leader_doc.get("positions")
        if not isinstance(rows, list) or not rows:
            raise ParseError("explicit leader_final needs positions", field="positions")
        leader_positions = {}
        for k, entry in enumerate(rows):
            where = f"leader_final.positions[{k}]"
            if not isinstance(entry, dict):
                raise ParseError(f"{where} must be an object", field="positions")
            _reject_unknown(entry, {"id", *coord_keys}, where)
            if "id" not in entry or not isinstance(entry["id"], int):
                raise ParseError(f"{where} needs an integer id", field="id")
            leader_positions[entry["id"]] = np.array(
                [_number(entry, c, where) for c in coord_keys]
            )
        leader_scale = 1.1
    else:
        raise ParseError(f"unknown leader_final mode {mode!r}", field="mode")

    try:
        formation = Formation.build(
            ids,
            positions,
            target_set.center(),
            uncooperative=uncooperative,
            core_id=core_id,
            declared_boundary=declared_boundary if declared_boundary else None,
        )
    except BadConfig as exc:
        raise ParseError(str(exc)) from exc
    if not declared_boundary:
        raise ParseError("scenario declares no boundary agents", field="agents")

    scenario = Scenario(
        formation=formation,
        targets=target_set,
        gains=gains,
        t0=tvals["t0"],
        tf=tvals["tf"],
        t_end=tvals["t_end"],
        dt=tvals["dt"],
        margin=margin,
        seed=seed,
        output_period=tvals["output_period"],
        leader_mode=mode if isinstance(mode, str) else "generated",
        leader_scale=leader_scale,
        leader_positions=leader_positions,
    )
    validate_scenario(scenario)
    return scenario


def _point_rows(rows, dim, where, minimum) -> np.ndarray:
    if not isinstance(rows, list) or len(rows) < minimum:
        raise ParseError(f"{where} must be a list of at least {minimum} points", field=where)
    out = np.empty((len(rows), dim))
    for k, row in enumerate(rows):
        if (
            not isinstance(row, list)
            or len(row) != dim
            or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in row)
        ):
            raise ParseError(f"{where}[{k}] must be a list of {dim} numbers", field=where)
        values = [_finite(v) for v in row]
        if None in values:
            raise ParseError(f"{where}[{k}] must be a list of finite numbers", field=where)
        out[k] = values
    return out


def _grid_samples(zone: np.ndarray, spacing: float) -> np.ndarray:
    """Axis-aligned grid of points covering the zone polygon interior."""
    lo = zone.min(axis=0)
    hi = zone.max(axis=0)
    xs = np.arange(lo[0], hi[0] + spacing / 2, spacing)
    ys = np.arange(lo[1], hi[1] + spacing / 2, spacing)
    pts = [
        (x, y)
        for y in ys
        for x in xs
        if geometry.point_in_polygon((x, y), zone)
    ]
    return np.array(pts) if pts else np.empty((0, 2))


def load_scenario(path) -> Scenario:
    with open(path, "r") as handle:
        return parse_scenario_text(handle.read())


def serialize_scenario(scenario: Scenario) -> str:
    """Canonical JSON text for a scenario (agents sorted by id)."""
    formation = scenario.formation
    coord_keys = ["x", "y", "z"][: formation.dim]
    boundary = set(formation.boundary_ids)
    agents = []
    for a in formation.ids:
        pos = formation.position(a)
        entry: dict = {"id": a}
        for c, v in zip(coord_keys, pos):
            entry[c] = float(v)
        if a in boundary:
            entry["role"] = "boundary"
        elif a == formation.core_id:
            entry["role"] = "core"
        elif a in formation.uncooperative_ids:
            entry["role"] = "uncooperative"
        else:
            entry["role"] = "cooperative"
        agents.append(entry)

    targets: dict = {}
    if scenario.targets.zone is not None:
        targets["zone"] = [[float(v) for v in row] for row in scenario.targets.zone]
    targets["samples"] = [[float(v) for v in row] for row in scenario.targets.samples]

    if scenario.leader_mode == "explicit":
        leader_final = {
            "mode": "explicit",
            "positions": [
                {"id": b, **{c: float(v) for c, v in zip(coord_keys, scenario.leader_positions[b])}}
                for b in formation.boundary_ids
            ],
        }
    else:
        leader_final = {"mode": "generated", "scale": scenario.leader_scale}

    doc = {
        "dimension": formation.dim,
        "seed": scenario.seed,
        "margin": scenario.margin,
        "times": {
            "t0": scenario.t0,
            "tf": scenario.tf,
            "t_end": scenario.t_end,
            "dt": scenario.dt,
            "output_period": scenario.output_period,
        },
        "gains": {
            "k1": scenario.gains.k1,
            "k2": scenario.gains.k2,
            "k3": scenario.gains.k3,
            "k4": scenario.gains.k4,
        },
        "leader_final": leader_final,
        "agents": agents,
        "targets": targets,
    }
    return json.dumps(doc, indent=2) + "\n"


@dataclass(frozen=True)
class GenerateParams:
    """Knobs for seeded scenario generation (2-D only)."""

    n_agents: int
    n_boundary: int
    n_uncooperative: int = 0
    radius: float = 10.0
    zone_scale: float = 0.45  # zone radius as a fraction of the hull apothem
    zone_vertices: int = 12
    sample_spacing: float | None = None  # default scales with team size
    t0: float = 0.0
    tf: float = 15.0
    t_end: float = 25.0
    dt: float = 0.01
    output_period: float = 0.1
    margin: float = 0.10
    gains: Gains = DEFAULT_GAINS
    leader_scale: float = 1.1


def generate_scenario(params: GenerateParams, seed: int) -> Scenario:
    """Deterministic random scenario: jittered-circle hull, uniform interior
    agents (one pinned near the zone center so a good core exists), a regular
    target zone polygon and a de-latticed sample grid inside it.

    Each draw is validated through the full planning pipeline; a draw whose
    emergent final geometry degenerates (e.g. two capture simplices see the
    exact same samples) is redrawn with a derived substream, so a given seed
    still maps to exactly one scenario.
    """
    p = params
    if p.n_boundary < 3:
        raise InfeasibleParams("need at least 3 boundary agents")
    interior = p.n_agents - p.n_boundary
    if interior < 1:
        raise InfeasibleParams("need at least one interior agent")
    if p.n_uncooperative < 0 or p.n_uncooperative > interior - 1:
        raise InfeasibleParams(
            "uncooperative count must leave at least one interior core candidate"
        )
    if not (0 < p.zone_scale < 0.9):
        raise InfeasibleParams("zone_scale must lie in (0, 0.9)")

    from .engine import make_plan
    from .errors import BuildFailure, DegenerateSimplex

    last: Exception | None = None
    for attempt in range(16):
        sc = _draw_scenario(p, seed, attempt)
        try:
            make_plan(sc)
            return sc
        except (BuildFailure, DegenerateSimplex, BadConfig) as exc:
            last = exc
    raise InfeasibleParams(
        f"no valid scenario after 16 draws for seed {seed}: {last}"
    )


def _draw_scenario(p: GenerateParams, seed: int, attempt: int) -> Scenario:
    interior = p.n_agents - p.n_boundary
    rng = np.random.default_rng([seed, attempt])
    spacing_angle = 2.0 * np.pi / p.n_boundary
    angles = (
        np.arange(p.n_boundary) * spacing_angle
        + rng.uniform(-0.3, 0.3, p.n_boundary) * spacing_angle
    )
    hull_pts = p.radius * np.column_stack([np.cos(angles), np.sin(angles)])

    center = geometry.polygon_centroid(hull_pts)
    apothem = _apothem(hull_pts, center)
    zone_radius = p.zone_scale * apothem
    # random phase so zone vertices never align exactly with the sample grid
    # or the anchor ring (exact alignments make final simplices collapse)
    phase = rng.uniform(0.0, 2.0 * np.pi / p.zone_vertices)
    zone_angles = phase + 2.0 * np.pi * np.arange(p.zone_vertices) / p.zone_vertices
    zone = center + zone_radius * np.column_stack([np.cos(zone_angles), np.sin(zone_angles)])

    if p.sample_spacing is not None:
        spacing = p.sample_spacing
    else:
        # enough samples that distinct capture simplices see distinct sets
        spacing = zone_radius * float(np.sqrt(np.pi / max(200.0, 4.0 * p.n_agents)))
    grid = _grid_samples(zone - center, spacing)
    grid = grid + rng.uniform(-0.3, 0.3, grid.shape) * spacing  # de-lattice
    keep = [k for k in range(len(grid)) if geometry.point_in_polygon(grid[k], zone - center)]
    samples = center + grid[keep]

    interior_pts = np.empty((interior, 2))
    interior_pts[0] = center + rng.uniform(-0.05, 0.05, 2) * zone_radius
    inner_hull = geometry.scale_polygon(hull_pts, 0.97, about=center)
    lo = inner_hull.min(axis=0)
    hi = inner_hull.max(axis=0)
    filled = 1
    attempts = 0
    while filled < interior:
        attempts += 1
        if attempts > 20000 * interior:
            raise InfeasibleParams("rejection sampling failed to fill the hull")
        cand = rng.uniform(lo, hi)
        if geometry.point_in_polygon(cand, inner_hull):
            interior_pts[filled] = cand
            filled += 1

    ids = list(range(1, p.n_agents + 1))
    positions = np.vstack([hull_pts, interior_pts])
    interior_ids = ids[p.n_boundary :]
    # the pinned center agent stays cooperative so the core pick never clamps
    candidates = interior_ids[1:]
    uncoop = sorted(
        int(i) for i in rng.choice(candidates, size=p.n_uncooperative, replace=False)
    ) if p.n_uncooperative else []

    formation = Formation.build(
        ids,
        positions,
        geometry.polygon_centroid(zone),
        uncooperative=uncoop,
        declared_boundary=ids[: p.n_boundary],
    )
    scenario = Scenario(
        formation=formation,
        targets=TargetSet(samples=samples, zone=zone),
        gains=p.gains,
        t0=p.t0,
        tf=p.tf,
        t_end=p.t_end,
        dt=p.dt,
        margin=p.margin,
        seed=seed,
        output_period=p.output_period,
        leader_mode="generated",
        leader_scale=p.leader_scale,
    )
    validate_scenario(scenario)
    return scenario


def _apothem(polygon: np.ndarray, center: np.ndarray) -> float:
    m = len(polygon)
    dists = []
    for k in range(m):
        a = polygon[k]
        e = polygon[(k + 1) % m] - a
        dists.append(abs(e[0] * (center[1] - a[1]) - e[1] * (center[0] - a[0])) / np.linalg.norm(e))
    return float(min(dists))


def with_overrides(scenario: Scenario, **kwargs) -> Scenario:
    """Scenario copy with selected fields replaced (used by CLI flags)."""
    out = replace(scenario, **kwargs)
    validate_scenario(out)
    return out
