"""Scenario files: parsing, canonical serialization and seeded generation.

A scenario is one self-describing JSON document, and it holds every setting
of a run: dimension, agents with role tags, target samples (or a zone with a
sampling spacing), anchor placement and whether the anchors blend to it,
gains, times, margin and seed. Serialization is canonical (fixed key order,
shortest round-trip floats, ``leader_final.blend`` only when true), so
generate -> parse -> serialize is byte-identical.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from . import geometry
from .dynamics import DIVERGENCE_THRESHOLD, Gains
from .engine import MAX_COORDINATE, Scenario, make_plan
from .errors import BadConfig, BuildFailure, DegenerateSimplex, InfeasibleParams, ParseError
from .formation import ROLE_BOUNDARY, ROLE_COOPERATIVE, ROLE_CORE, ROLE_UNCOOPERATIVE, Formation, agent_roles
from .targets import TargetSet

ROLES = (ROLE_BOUNDARY, ROLE_CORE, ROLE_COOPERATIVE, ROLE_UNCOOPERATIVE)

_TOP_KEYS = {"dimension", "seed", "margin", "times", "gains", "leader_final", "agents", "targets"}
_TIME_KEYS = ("t0", "tf", "t_end", "dt", "output_period")  # in file order
_GAIN_KEYS = {"k1", "k2", "k3", "k4"}

_ZONE_SIDES = 12  # a generated target zone is a regular polygon
_ZONE_SCALE = 0.45  # its radius as a fraction of the hull apothem

# most points a sample grid's bounding box may hold, far above the ~38,000
# samples a generated team of 10,000 agents draws; near the cap (3.14 M
# samples of a 12-gon) the grid and its filter take 0.55-0.75 s and a 234 MB
# peak on a 2-core Xeon
_MAX_GRID_POINTS = 2**22

# most agents a generated team may have: twice the 30,000 agents that the
# output-memory work aims at; the interior draw takes about 165 us an agent
_MAX_AGENTS = 2**16


def _reject_unknown(obj: dict, allowed, where: str) -> None:
    unknown = sorted(set(obj).difference(allowed))
    if unknown:
        raise ParseError(f"unknown key {unknown[0]!r} in {where}", field=unknown[0])


def _section(value, name: str, keys) -> dict:
    """The section ``value`` of the document, checked to be an object whose keys are all in ``keys``."""
    if not isinstance(value, dict):
        raise ParseError(f"{name} must be an object", field=name)
    _reject_unknown(value, keys, name)
    return value


def _number(obj, key, where, default=None, bound=math.inf) -> float:
    """``obj[key]`` as a float: a finite JSON number of magnitude at most
    ``bound``; ``default`` when absent, or an error when that is None."""
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
    if abs(number) > bound:
        raise ParseError(f"{where}.{key} must not exceed {bound:g} in magnitude", field=key)
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
    if type(dim) is not int or dim not in (2, 3):  # not 2.0, nor True
        raise ParseError("dimension must be 2 or 3", field="dimension")
    seed = doc.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ParseError("seed must be an integer", field="seed")
    margin = _number(doc, "margin", "scenario", default=Scenario.margin)

    times = _section(doc.get("times", {}), "times", _TIME_KEYS)
    tvals = {k: _number(times, k, "times", default=getattr(Scenario, k)) for k in _TIME_KEYS}
    gains_doc = _section(doc.get("gains", {}), "gains", _GAIN_KEYS)
    gains = Gains(**{k: _number(gains_doc, k, "gains", default=getattr(Scenario.gains, k)) for k in sorted(_GAIN_KEYS)})

    agents = doc.get("agents")
    if not isinstance(agents, list) or not agents:
        raise ParseError("agents must be a non-empty list", field="agents")
    coord_keys = ["x", "y", "z"][:dim]
    ids, positions = _entries(agents, coord_keys, "agents", optional=("role",))
    roles = [entry.get("role") for entry in agents]
    for agent, role in zip(ids, roles):
        if role not in ROLES:
            raise ParseError(f"agent {agent} has malformed role tag {role!r}", field="role")
    cores = [a for a, role in zip(ids, roles) if role == ROLE_CORE]
    if len(cores) > 1:
        raise ParseError(f"agent {cores[1]}: a scenario may declare at most one core", field="role")
    declared_boundary = [a for a, role in zip(ids, roles) if role == ROLE_BOUNDARY]
    uncooperative = [a for a, role in zip(ids, roles) if role == ROLE_UNCOOPERATIVE]

    targets_doc = _section(doc.get("targets"), "targets", {"samples", "zone", "sample_spacing"})
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
        samples = _grid_samples(zone, spacing, lambda msg: ParseError(msg, field="sample_spacing"))
    else:
        raise ParseError("targets need samples or a zone with sample_spacing", field="targets")
    if zone is None and len(samples) < 3:
        raise ParseError("targets need a zone or at least 3 samples", field="targets")
    target_set = TargetSet(samples=samples, zone=zone)

    leader_doc = doc.get("leader_final", {"mode": "generated"})
    # the mode decides the section's keys, so it is read first; a section
    # that is not an object is refused by _section
    mode = leader_doc.get("mode") if isinstance(leader_doc, dict) else "generated"
    if mode not in ("generated", "explicit"):
        raise ParseError(f"unknown leader_final mode {mode!r}", field="mode")
    _section(leader_doc, "leader_final", {"mode", "blend", "scale" if mode == "generated" else "positions"})
    leader_scale = _number(leader_doc, "scale", "leader_final", default=Scenario.leader_scale)
    leader_blend = leader_doc.get("blend", Scenario.leader_blend)
    if type(leader_blend) is not bool:
        raise ParseError("leader_final.blend must be true or false", field="blend")
    explicit = None
    if mode == "explicit":
        rows = leader_doc.get("positions")
        if not isinstance(rows, list) or not rows:
            raise ParseError("explicit leader_final needs positions", field="positions")
        anchor_ids, anchors = _entries(rows, coord_keys, "leader_final.positions")
        if len(set(anchor_ids)) < len(anchor_ids):
            k = next(k for k, b in enumerate(anchor_ids) if b in anchor_ids[:k])
            raise ParseError(f"leader_final.positions[{k}]: agent {anchor_ids[k]} is listed twice", field="positions")
        explicit = dict(zip(anchor_ids, anchors))

    try:
        formation = Formation.build(
            ids,
            positions,
            uncooperative=uncooperative,
            core_id=cores[0] if cores else None,
            declared_boundary=declared_boundary if declared_boundary else None,
        )
    except BadConfig as exc:
        raise ParseError(str(exc)) from exc
    if not declared_boundary:
        raise ParseError("scenario declares no boundary agents", field="agents")
    leader_positions = None if explicit is None else _hull_order(explicit, formation)

    return Scenario(
        formation=formation,
        targets=target_set,
        gains=gains,
        **tvals,
        margin=margin,
        seed=seed,
        leader_scale=leader_scale,
        leader_positions=leader_positions,
        leader_blend=leader_blend,
    )


def _hull_order(explicit: dict, formation: Formation) -> np.ndarray:
    """The anchors keyed by agent id, which must be the boundary agents, in hull cycle order."""
    boundary = [formation.ids[k] for k in formation.boundary]
    missing = [b for b in boundary if b not in explicit]
    if missing:
        raise ParseError(f"explicit leader positions missing agents {missing}", field="positions")
    extra = [i for i in explicit if i not in boundary]
    if extra:
        raise ParseError(f"explicit leader positions name non-boundary agents {extra}", field="positions")
    return np.array([explicit[b] for b in boundary], dtype=float)


def _number_rows(rows) -> np.ndarray | None:
    """The equal-length lists of JSON numbers ``rows`` as one float array,
    or None unless every value is a finite int or float (not a bool) of
    magnitude at most ``MAX_COORDINATE``."""
    if not set(map(type, itertools.chain.from_iterable(rows))) <= {int, float}:
        return None
    try:
        out = np.array(rows, dtype=float)
    except OverflowError:  # an integer literal beyond the float range
        return None
    return out if (np.abs(out) <= MAX_COORDINATE).all() else None  # NaN fails too


def _entries(rows: list, coord_keys, where: str, optional=()) -> tuple[list, np.ndarray]:
    """The ids and (K, dim) coordinates of the non-empty list ``rows`` of
    objects, each with an integer ``id``, the coordinates ``coord_keys`` and
    perhaps the keys ``optional``; checked as one list, the entries are
    walked one by one only to name the first bad one."""
    keys = {"id", *coord_keys, *optional}
    if set(map(type, rows)) == {dict} and set().union(*rows) <= keys:
        try:
            ids = list(map(itemgetter("id"), rows))
            coords = _number_rows(list(map(itemgetter(*coord_keys), rows)))
        except KeyError:
            coords = None
        if coords is not None and set(map(type, ids)) == {int}:
            return ids, coords
    for k, entry in enumerate(rows):
        at = f"{where}[{k}]"
        if not isinstance(entry, dict):
            raise ParseError(f"{at} must be an object", field=where.rpartition(".")[2])
        _reject_unknown(entry, keys, at)
        if "id" not in entry or isinstance(entry["id"], bool) or not isinstance(entry["id"], int):
            raise ParseError(f"{at} needs an integer id", field="id")
        for c in coord_keys:
            _number(entry, c, at, bound=MAX_COORDINATE)
    raise AssertionError(f"{where} failed the list checks but no entry is malformed")


def _point_rows(rows, dim, where, minimum) -> np.ndarray:
    """The list of ``dim``-number lists ``rows`` as a (K, dim) array, checked
    as one list; the rows are walked one by one only to name the first bad one."""
    if not isinstance(rows, list):
        raise ParseError(f"{where} must be a list of points", field=where)
    if len(rows) < minimum:
        raise ParseError(f"{where} must be a list of at least {minimum} points", field=where)
    if set(map(type, rows)) <= {list} and set(map(len, rows)) <= {dim}:
        out = _number_rows(rows)
        if out is not None:
            return out.reshape(len(rows), dim)
    for k, row in enumerate(rows):
        if type(row) is not list or len(row) != dim or not set(map(type, row)) <= {int, float}:
            raise ParseError(f"{where}[{k}] must be a list of {dim} numbers", field=where)
        values = [_finite(v) for v in row]
        if None in values:
            raise ParseError(f"{where}[{k}] must be a list of finite numbers", field=where)
        if max(map(abs, values)) > MAX_COORDINATE:
            raise ParseError(f"{where}[{k}] has a coordinate above {MAX_COORDINATE:g} in magnitude", field=where)
    raise AssertionError(f"{where} failed the list checks but no row is malformed")


def _grid_samples(zone: np.ndarray, spacing: float, error) -> np.ndarray:
    """Axis-aligned grid of points covering the zone polygon interior. Raises
    ``error(message)`` before allocating anything when the grid over the
    zone's bounding box would exceed ``_MAX_GRID_POINTS``."""
    lo = zone.min(axis=0)
    hi = zone.max(axis=0)
    with np.errstate(over="ignore"):
        count = np.prod(np.ceil((hi - lo) / spacing + 0.5))
    if not count <= _MAX_GRID_POINTS:
        raise error(f"sample_spacing {spacing:g} gives a grid of {count:.3g} points, more than {_MAX_GRID_POINTS}")
    xs = np.arange(lo[0], hi[0] + spacing / 2, spacing)
    ys = np.arange(lo[1], hi[1] + spacing / 2, spacing)
    gx, gy = np.meshgrid(xs, ys)  # rows run along x, one row per y
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    return pts[geometry.point_in_polygon(pts, zone)]


def read_text(path, what: str) -> str:
    """The UTF-8 text of the file at ``path``; ``ParseError`` naming the
    file when it is missing, a directory, unreadable or not UTF-8."""
    try:
        with open(path, "rb") as handle:
            return handle.read().decode("utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {what} {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {what} {path}: not UTF-8 text") from exc


def load_scenario(path) -> Scenario:
    """Parse the scenario file at ``path``; every ``ParseError`` names the file."""
    text = read_text(path, "scenario")
    try:
        return parse_scenario_text(text)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}", field=exc.field, line=exc.line) from exc


def serialize_scenario(scenario: Scenario) -> str:
    """Canonical JSON text for a scenario (agents sorted by id)."""
    formation = scenario.formation
    coord_keys = ["x", "y", "z"][: formation.dim]
    agents = []
    roles = agent_roles(formation, formation.core)
    for a, pos, role in zip(formation.ids, formation.positions, roles):
        agents.append({"id": a, **{c: float(v) for c, v in zip(coord_keys, pos)}, "role": role})

    targets: dict = {}
    if scenario.targets.zone is not None:
        targets["zone"] = [[float(v) for v in row] for row in scenario.targets.zone]
    targets["samples"] = [[float(v) for v in row] for row in scenario.targets.samples]

    if scenario.leader_positions is not None:
        leader_final = {
            "mode": "explicit",
            "positions": [
                {"id": formation.ids[k], **{c: float(v) for c, v in zip(coord_keys, row)}}
                for k, row in zip(formation.boundary, scenario.leader_positions)
            ],
        }
    else:
        leader_final = {"mode": "generated", "scale": scenario.leader_scale}
    if scenario.leader_blend:  # written only when set, so unblended documents keep their bytes
        leader_final["blend"] = True

    doc = {
        "dimension": formation.dim,
        "seed": scenario.seed,
        "margin": scenario.margin,
        "times": {k: getattr(scenario, k) for k in _TIME_KEYS},
        "gains": {k: getattr(scenario.gains, k) for k in sorted(_GAIN_KEYS)},
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
    sample_spacing: float | None = None  # default scales with team size


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
    if seed < 0:
        raise InfeasibleParams(f"seed must be a nonnegative integer, got {seed}")
    if p.n_agents > _MAX_AGENTS:
        raise InfeasibleParams(f"agents must be at most {_MAX_AGENTS}, got {p.n_agents}")
    if p.n_boundary < 3:
        raise InfeasibleParams("need at least 3 boundary agents")
    interior = p.n_agents - p.n_boundary
    if interior < 1:
        raise InfeasibleParams("need at least one interior agent")
    if p.n_uncooperative < 0 or p.n_uncooperative > interior - 1:
        raise InfeasibleParams(
            "uncooperative count must leave at least one interior core candidate"
        )
    for name in ("radius", "sample_spacing"):
        value = getattr(p, name)
        if value is not None and not 0 < value < math.inf:  # NaN fails too
            raise InfeasibleParams(f"{name} must be a positive finite number, got {value}")
    # Two thresholds of a run are absolute: offsets from the references
    # beyond DIVERGENCE_THRESHOLD end it, and ``point_in_polygon`` (scoring,
    # the sample grid, the interior draw) counts points within
    # CONTAINMENT_TOL of a region as inside it. Every other tolerance is
    # relative to its point set's ``geometry.extent``. The team's scale, and
    # so its offsets', is its radius; keep it three orders of magnitude
    # inside the divergence bound and six above that slack.
    low = 1e6 * geometry.CONTAINMENT_TOL
    high = 1e-3 * DIVERGENCE_THRESHOLD
    if not low <= p.radius <= high:
        raise InfeasibleParams(f"radius must lie in [{low:g}, {high:g}], got {p.radius:g}")

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
    zone_radius = _ZONE_SCALE * apothem
    # random phase so zone vertices never align exactly with the sample grid
    # or the anchor ring (exact alignments make final simplices collapse)
    phase = rng.uniform(0.0, 2.0 * np.pi / _ZONE_SIDES)
    zone_angles = phase + 2.0 * np.pi * np.arange(_ZONE_SIDES) / _ZONE_SIDES
    zone = center + zone_radius * np.column_stack([np.cos(zone_angles), np.sin(zone_angles)])

    if p.sample_spacing is not None:
        spacing = p.sample_spacing
    else:
        # enough samples that distinct capture simplices see distinct sets
        spacing = zone_radius * float(np.sqrt(np.pi / max(200.0, 4.0 * p.n_agents)))
    grid = _grid_samples(zone - center, spacing, InfeasibleParams)
    grid = grid + rng.uniform(-0.3, 0.3, grid.shape) * spacing  # de-lattice
    samples = center + grid[geometry.point_in_polygon(grid, zone - center)]

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
        uncooperative=uncoop,
        declared_boundary=ids[: p.n_boundary],
    )
    return Scenario(formation=formation, targets=TargetSet(samples=samples, zone=zone), seed=seed)


def _apothem(polygon: np.ndarray, center: np.ndarray) -> float:
    m = len(polygon)
    dists = []
    for k in range(m):
        a = polygon[k]
        e = polygon[(k + 1) % m] - a
        dists.append(abs(e[0] * (center[1] - a[1]) - e[1] * (center[0] - a[0])) / np.linalg.norm(e))
    return float(min(dists))
