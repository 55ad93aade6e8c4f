import copy
import dataclasses
import functools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import GridAxisAllocated, cube_scenario
from test_output_digests import explicit_planar_scenario

from swarm_transport import scenario as scenario_module
from swarm_transport.engine import make_plan, run
from swarm_transport.errors import InfeasibleParams, ParseError, SwarmTransportError
from swarm_transport.formation import build_actual
from swarm_transport.scenario import (
    GenerateParams,
    generate_scenario,
    parse_scenario_text,
    serialize_scenario,
)

MINIMAL = """
{
  "dimension": 2,
  "agents": [
    {"id": 1, "x": 0.0, "y": 0.0, "role": "boundary"},
    {"id": 2, "x": 4.0, "y": 0.0, "role": "boundary"},
    {"id": 3, "x": 4.0, "y": 4.0, "role": "boundary"},
    {"id": 4, "x": 0.0, "y": 4.0, "role": "boundary"},
    {"id": 5, "x": 2.0, "y": 2.0, "role": "cooperative"},
    {"id": 6, "x": 2.0, "y": 1.0, "role": "cooperative"}
  ],
  "targets": {"zone": [[1.5, 1.5], [2.5, 1.5], [2.5, 2.5], [1.5, 2.5]],
              "samples": [[2.0, 1.9], [2.1, 2.2]]}
}
"""


class TestParse:
    def test_minimal_document(self):
        sc = parse_scenario_text(MINIMAL)
        assert sc.formation.n_agents == 6
        assert sc.formation.boundary.tolist() == [0, 1, 2, 3]  # ids 1-4
        assert sc.t_end == 25.0  # defaults fill in
        assert sc.margin == 0.10
        assert len(sc.targets.samples) == 2

    def test_malformed_role_names_agent(self):
        text = MINIMAL.replace('"id": 6, "x": 2.0, "y": 1.0, "role": "cooperative"',
                               '"id": 6, "x": 2.0, "y": 1.0, "role": "stubborn"')
        with pytest.raises(ParseError, match="agent 6"):
            parse_scenario_text(text)

    @pytest.mark.parametrize("dim", [2.0, True, "2", None])
    def test_dimension_must_be_an_integer(self, dim):
        doc = json.loads(MINIMAL)
        doc["dimension"] = dim
        with pytest.raises(ParseError, match="dimension"):
            parse_scenario_text(json.dumps(doc))

    def test_unknown_key_rejected(self):
        doc = json.loads(MINIMAL)
        doc["velocity_limit"] = 3.0
        with pytest.raises(ParseError, match="velocity_limit"):
            parse_scenario_text(json.dumps(doc))

    def test_unknown_nested_key_rejected(self):
        doc = json.loads(MINIMAL)
        doc["times"] = {"t0": 0.0, "warmup": 1.0}
        with pytest.raises(ParseError, match="warmup"):
            parse_scenario_text(json.dumps(doc))

    def test_duplicate_ids_rejected(self):
        doc = json.loads(MINIMAL)
        doc["agents"][5]["id"] = 5
        with pytest.raises(ParseError, match="duplicate"):
            parse_scenario_text(json.dumps(doc))

    def test_two_cores_rejected(self):
        doc = json.loads(MINIMAL)
        doc["agents"][4]["role"] = "core"
        doc["agents"][5]["role"] = "core"
        with pytest.raises(ParseError, match="at most one core"):
            parse_scenario_text(json.dumps(doc))

    def test_boundary_must_match_hull(self):
        doc = json.loads(MINIMAL)
        doc["agents"][0]["role"] = "cooperative"  # a hull vertex tagged interior
        with pytest.raises(ParseError, match="hull"):
            parse_scenario_text(json.dumps(doc))

    def test_invalid_json_line_number(self):
        with pytest.raises(ParseError) as info:
            parse_scenario_text("{\n  \"dimension\": 2,\n  !\n}")
        assert info.value.line == 3

    def test_declared_core_is_used(self):
        doc = json.loads(MINIMAL)
        doc["agents"][5]["role"] = "core"  # agent 6, not the nearest to center
        sc = parse_scenario_text(json.dumps(doc))
        graph = build_actual(sc.formation, sc.targets.center)
        assert sc.formation.ids[graph.core] == 6

    def test_zone_with_sample_spacing(self):
        doc = json.loads(MINIMAL)
        doc["targets"] = {
            "zone": [[1.0, 1.0], [3.0, 1.0], [3.0, 3.0], [1.0, 3.0]],
            "sample_spacing": 0.5,
        }
        sc = parse_scenario_text(json.dumps(doc))
        assert len(sc.targets.samples) == 25  # 5x5 grid over a 2x2 box
        assert np.all(np.abs(sc.targets.samples - 2.0) <= 1.0 + 1e-12)

    def test_sample_grid_is_counted_before_it_is_built(self, no_grid_axes):
        # a 2x2 zone: spacing 2/2047 gives 2048^2 = 2^22 grid points, the most
        # allowed, and 2/2048 one row and column more; 1e-7 gives 4e14
        doc = json.loads(MINIMAL)
        doc["targets"] = {"zone": [[1.0, 1.0], [3.0, 1.0], [3.0, 3.0], [1.0, 3.0]]}
        for spacing in (2.0 / 2048, 1e-7):
            doc["targets"]["sample_spacing"] = spacing
            with pytest.raises(ParseError, match="grid of") as info:
                parse_scenario_text(json.dumps(doc))
            assert info.value.field == "sample_spacing"
        doc["targets"]["sample_spacing"] = 2.0 / 2047
        with pytest.raises(GridAxisAllocated):
            parse_scenario_text(json.dumps(doc))

    def test_sample_grid_filter_memory_is_bounded(self):
        # 2^16 grid points over a 12-gon: the points themselves take 1 MiB,
        # and the containment test holds one pass of (point, facet) pairs
        a = 2 * np.pi * np.arange(12) / 12
        zone = np.column_stack([np.cos(a), np.sin(a)])
        tracemalloc.start()
        try:
            samples = scenario_module._grid_samples(zone, 2.0 / 255, ParseError)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 40_000 < len(samples) < 2**16
        assert peak <= 10 * 2**20

    def test_samples_and_spacing_conflict(self):
        doc = json.loads(MINIMAL)
        doc["targets"]["sample_spacing"] = 0.5
        with pytest.raises(ParseError, match="not both"):
            parse_scenario_text(json.dumps(doc))

    def test_explicit_leader_positions(self):
        doc = json.loads(MINIMAL)
        doc["leader_final"] = {
            "mode": "explicit",
            "positions": [
                {"id": 1, "x": 1.0, "y": 1.0},
                {"id": 2, "x": 3.0, "y": 1.0},
                {"id": 3, "x": 3.0, "y": 3.0},
                {"id": 4, "x": 1.0, "y": 3.0},
            ],
        }
        sc = parse_scenario_text(json.dumps(doc))
        assert np.array_equal(sc.leader_positions, [[1, 1], [3, 1], [3, 3], [1, 3]])  # hull order
        plan = make_plan(sc)
        assert sc.formation.ids[sc.formation.boundary[0]] == 1
        assert np.allclose(plan.desired.p[sc.formation.boundary], [[1, 1], [3, 1], [3, 3], [1, 3]])

    def test_explicit_leader_positions_take_hull_order(self):
        doc = json.loads(MINIMAL)
        rows = [{"id": b, "x": float(b), "y": -float(b)} for b in (3, 1, 4, 2)]
        doc["leader_final"] = {"mode": "explicit", "positions": rows}
        sc = parse_scenario_text(json.dumps(doc))
        hull_ids = [sc.formation.ids[k] for k in sc.formation.boundary]
        assert np.array_equal(sc.leader_positions, [[b, -b] for b in hull_ids])

    @pytest.mark.parametrize(
        "listed, message",
        [
            ((1, 2, 4), r"explicit leader positions missing agents \[3\]"),
            ((1, 2, 3, 4, 6, 5), r"explicit leader positions name non-boundary agents \[6, 5\]"),
        ],
        ids=["missing", "non-boundary"],
    )
    def test_explicit_leader_positions_name_exactly_the_boundary(self, listed, message):
        doc = json.loads(MINIMAL)
        doc["leader_final"] = {"mode": "explicit", "positions": [{"id": b, "x": 1.0, "y": 1.0} for b in listed]}
        with pytest.raises(ParseError, match=message) as info:
            parse_scenario_text(json.dumps(doc))
        assert info.value.field == "positions"

    def test_explicit_leader_id_true_is_not_agent_1(self):
        doc = json.loads(MINIMAL)
        rows = [{"id": b, "x": 1.0, "y": 1.0} for b in (True, 2, 3, 4)]
        doc["leader_final"] = {"mode": "explicit", "positions": rows}
        with pytest.raises(ParseError, match="integer id"):
            parse_scenario_text(json.dumps(doc))

    def test_explicit_leader_id_listed_twice_is_refused(self):
        doc = json.loads(MINIMAL)
        rows = [{"id": b, "x": 1.0, "y": 1.0} for b in (1, 2, 3, 4, 1)]
        doc["leader_final"] = {"mode": "explicit", "positions": rows}
        with pytest.raises(ParseError, match=r"positions\[4\]: agent 1 is listed twice") as info:
            parse_scenario_text(json.dumps(doc))
        assert info.value.field == "positions"

    @pytest.mark.parametrize(
        "edit, named, field",
        [
            (lambda doc: doc["agents"][5].update(x=1e101), "agents[5].x", "x"),
            (lambda doc: doc["targets"]["samples"].append([1e308, 1e308]), "targets.samples[2]", "targets.samples"),
            (lambda doc: doc["targets"]["zone"][2].__setitem__(1, -(10**101)), "targets.zone[2]", "targets.zone"),
            (
                lambda doc: doc.update(leader_final={"mode": "explicit", "positions": [
                    {"id": 1, "x": 0.0, "y": 0.0}, {"id": 2, "x": 4.0, "y": 0.0},
                    {"id": 3, "x": 4.0, "y": 2e100}, {"id": 4, "x": 0.0, "y": 4.0},
                ]}),
                "leader_final.positions[2].y",
                "y",
            ),
        ],
        ids=["agents", "samples", "zone", "explicit-anchors"],
    )
    def test_coordinates_beyond_1e100_are_refused(self, edit, named, field):
        # squares and cubes of such coordinates overflow in scoring, the
        # degeneracy threshold and the SVG canvas
        doc = json.loads(MINIMAL)
        edit(doc)
        with pytest.raises(ParseError, match=r"1e\+100 in magnitude") as info:
            parse_scenario_text(json.dumps(doc))
        assert named in str(info.value)
        assert info.value.field == field

    def test_coordinates_of_1e100_parse(self):
        doc = json.loads(MINIMAL)
        doc["targets"]["samples"].append([1e100, -(10**100)])
        assert parse_scenario_text(json.dumps(doc)).targets.samples[-1].tolist() == [1e100, -1e100]

    @pytest.mark.parametrize(
        "edit, message, field",
        [
            (lambda entry: 7, "{where}[2] must be an object", None),  # None: the list's own name
            (lambda entry: {**entry, "w": 0.0}, "unknown key 'w' in {where}[2]", "w"),
            (lambda entry: {**entry, "id": True}, "{where}[2] needs an integer id", "id"),
            (lambda entry: {k: v for k, v in entry.items() if k != "y"}, "missing 'y' in {where}[2]", "y"),
            (lambda entry: {**entry, "x": "1.0"}, "{where}[2].x must be a number", "x"),
            (lambda entry: {**entry, "x": 1e101}, "{where}[2].x must not exceed 1e+100 in magnitude", "x"),
        ],
        ids=["not-an-object", "unknown-key", "true-id", "missing-coordinate", "string-coordinate", "1e101"],
    )
    @pytest.mark.parametrize("where", ["agents", "leader_final.positions"])
    def test_entry_faults_name_the_entry(self, where, edit, message, field):
        # agents and explicit anchors are lists of the same kind of entry,
        # and a bad entry is named by its list and index alike
        doc = json.loads(MINIMAL)
        doc["leader_final"] = {
            "mode": "explicit",
            "positions": [{"id": b, "x": 1.0 + b % 2, "y": 1.0 + b // 3} for b in (1, 2, 3, 4)],
        }
        entries = doc["agents"] if where == "agents" else doc["leader_final"]["positions"]
        entries[2] = edit(entries[2])
        with pytest.raises(ParseError) as info:
            parse_scenario_text(json.dumps(doc))
        assert str(info.value) == message.format(where=where)
        assert info.value.field == (field or where.split(".")[-1])

    @pytest.mark.parametrize(
        "cube, edit, message, field",
        [
            (False, lambda doc: [doc], "scenario document must be a JSON object", None),
            (False, lambda doc: {**doc, "targets": {"sample_spacing": 0.5}}, "sample_spacing requires a zone", "sample_spacing"),
            (
                True,
                lambda doc: {**doc, "targets": {"zone": doc["targets"]["zone"], "sample_spacing": 0.5}},
                "sample_spacing generation is 2-D only",
                "sample_spacing",
            ),
            (
                False,
                lambda doc: {**doc, "targets": {"zone": doc["targets"]["zone"], "sample_spacing": 0.0}},
                "sample_spacing must be positive",
                "sample_spacing",
            ),
            (
                False,
                lambda doc: {**doc, "targets": {"zone": doc["targets"]["zone"]}},
                "targets need samples or a zone with sample_spacing",
                "targets",
            ),
            (
                False,
                lambda doc: {**doc, "targets": {"samples": doc["targets"]["samples"]}},
                "targets need a zone or at least 3 samples",
                "targets",
            ),
            (
                False,
                lambda doc: {**doc, "leader_final": {"mode": "explicit"}},
                "explicit leader_final needs positions",
                "positions",
            ),
            (
                False,
                lambda doc: {**doc, "agents": [{**a, "role": "cooperative"} for a in doc["agents"]]},
                "scenario declares no boundary agents",
                "agents",
            ),
            (
                False,
                lambda doc: {**doc, "targets": {**doc["targets"], "samples": {"x": 1.0}}},
                "targets.samples must be a list of points",
                "targets.samples",
            ),
            (
                False,
                lambda doc: {**doc, "targets": {**doc["targets"], "zone": doc["targets"]["zone"][:2]}},
                "targets.zone must be a list of at least 3 points",
                "targets.zone",
            ),
            (
                False,
                lambda doc: {**doc, "targets": {**doc["targets"], "samples": [[2.0, 1.9], [2.1, 2.2, 0.0]]}},
                "targets.samples[1] must be a list of 2 numbers",
                "targets.samples",
            ),
            (
                False,
                lambda doc: {**doc, "targets": {**doc["targets"], "zone": [[1.5, 1.5], [float("nan"), 1.5], [2.5, 2.5]]}},
                "targets.zone[1] must be a list of finite numbers",
                "targets.zone",
            ),
            (
                False,
                lambda doc: {**doc, "leader_final": {"mode": "generated", "blend": 1}},
                "leader_final.blend must be true or false",
                "blend",
            ),
        ],
        ids=[
            "not-an-object", "spacing-without-zone", "spacing-in-3d", "spacing-zero",
            "neither-samples-nor-spacing", "two-samples-no-zone", "explicit-without-positions",
            "no-boundary-agents", "rows-not-a-list", "zone-too-short", "row-of-wrong-length", "row-non-finite",
            "blend-not-a-bool",
        ],
    )
    def test_document_faults_are_named(self, cube, edit, message, field):
        doc = edit(json.loads(serialize_scenario(cube_scenario()) if cube else MINIMAL))
        with pytest.raises(ParseError) as info:
            parse_scenario_text(json.dumps(doc))  # writes NaN as given
        assert type(info.value) is ParseError
        assert str(info.value) == message
        assert info.value.field == field


def _assert_same_fields(got, want, skip=frozenset(), path="scenario"):
    """Field by field, into nested dataclasses: arrays equal, all else ``==``."""
    for field in dataclasses.fields(want):
        if field.name in skip:
            continue
        a, b, at = getattr(got, field.name), getattr(want, field.name), f"{path}.{field.name}"
        if isinstance(b, np.ndarray):
            assert isinstance(a, np.ndarray) and np.array_equal(a, b), at
        elif dataclasses.is_dataclass(b):
            _assert_same_fields(a, b, path=at)
        else:
            assert a == b, at


class TestRoundTrip:
    def test_generate_parse_serialize_idempotent(self):
        sc = generate_scenario(GenerateParams(n_agents=28, n_boundary=7, n_uncooperative=2), seed=5)
        text = serialize_scenario(sc)
        again = serialize_scenario(parse_scenario_text(text))
        assert again == text

    def test_generation_deterministic(self):
        params = GenerateParams(n_agents=30, n_boundary=8)
        a = serialize_scenario(generate_scenario(params, seed=11))
        b = serialize_scenario(generate_scenario(params, seed=11))
        assert a == b

    def test_different_seeds_differ(self):
        params = GenerateParams(n_agents=30, n_boundary=8)
        a = serialize_scenario(generate_scenario(params, seed=1))
        b = serialize_scenario(generate_scenario(params, seed=2))
        assert a != b

    @pytest.mark.parametrize(
        "build",
        [
            lambda: generate_scenario(GenerateParams(n_agents=28, n_boundary=7, n_uncooperative=2), seed=5),
            explicit_planar_scenario,
            cube_scenario,
            lambda: dataclasses.replace(cube_scenario(), leader_blend=True),
        ],
        ids=["generated", "explicit-planar", "cube", "cube-leader-blend"],
    )
    def test_document_keeps_every_field(self, build):
        # an explicit document has no scale key, so only leader_scale may fall back to its default
        sc = build()
        again = parse_scenario_text(serialize_scenario(sc))
        skip = {"leader_scale"} if sc.leader_positions is not None else set()
        _assert_same_fields(again, sc, skip)

    def test_parsed_equals_generated_structurally(self):
        sc = generate_scenario(GenerateParams(n_agents=26, n_boundary=7), seed=9)
        sc2 = parse_scenario_text(serialize_scenario(sc))
        assert sc2.formation.ids == sc.formation.ids
        assert np.array_equal(sc2.formation.boundary, sc.formation.boundary)
        assert np.array_equal(sc2.formation.clamped, sc.formation.clamped)
        assert np.array_equal(sc2.formation.positions, sc.formation.positions)
        assert np.array_equal(sc2.targets.samples, sc.targets.samples)


class TestGenerate:
    def test_counts(self):
        sc = generate_scenario(GenerateParams(n_agents=40, n_boundary=10), seed=0)
        assert sc.formation.n_agents == 40
        assert sc.formation.boundary.tolist() == list(range(10))  # ids 1-10
        assert sc.formation.n_agents - len(sc.formation.boundary) == 30

    def test_requested_clamped_count(self):
        sc = generate_scenario(
            GenerateParams(n_agents=40, n_boundary=10, n_uncooperative=3), seed=2
        )
        assert len(sc.formation.clamped) == 3

    @pytest.mark.parametrize("seed", range(12))
    def test_generated_always_plans(self, seed):
        n = 18 + 4 * seed
        sc = generate_scenario(
            GenerateParams(n_agents=n, n_boundary=max(6, n // 5), n_uncooperative=seed % 3),
            seed=seed,
        )
        plan = make_plan(sc)
        assert plan.graph.n_initial_simplices == len(sc.formation.boundary)

    def test_samples_inside_hull(self):
        sc = generate_scenario(GenerateParams(n_agents=30, n_boundary=8), seed=4)
        from swarm_transport.geometry import point_in_polygon

        hull = sc.formation.positions[sc.formation.boundary]
        assert point_in_polygon(sc.targets.samples, hull).all()

    @pytest.mark.parametrize(
        "params",
        [
            GenerateParams(n_agents=5, n_boundary=2),
            GenerateParams(n_agents=6, n_boundary=6),
            GenerateParams(n_agents=10, n_boundary=6, n_uncooperative=4),
        ],
    )
    def test_infeasible_params(self, params):
        with pytest.raises(InfeasibleParams):
            generate_scenario(params, seed=0)

    @pytest.mark.parametrize("spacing", [1e-9, 1e-300])
    def test_sample_grid_is_counted_before_it_is_built(self, no_grid_axes, spacing):
        with pytest.raises(InfeasibleParams, match="grid of"):
            generate_scenario(GenerateParams(n_agents=24, n_boundary=6, sample_spacing=spacing), seed=0)

    def test_team_size_is_capped_before_any_draw(self, monkeypatch):
        draws = []
        monkeypatch.setattr(scenario_module, "_draw_scenario", lambda *args: draws.append(args))
        params = GenerateParams(n_agents=10**9, n_boundary=10, sample_spacing=1.0)
        with pytest.raises(InfeasibleParams, match="agents must be at most 65536"):
            generate_scenario(params, seed=0)
        assert draws == []

    def test_short_horizon_smoke(self):
        sc = generate_scenario(GenerateParams(n_agents=20, n_boundary=6), seed=3)
        res = run(dataclasses.replace(sc, tf=3.0, t_end=5.0, dt=0.02))
        assert len(res.times) == 51


@functools.cache
def _base_documents():
    """A generated planar document and the 3-D team with explicit anchors and the leader blend."""
    planar = generate_scenario(GenerateParams(n_agents=12, n_boundary=4, n_uncooperative=1), seed=2)
    cube = dataclasses.replace(cube_scenario(), leader_blend=True)
    return tuple(json.loads(serialize_scenario(sc)) for sc in (planar, cube))


def _node_path(draw, doc):
    """A path of keys from the root to one node, stopping at each level with
    probability one half, so top-level fields are hit as often as leaves."""
    path, node = [], doc
    while isinstance(node, (dict, list)) and node and (not path or draw(st.booleans())):
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        path.append(key)
        node = node[key]
    return path


@st.composite
def mutated_documents(draw):
    doc = copy.deepcopy(_base_documents()[draw(st.integers(0, 1))])
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["drop", "retype", "count", "duplicate-id"]))
        agents = doc.get("agents") if isinstance(doc, dict) else None
        if kind == "duplicate-id":
            if isinstance(agents, list) and len(agents) >= 2 and all(isinstance(e, dict) for e in agents):
                i, j = draw(st.lists(st.integers(0, len(agents) - 1), min_size=2, max_size=2, unique=True))
                agents[j]["id"] = agents[i].get("id")
            continue
        path = _node_path(draw, doc)
        if not path:
            continue
        parent = functools.reduce(lambda node, key: node[key], path[:-1], doc)
        key, value = path[-1], parent[path[-1]]
        if kind == "drop":
            del parent[key]
        elif kind == "retype":
            other = [float(value)] if type(value) is int and abs(value) < 2**53 else []  # 2 -> 2.0
            parent[key] = draw(st.sampled_from(["2", [], [1.0], None, {}, {"x": 1.0}, True, *other]))
        elif isinstance(value, list):
            parent[key] = value[: draw(st.integers(0, 2))]
        else:
            parent[key] = draw(st.sampled_from([0, -1, 0.0, -0.5, -(10**400), 1e17, 1e300, -1e300]))
    return doc


def _planar_edited(section, key, value):
    """The planar document with ``doc[section][key]`` set to ``value``."""
    doc = copy.deepcopy(_base_documents()[0])
    doc[section][key] = value
    return doc


def _cube_anchors_edited(edit):
    """The 3-D team's document with ``edit`` applied to its explicit anchor list."""
    doc = copy.deepcopy(_base_documents()[1])
    edit(doc["leader_final"]["positions"])
    return doc


@settings(max_examples=60, deadline=None)
@given(mutated_documents())
@example(_cube_anchors_edited(lambda rows: rows.pop(3)))  # a hull agent left out
@example(_cube_anchors_edited(lambda rows: rows.append({"id": 9, "x": 2.0, "y": 2.0, "z": 2.0})))  # the core
@example(_planar_edited("gains", "k2", 1e300))  # an RK4 map that overflows
@example(_planar_edited("times", "output_period", 1e17))  # an output stride beyond int64
@example(_planar_edited("leader_final", "scale", 1e300))  # anchors beyond the coordinate bound
def test_mutated_documents_parse_or_raise_typed_errors(doc):
    # a dropped key, a value of the wrong type, a zero, negative or huge
    # count, length or value, a duplicated agent id: parsed, or refused with
    # a typed error; what parses serializes, the text parses back to itself,
    # and it runs or ends in a typed error
    try:
        sc = parse_scenario_text(json.dumps(doc))
    except SwarmTransportError:
        return
    text = serialize_scenario(sc)
    assert serialize_scenario(parse_scenario_text(text)) == text
    try:
        run(sc)
    except SwarmTransportError:
        pass
