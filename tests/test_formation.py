import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import ancestors, manual_scenario, quick_scenario, square_core_formation
from oracles import (
    augmented_matrix,
    cellwise_build_actual,
    cellwise_compute_desired,
    cellwise_endpoint_weights,
    stepwise_integrate,
)
from swarm_transport import engine, geometry
from swarm_transport.errors import (
    BadConfig,
    CoreOnBoundary,
    CycleDetected,
    NoCandidate,
    SwarmTransportError,
)
from swarm_transport.formation import (
    Formation,
    LayeredGraph,
    agent_roles,
    build_actual,
    fan_triangulate,
    graph_records,
    select_core,
)
from swarm_transport.targets import TargetSet, compute_desired
from swarm_transport.weights import _endpoint_weights

# square_core_formation: ids 1-4 (rows 0-3) are the hull corners, id 5 (row 4)
# the center, extra agents follow as ids 6, 7, ... (rows 5, 6, ...)


class TestFormationBuild:
    def test_boundary_is_hull_cycle(self):
        form = square_core_formation()
        assert form.boundary.tolist() == [0, 1, 2, 3]

    def test_duplicate_ids_rejected(self):
        with pytest.raises(BadConfig):
            Formation.build([1, 1, 2, 3], [(0, 0), (1, 0), (0, 1), (2, 2)])

    def test_uncooperative_boundary_rejected(self):
        with pytest.raises(BadConfig):
            square_core_formation(uncooperative=[1])

    def test_declared_boundary_must_match_hull(self):
        with pytest.raises(BadConfig):
            Formation.build(
                [1, 2, 3, 4],
                [(0, 0), (4, 0), (0, 4), (1, 1)],
                declared_boundary=[1, 2, 4],
            )

    def test_interior_agent_on_hull_edge_rejected(self):
        with pytest.raises(BadConfig):
            Formation.build(
                [1, 2, 3, 4], [(0, 0), (4, 0), (0, 4), (2, 0)]
            )

    def test_declared_core_must_be_interior(self):
        with pytest.raises(BadConfig):
            square_core_formation(core=1)


class TestSelectCore:
    def test_single_interior_agent(self):
        form = square_core_formation()
        assert select_core(form, (2.0, 2.0)) == 4

    def test_tie_goes_to_smaller_id(self):
        form = square_core_formation(extra=[(1.0, 2.0), (3.0, 2.0)])
        # agents 6 and 7 are both at distance 1 from the target center (2, 2)
        assert select_core(form, (2.0, 2.0)) == 4  # center agent wins outright
        far = Formation.build(
            [1, 2, 3, 4, 6, 7],
            [(0, 0), (4, 0), (4, 4), (0, 4), (1.0, 2.0), (3.0, 2.0)],
        )
        assert far.ids[select_core(far, (2.0, 2.0))] == 6

    def test_uncooperative_excluded(self):
        form = square_core_formation(extra=[(2.5, 2.5)], uncooperative=[5])
        assert form.clamped.tolist() == [4]
        assert form.ids[select_core(form, (2.0, 2.0))] == 6

    def test_no_candidate(self):
        form = square_core_formation(uncooperative=[5])
        with pytest.raises(NoCandidate):
            select_core(form, (2.0, 2.0))


class TestFanTriangulate:
    def test_square_gives_four_triangles(self):
        form = square_core_formation()
        fan = fan_triangulate(form, 4)
        assert fan.shape == (4, 3) and fan.dtype == np.intp
        assert all(fan[:, 2] == 4)

    def test_areas_sum_to_hull_area(self):
        sc = quick_scenario(seed=5, n=30, nb=9)
        form = sc.formation
        core = select_core(form, sc.targets.center)
        fan = fan_triangulate(form, core)
        hull = form.positions[form.boundary]
        total = sum(
            abs(geometry.polygon_area(form.positions[rows])) for rows in fan
        )
        assert np.isclose(total, abs(geometry.polygon_area(hull)), rtol=1e-12)

    def test_core_on_boundary_rejected(self):
        form = square_core_formation()
        with pytest.raises(CoreOnBoundary):
            fan_triangulate(form, 0)

    def test_lookalike_initial_simplices(self):
        # 16 hull agents imply 16 fan triangles
        sc = quick_scenario(seed=1, n=95, nb=16)
        graph = build_actual(sc.formation, sc.targets.center)
        assert len(sc.formation.boundary) == 16
        assert graph.n_initial_simplices == 16

    def test_cube_fan_tetrahedra_cover_volume(self):
        corners = [
            (x, y, z) for x in (0.0, 2.0) for y in (0.0, 2.0) for z in (0.0, 2.0)
        ]
        ids = list(range(1, 9)) + [9]
        pos = corners + [(1.0, 1.0, 1.0)]
        form = Formation.build(ids, pos)
        fan = fan_triangulate(form, 8)
        vol = sum(
            abs(np.linalg.det(augmented_matrix(form.positions[rows]))) / 6.0
            for rows in fan
        )
        assert np.isclose(vol, 8.0)


class TestBuildNominal:
    def test_core_only_interior(self):
        form = square_core_formation()
        graph = build_actual(form, (2.0, 2.0))
        assert graph.n_layers == 0
        assert graph.layer.tolist() == [0, 0, 0, 0, 0]
        assert graph.mentees.shape == (0,)
        assert graph.mentors.shape == (0, 3)

    def test_single_mentee_forced_structure(self):
        form = square_core_formation(extra=[(2.0, 1.0)])
        graph = build_actual(form, (2.0, 2.0))
        assert graph.mentees.tolist() == [5]
        assert graph.mentors.tolist() == [[0, 1, 4]]  # agents 1, 2 and the core 5
        assert graph.layer[5] == 1

    def test_lookalike_cooperative_count(self):
        sc = quick_scenario(seed=1, n=95, nb=16)
        graph = build_actual(sc.formation, sc.targets.center)
        assert np.count_nonzero(graph.roles == "cooperative") == 78
        assert len(graph.mentees) == 78


class TestBuildActual:
    def test_hand_traced_six_agent_formation(self):
        # 3 hull agents, core at the target center, one clamped agent inside
        # the first fan triangle, one follower inside the spliced child cell
        form = Formation.build(
            [1, 2, 3, 4, 5, 6],
            [(0, 0), (10, 0), (0, 10), (3, 3), (5, 2), (6, 5 / 3)],
            uncooperative=[5],
        )
        graph = build_actual(form, (3.0, 3.0))
        assert graph.core == 3  # agent 4
        assert graph.layer.tolist() == [0, 0, 0, 0, 0, 1]
        assert graph.n_layers == 1
        assert graph.mentees.tolist() == [5]
        assert graph.mentors.tolist() == [[4, 1, 3]]  # clamped agent 5 serves as mentor
        assert 4 not in graph.mentees.tolist()

    @pytest.mark.parametrize(
        "last, mentors",
        [((3.106559884909243, 3.292116615091471), [2, 3, 4]), ((2.6497437373089596, 2.7118366438154355), [2, 3, 4])],
    )
    def test_last_free_agent_is_tested_alone(self, last, mentors):
        # The last agent sits -1.0000002e-09 outside the second fan cell, just
        # past the tolerance: the second point one ulp greater in x is inside.
        # One cell at a time, it is tested alone once the first cell has
        # adopted the other agent; the batched search, which scores it with
        # the other agent, must decide the same.
        hull = [(0.1, -0.3), (4.2, 0.15), (3.9, 4.3), (-0.2, 3.8)]
        pts = hull + [(2.05, 1.95), (2.1166666666666667, 0.6), last]
        form = Formation.build(range(1, 8), pts, core_id=5)
        graph = build_actual(form, (2.05, 1.95))
        assert graph.mentors.tolist() == [[0, 1, 4], mentors]
        assert cellwise_build_actual(form, (2.05, 1.95)).mentors.tolist() == graph.mentors.tolist()

    def test_flat_fan_cell_is_dropped(self):
        # the sliver hull facet of agents 10-12 makes fan cell 17 (from 0)
        # flat; it is dropped as a collapsed child is, and planning goes on
        form = Formation.build(range(1, 17), SLIVER_CUBE, core_id=9)
        cells = fan_triangulate(form, 8)
        assert len(cells) == 18 and np.flatnonzero(geometry.degenerate(form.positions[cells])).tolist() == [17]
        graph = build_actual(form, (2.0, 2.0, 2.0))
        assert graph.n_initial_simplices == 18
        assert sorted(graph.mentees.tolist()) == [12, 13, 14, 15]  # ids 13-16
        want = cellwise_build_actual(form, (2.0, 2.0, 2.0))
        for name in ("layer", "mentees", "mentors"):
            assert getattr(graph, name).tobytes() == getattr(want, name).tobytes()
        leaders = {form.ids[b]: 2.0 + 0.5 * (form.positions[b] - 2.0) for b in form.boundary}
        assert engine.run(manual_scenario(form, SLIVER_SAMPLES, leader_positions=leaders)).rate == 1.0

    def test_no_edges_into_clamped_agents(self):
        sc = quick_scenario(seed=9, n=40, nb=8, uncoop=3)
        graph = build_actual(sc.formation, sc.targets.center)
        assert len(sc.formation.clamped) == 3
        assert not np.isin(graph.mentees, sc.formation.clamped).any()


class TestGraphLaws:
    @pytest.mark.parametrize("seed", range(8))
    def test_generated_formations(self, seed):
        n = 24 + 5 * seed
        uncoop = seed % 3
        sc = quick_scenario(seed=seed, n=n, nb=max(6, n // 5), uncoop=uncoop)
        form = sc.formation
        graph = build_actual(form, sc.targets.center)
        coop = np.flatnonzero(graph.roles == "cooperative")

        # partition: every follower is a mentee exactly once
        assert sorted(graph.mentees.tolist()) == coop.tolist()

        # edge-count law in the plane: three distinct mentors per follower
        assert graph.mentors.shape == (len(coop), 3)
        assert all(len(set(ms)) == 3 for ms in graph.mentors.tolist())

        # mentors sit in strictly earlier layers and mentees start inside
        assert np.all(graph.layer[graph.mentors] < graph.layer[graph.mentees][:, None])
        for a, mentors in zip(graph.mentees, graph.mentors):
            w = geometry.barycentric(form.positions[a], form.positions[mentors])
            assert float(w.min()) >= -1e-9

        # cumulative layer sets grow strictly: no layer is empty
        assert set(graph.layer.tolist()) == set(range(graph.n_layers + 1))

    def test_ancestors(self):
        form = square_core_formation(extra=[(2.0, 1.0), (2.0, 0.5)])
        graph = build_actual(form, (2.0, 2.0))
        assert ancestors(graph, 5) == frozenset({0, 1, 4})
        deep = ancestors(graph, 6)
        assert 5 in deep or deep == frozenset({0, 1, 4})


@st.composite
def planar_team(draw):
    """Ids shuffled over a jittered-circle hull of radius 10, uniform agents
    in the disc of radius 3.5 (inside every such hull) and 0-2 clamped ones."""
    nb = draw(st.integers(4, 9))
    jitter = np.array(draw(st.lists(st.floats(-0.25, 0.25), min_size=nb, max_size=nb)))
    angles = (np.arange(nb) + jitter) * 2.0 * np.pi / nb
    n_in = draw(st.integers(1, 24))
    radius = 3.5 * np.sqrt(draw(st.lists(st.floats(0.0, 1.0), min_size=n_in, max_size=n_in)))
    theta = np.array(draw(st.lists(st.floats(0.0, 2.0 * np.pi), min_size=n_in, max_size=n_in)))
    pts = np.vstack([
        10.0 * np.column_stack([np.cos(angles), np.sin(angles)]),
        radius[:, None] * np.column_stack([np.cos(theta), np.sin(theta)]),
    ])
    ids = draw(st.permutations(range(1, nb + n_in + 1)))
    clamped = draw(st.lists(st.sampled_from(ids[nb:]), max_size=2, unique=True))
    return ids, pts, clamped


# cube corners 4*{0,1}^3 (ids 1-8), the core (id 9) at the center, hull
# agents 10-12 on a sliver facet near the cube edge y = 0, z = 4, and four
# interior agents
SLIVER_CUBE = np.vstack([
    4.0 * np.array(list(np.ndindex(2, 2, 2)), dtype=float),
    [(2.0, 2.0, 2.0), (0.55, -1e-11, 4.0 + 1e-10), (0.34, -1e-11, 4.0 + 1e-10), (2.76, -1e-12, 4.0 + 1e-10)],
    [(3.325, 2.487, 2.109), (3.242, 1.398, 2.769), (2.88, 2.138, 1.096), (1.491, 2.612, 1.808)],
])
SLIVER_SAMPLES = 1.0 + 0.5 * np.array(list(np.ndindex(5, 5, 5)), dtype=float)  # lattice on [1, 3]^3


def _lattice_team(dim, halves):
    """Corners 4*{0,1}^dim, the core at the center and agents at the given
    half-unit lattice points, with the half-unit lattice on [0, 4]^dim as
    samples: many sit on faces that final simplices share."""
    corners = 4.0 * np.array(list(np.ndindex(*(2,) * dim)), dtype=float)
    pts = np.vstack([corners, [np.full(dim, 2.0)], 0.5 * np.array(halves, dtype=float)])
    return pts, 0.5 * np.array(list(np.ndindex(*(9,) * dim)), dtype=float)


# four mentee layers, so the planner's candidates pass through three
# generations of cells; in some layer an agent on the face of two cells is
# adopted by one and leaves the other with nothing. The cube's id 10 is clamped.
DEEP_SQUARE, DEEP_SQUARE_SAMPLES = _lattice_team(2, [
    (4, 5), (4, 2), (6, 1), (7, 4), (7, 6), (2, 1), (5, 6), (3, 2), (5, 1), (7, 2), (6, 7), (1, 6), (6, 4), (4, 6),
    (6, 6), (6, 2), (7, 5), (3, 7), (7, 7), (6, 5), (1, 5), (3, 5), (1, 2), (2, 6), (3, 6), (3, 3), (7, 1), (2, 4),
    (1, 1), (7, 3),
])
DEEP_CUBE, DEEP_CUBE_SAMPLES = _lattice_team(3, [
    (6, 3, 7), (2, 3, 1), (4, 6, 7), (7, 1, 3), (5, 4, 3), (4, 5, 2), (2, 1, 5), (3, 5, 2), (3, 3, 1), (4, 1, 3),
    (5, 6, 6), (2, 6, 3), (1, 7, 1), (3, 4, 2), (2, 7, 3), (1, 5, 6), (3, 3, 3), (2, 3, 2), (7, 7, 4), (7, 7, 1),
])

# clamped agents on a face that two open cells share (the square's ids 6 and
# 7 on the diagonal through the core, the cube's ids 10 and 11 on the plane
# y = z through the edge y = z = 0 and the core): each goes to the first of
# them in cell order
SHARED_SQUARE, SHARED_SQUARE_SAMPLES = _lattice_team(2, [(2, 2), (3, 3), (6, 3), (3, 6), (1, 4), (5, 5), (2, 1)])
SHARED_CUBE, SHARED_CUBE_SAMPLES = _lattice_team(3, [(4, 1, 1), (4, 2, 2), (6, 2, 4), (2, 6, 3), (5, 5, 6), (3, 1, 2)])

# 10-agent squares: corners, the core at the center and five more agents,
# two of them at one point on a fan edge, or three on one line
SQUARE_CORNERS = [(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0), (2.0, 2.0)]
COINCIDENT_SQUARE = SQUARE_CORNERS + [(1.0, 1.0), (1.0, 1.0), (3.0, 1.0), (3.0, 3.0), (1.0, 3.0)]
COLLINEAR_SQUARE = SQUARE_CORNERS + [(1.0, 1.0), (2.0, 1.0), (3.0, 1.0), (1.0, 3.0), (3.0, 3.0)]


@settings(max_examples=100, deadline=None)
@given(planar_team())
@example((list(range(1, 11)), np.array(COINCIDENT_SQUARE), []))
@example((list(range(1, 11)), np.array(COINCIDENT_SQUARE), [9]))
@example((list(range(1, 11)), np.array(COLLINEAR_SQUARE), []))
@example((list(range(1, 11)), np.array(COLLINEAR_SQUARE), [7]))
def test_graph_arrays_obey_the_laws(team):
    ids, pts, clamped = team
    try:
        form = Formation.build(ids, pts, uncooperative=clamped)
        graph = build_actual(form, (0.0, 0.0))
    except SwarmTransportError:
        return  # a typed refusal is an allowed outcome
    sources = np.zeros(form.n_agents, dtype=bool)
    sources[form.boundary] = sources[form.clamped] = sources[graph.core] = True
    # hull, core and clamped rows, and only they, sit in layer 0 and have no mentors
    assert graph.layer.shape == (form.n_agents,)
    assert np.array_equal(graph.layer == 0, sources)
    # every other row is a mentee exactly once
    assert sorted(graph.mentees.tolist()) == np.flatnonzero(~sources).tolist()
    # with n+1 distinct mentors in strictly earlier layers
    assert graph.mentors.shape == (len(graph.mentees), 3)
    assert all(len(set(ms)) == 3 for ms in graph.mentors.tolist())
    assert np.all(graph.layer[graph.mentors] < graph.layer[graph.mentees][:, None])
    assert graph.roles[graph.core] == "core"


@pytest.mark.parametrize("extra", [COINCIDENT_SQUARE[5:], COLLINEAR_SQUARE[5:]])
@pytest.mark.parametrize("clamped", [(), (8,)])
def test_closed_loop_on_coincident_and_collinear_agents(extra, clamped):
    # two cells want the same agent when it sits on their shared face
    form = square_core_formation(extra=extra, uncooperative=clamped)
    graph = build_actual(form, (2.0, 2.0))
    assert sorted(graph.mentees.tolist()) == sorted(set(range(5, 10)) - {k - 1 for k in clamped})
    samples = [(x, y) for x in np.linspace(1.0, 3.0, 9) for y in np.linspace(1.0, 3.0, 9)]
    sc = manual_scenario(form, samples, zone=[(1.0, 1.0), (3.0, 1.0), (3.0, 3.0), (1.0, 3.0)])
    sc = dataclasses.replace(sc, dt=0.04, t_end=6.0, tf=4.0, output_period=0.2)
    plan = engine.make_plan(sc)
    got, want = engine._integrate(plan), stepwise_integrate(plan)
    assert np.max(np.abs(got.positions - want.positions)) <= 1e-12
    assert np.max(np.abs(got.desired - want.desired)) <= 1e-12
    assert np.array_equal(got.converged, want.converged)


@st.composite
def planner_case(draw):
    """A 2-D square or 3-D cube hull with the core at its center, interior
    agents on a half-unit lattice (so they coincide, line up and sit on
    faces) or anywhere, 0-2 clamped, and target samples on a quarter-unit
    lattice or anywhere in a smaller box that the anchors are sent to."""
    dim = draw(st.sampled_from([2, 3]))
    corners = 4.0 * np.array(list(np.ndindex(*(2,) * dim)), dtype=float)
    center = np.full(dim, 2.0)
    lattice = st.tuples(*[st.integers(1, 7)] * dim).map(lambda k: 0.5 * np.array(k, dtype=float))
    anywhere = st.tuples(*[st.floats(0.1, 3.9)] * dim).map(np.array)
    interior = draw(st.lists(st.one_of(lattice, anywhere), min_size=1, max_size=14 if dim == 2 else 10))
    pts = np.vstack([corners, [center], interior])
    ids = list(range(1, len(pts) + 1))
    clamped = draw(st.lists(st.sampled_from(ids[len(corners) + 1 :]), max_size=2, unique=True))
    scale = draw(st.sampled_from([0.25, 0.5, 1.0]))
    s_lattice = st.tuples(*[st.integers(0, 8)] * dim).map(lambda k: center + scale * (np.array(k) / 4.0 - 1.0) * 2.0)
    s_anywhere = st.tuples(*[st.floats(-1.0, 1.0)] * dim).map(lambda u: center + scale * 2.0 * np.array(u))
    samples = draw(st.lists(st.one_of(s_lattice, s_anywhere), max_size=40))
    return ids, pts, clamped, np.array(samples).reshape(-1, dim), scale


def _plan_stages(build, desire, weigh, form, samples, leader_p):
    """Graph, final positions and both weight arrays (omega first, as in
    ``build_schedule``), or the error's type and message."""
    try:
        graph = build(form, (2.0,) * form.dim)
        desired = desire(graph, form, TargetSet(samples=samples), leader_p)
        omega = weigh(graph, form.ids, form.positions)
        varpi = weigh(graph, form.ids, desired.p)
    except SwarmTransportError as exc:
        return type(exc), str(exc)
    return graph, desired, omega, varpi


@settings(max_examples=80, deadline=None)
@given(planner_case())
@example((list(range(1, 17)), SLIVER_CUBE, [], SLIVER_SAMPLES, 0.5))  # a flat fan cell; random draws make none
@example((list(range(1, 36)), DEEP_SQUARE, [], DEEP_SQUARE_SAMPLES, 1.0))
@example((list(range(1, 30)), DEEP_CUBE, [10], DEEP_CUBE_SAMPLES, 1.0))
@example((list(range(1, 13)), SHARED_SQUARE, [6, 7], SHARED_SQUARE_SAMPLES, 1.0))
@example((list(range(1, 16)), SHARED_CUBE, [10, 11], SHARED_CUBE_SAMPLES, 0.5))
def test_planner_matches_cellwise_oracle(case):
    ids, pts, clamped, samples, scale = case
    try:
        form = Formation.build(ids, pts, uncooperative=clamped, core_id=2 ** pts.shape[1] + 1)
    except SwarmTransportError:
        return
    leader_p = 2.0 + scale * (form.positions[form.boundary] - 2.0)
    got = _plan_stages(build_actual, compute_desired, _endpoint_weights, form, samples, leader_p)
    want = _plan_stages(
        cellwise_build_actual, cellwise_compute_desired, cellwise_endpoint_weights, form, samples, leader_p
    )
    if isinstance(want[0], type) or isinstance(got[0], type):
        assert got == want
        return
    (graph, desired, omega, varpi), (g0, d0, omega0, varpi0) = got, want
    for name in ("layer", "mentees", "mentors"):
        a, b = getattr(graph, name), getattr(g0, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    assert graph.core == g0.core and graph.roles.tolist() == g0.roles.tolist()
    assert graph.n_initial_simplices == g0.n_initial_simplices
    assert desired.p.tobytes() == d0.p.tobytes()
    assert desired.captured == d0.captured and desired.fallback_ids == d0.fallback_ids
    assert omega.tobytes() == omega0.tobytes() and varpi.tobytes() == varpi0.tobytes()


def _dfs_is_acyclic(graph: LayeredGraph) -> bool:
    WHITE, GRAY, BLACK = 0, 1, 2
    color = [WHITE] * len(graph.layer)
    out_edges: list[list[int]] = [[] for _ in color]
    for mentee, mentors in zip(graph.mentees.tolist(), graph.mentors.tolist()):
        for mentor in mentors:
            out_edges[mentor].append(mentee)

    def visit(a):
        color[a] = GRAY
        for b in out_edges[a]:
            if color[b] == GRAY:
                return False
            if color[b] == WHITE and not visit(b):
                return False
        color[a] = BLACK
        return True

    for a in range(len(color)):
        if color[a] == WHITE and not visit(a):
            return False
    return True


class TestTopologicalOrder:
    def test_layer_zero_only(self):
        form = square_core_formation()
        graph = build_actual(form, (2.0, 2.0))
        assert graph.mentees.tolist() == []
        assert graph.layer.tolist() == [0] * 5

    def test_single_mentee_last(self):
        form = square_core_formation(extra=[(2.0, 1.0)])
        graph = build_actual(form, (2.0, 2.0))
        assert graph.mentees.tolist() == [5]
        assert graph.layer.tolist() == [0, 0, 0, 0, 0, 1]

    def test_built_graphs_acyclic_by_dfs(self):
        for seed in range(4):
            sc = quick_scenario(seed=seed, n=30, nb=7, uncoop=seed % 2)
            graph = build_actual(sc.formation, sc.targets.center)
            keys = list(zip(graph.layer[graph.mentees].tolist(), graph.mentees.tolist()))
            assert keys == sorted(keys)  # mentees in (layer, row) order
            assert len(graph.layer) == sc.formation.n_agents
            assert _dfs_is_acyclic(graph)

    def test_cycle_detected_on_corrupt_graph(self):
        # rows 3 and 4 mentor each other
        with pytest.raises(CycleDetected):
            LayeredGraph(
                core=2,
                layer=np.array([0, 0, 0, 1, 2]),
                roles=np.array(["boundary"] * 2 + ["core"] + ["cooperative"] * 2, dtype=object),
                mentees=np.array([3, 4]),
                mentors=np.array([[0, 1, 4], [0, 1, 3]]),
                n_initial_simplices=3,
            )


class TestExports:
    def test_graph_records_format(self):
        form = square_core_formation(extra=[(2.0, 1.0)])
        graph = build_actual(form, (2.0, 2.0))
        dump = graph_records(form, graph)
        lines = dump.strip().splitlines()
        assert lines[0].startswith("#")
        assert len(lines) == 1 + form.n_agents
        assert lines[-1] == "6\t1\tcooperative\t1,2,5"

    def test_role_map(self):
        form = square_core_formation(extra=[(2.0, 1.0), (1.5, 2.5)], uncooperative=[7])
        graph = build_actual(form, (2.0, 2.0))
        roles = ["boundary"] * 4 + ["core", "cooperative", "uncooperative"]
        assert graph.roles.tolist() == roles
        # without a core (none declared) the center agent is a plain cooperative
        assert agent_roles(form, None).tolist() == roles[:4] + ["cooperative"] + roles[5:]
