import numpy as np
import pytest

from conftest import quick_scenario, square_core_formation
from swarm_transport import geometry
from swarm_transport.errors import BadConfig, CoreOnBoundary, CycleDetected, NoCandidate
from swarm_transport.formation import (
    Formation,
    LayeredGraph,
    ancestor_ids,
    build_actual,
    cooperative_ids,
    fan_triangulate,
    graph_records,
    role_map,
    select_core,
    topological_order,
)


class TestFormationBuild:
    def test_boundary_is_hull_cycle(self):
        form = square_core_formation()
        assert form.boundary_ids == (1, 2, 3, 4)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(BadConfig):
            Formation.build([1, 1, 2, 3], [(0, 0), (1, 0), (0, 1), (2, 2)], (0.5, 0.5))

    def test_uncooperative_boundary_rejected(self):
        with pytest.raises(BadConfig):
            square_core_formation(uncooperative=[1])

    def test_declared_boundary_must_match_hull(self):
        with pytest.raises(BadConfig):
            Formation.build(
                [1, 2, 3, 4],
                [(0, 0), (4, 0), (0, 4), (1, 1)],
                (1.0, 1.0),
                declared_boundary=[1, 2, 4],
            )

    def test_interior_agent_on_hull_edge_rejected(self):
        with pytest.raises(BadConfig):
            Formation.build(
                [1, 2, 3, 4], [(0, 0), (4, 0), (0, 4), (2, 0)], (1.0, 1.0)
            )

    def test_declared_core_must_be_interior(self):
        with pytest.raises(BadConfig):
            square_core_formation(core=1)


class TestSelectCore:
    def test_single_interior_agent(self):
        form = square_core_formation()
        assert select_core(form) == 5

    def test_tie_goes_to_smaller_id(self):
        form = square_core_formation(extra=[(1.0, 2.0), (3.0, 2.0)])
        # agents 6 and 7 are both at distance 1 from the target center (2, 2)
        assert select_core(form) == 5  # center agent wins outright
        far = Formation.build(
            [1, 2, 3, 4, 6, 7],
            [(0, 0), (4, 0), (4, 4), (0, 4), (1.0, 2.0), (3.0, 2.0)],
            (2.0, 2.0),
        )
        assert select_core(far) == 6

    def test_uncooperative_excluded(self):
        form = square_core_formation(extra=[(2.5, 2.5)], uncooperative=[5])
        assert select_core(form) == 6

    def test_no_candidate(self):
        form = square_core_formation(uncooperative=[5])
        with pytest.raises(NoCandidate):
            select_core(form)


class TestFanTriangulate:
    def test_square_gives_four_triangles(self):
        form = square_core_formation()
        fan = fan_triangulate(form, 5)
        assert len(fan) == 4
        assert all(s.vertex_ids[2] == 5 for s in fan)

    def test_areas_sum_to_hull_area(self):
        sc = quick_scenario(seed=5, n=30, nb=9)
        form = sc.formation
        core = select_core(form)
        fan = fan_triangulate(form, core)
        hull = np.array([form.position(b) for b in form.boundary_ids])
        total = sum(
            abs(geometry.polygon_area(s.vertex_points)) for s in fan
        )
        assert np.isclose(total, abs(geometry.polygon_area(hull)), rtol=1e-12)

    def test_core_on_boundary_rejected(self):
        form = square_core_formation()
        with pytest.raises(CoreOnBoundary):
            fan_triangulate(form, 1)

    def test_lookalike_initial_simplices(self):
        # 16 hull agents imply 16 fan triangles
        sc = quick_scenario(seed=1, n=95, nb=16)
        graph = build_actual(sc.formation)
        assert len(sc.formation.boundary_ids) == 16
        assert graph.n_initial_simplices == 16

    def test_cube_fan_tetrahedra_cover_volume(self):
        corners = [
            (x, y, z) for x in (0.0, 2.0) for y in (0.0, 2.0) for z in (0.0, 2.0)
        ]
        ids = list(range(1, 9)) + [9]
        pos = corners + [(1.0, 1.0, 1.0)]
        form = Formation.build(ids, pos, (1.0, 1.0, 1.0))
        fan = fan_triangulate(form, 9)
        vol = sum(
            abs(np.linalg.det(geometry.augmented_matrix(s.vertex_points))) / 6.0
            for s in fan
        )
        assert np.isclose(vol, 8.0)


class TestBuildNominal:
    def test_core_only_interior(self):
        form = square_core_formation()
        graph = build_actual(form)
        assert graph.n_layers == 0
        assert graph.layers == (frozenset({1, 2, 3, 4, 5}),)
        assert graph.edges == frozenset()

    def test_single_mentee_forced_structure(self):
        form = square_core_formation(extra=[(2.0, 1.0)])
        graph = build_actual(form)
        assert graph.mentee_ids() == (6,)
        assert graph.mentors[6] == (1, 2, 5)
        assert len(graph.edges) == 3
        assert graph.layer_index[6] == 1

    def test_lookalike_cooperative_count(self):
        sc = quick_scenario(seed=1, n=95, nb=16)
        graph = build_actual(sc.formation)
        assert len(cooperative_ids(sc.formation, graph)) == 78
        assert len(graph.mentee_ids()) == 78


class TestBuildActual:
    def test_hand_traced_six_agent_formation(self):
        # 3 hull agents, core at the target center, one clamped agent inside
        # the first fan triangle, one follower inside the spliced child cell
        form = Formation.build(
            [1, 2, 3, 4, 5, 6],
            [(0, 0), (10, 0), (0, 10), (3, 3), (5, 2), (6, 5 / 3)],
            (3.0, 3.0),
            uncooperative=[5],
        )
        graph = build_actual(form)
        assert graph.core_id == 4
        assert graph.layers[0] == frozenset({1, 2, 3, 4, 5})
        assert graph.layers[1] == frozenset({6})
        assert graph.n_layers == 1
        assert graph.mentors[6] == (5, 2, 4)  # clamped agent serves as mentor
        assert graph.edges == frozenset({(5, 6), (2, 6), (4, 6)})
        assert graph.mentors_of(5) == ()

    def test_no_edges_into_clamped_agents(self):
        sc = quick_scenario(seed=9, n=40, nb=8, uncoop=3)
        graph = build_actual(sc.formation)
        for _, mentee in graph.edges:
            assert mentee not in sc.formation.uncooperative_ids


class TestGraphLaws:
    @pytest.mark.parametrize("seed", range(8))
    def test_generated_formations(self, seed):
        n = 24 + 5 * seed
        uncoop = seed % 3
        sc = quick_scenario(seed=seed, n=n, nb=max(6, n // 5), uncoop=uncoop)
        form = sc.formation
        graph = build_actual(form)
        coop = cooperative_ids(form, graph)

        # partition: every follower is a mentee exactly once
        mentees = [a for layer in graph.layers[1:] for a in layer]
        assert sorted(mentees) == sorted(coop)
        assert len(set(mentees)) == len(mentees)

        # edge-count law in the plane
        assert len(graph.edges) == 3 * len(coop)

        # mentors sit in strictly earlier layers and mentees start inside
        for a in coop:
            mentors = graph.mentors[a]
            assert len(mentors) == 3
            for m in mentors:
                assert graph.layer_index[m] < graph.layer_index[a]
            verts = np.array([form.position(m) for m in mentors])
            w = geometry.barycentric(form.position(a), verts)
            assert float(w.min()) >= -1e-9

        # cumulative layer sets grow strictly
        for l in range(graph.n_layers):
            assert graph.members_through(l) < graph.members_through(l + 1)

    def test_ancestors(self):
        form = square_core_formation(extra=[(2.0, 1.0), (2.0, 0.5)])
        graph = build_actual(form)
        assert ancestor_ids(graph, 6) == frozenset({1, 2, 5})
        deep = ancestor_ids(graph, 7)
        assert 6 in deep or deep == frozenset({1, 2, 5})


def _dfs_is_acyclic(graph: LayeredGraph) -> bool:
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {a: WHITE for a in graph.layer_index}
    out_edges: dict[int, list[int]] = {a: [] for a in graph.layer_index}
    for mentor, mentee in graph.edges:
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

    for a in sorted(color):
        if color[a] == WHITE and not visit(a):
            return False
    return True


class TestTopologicalOrder:
    def test_layer_zero_only(self):
        form = square_core_formation()
        graph = build_actual(form)
        assert topological_order(graph) == [1, 2, 3, 4, 5]

    def test_single_mentee_last(self):
        form = square_core_formation(extra=[(2.0, 1.0)])
        graph = build_actual(form)
        assert topological_order(graph) == [1, 2, 3, 4, 5, 6]

    def test_built_graphs_acyclic_by_dfs(self):
        for seed in range(4):
            sc = quick_scenario(seed=seed, n=30, nb=7, uncoop=seed % 2)
            graph = build_actual(sc.formation)
            order = topological_order(graph)
            assert len(order) == sc.formation.n_agents
            assert _dfs_is_acyclic(graph)

    def test_cycle_detected_on_corrupt_graph(self):
        graph = LayeredGraph(
            core_id=3,
            layers=(frozenset({1, 2, 3}), frozenset({4}), frozenset({5})),
            mentors={4: (1, 2, 5), 5: (1, 2, 4)},
            edges=frozenset({(1, 4), (2, 4), (5, 4), (1, 5), (2, 5), (4, 5)}),
            layer_index={1: 0, 2: 0, 3: 0, 4: 1, 5: 2},
            n_initial_simplices=3,
        )
        with pytest.raises(CycleDetected):
            topological_order(graph)


class TestExports:
    def test_graph_records_format(self):
        form = square_core_formation(extra=[(2.0, 1.0)])
        graph = build_actual(form)
        dump = graph_records(form, graph)
        lines = dump.strip().splitlines()
        assert lines[0].startswith("#")
        assert len(lines) == 1 + form.n_agents
        assert lines[-1] == "6\t1\tcooperative\t1,2,5"

    def test_role_map(self):
        form = square_core_formation(extra=[(2.0, 1.0), (1.5, 2.5)], uncooperative=[7])
        graph = build_actual(form)
        roles = role_map(form, graph)
        assert roles[1] == "boundary"
        assert roles[5] == "core"
        assert roles[6] == "cooperative"
        assert roles[7] == "uncooperative"
