import numpy as np
import pytest

from conftest import hull_anchors, quick_scenario, square_core_formation
from swarm_transport import geometry
from swarm_transport.errors import BadConfig, DegenerateMentorSimplex
from swarm_transport.formation import Formation, build_actual
from swarm_transport.targets import (
    TargetSet,
    compute_desired,
    equal_arclength_points,
    leader_final_positions,
)


def _square_zone(half=1.0, center=(0.0, 0.0)):
    cx, cy = center
    return np.array(
        [(cx - half, cy - half), (cx + half, cy - half), (cx + half, cy + half), (cx - half, cy + half)]
    )


class TestZone:
    def test_zone_polygon_normalized_ccw(self):
        ts = TargetSet(samples=np.empty((0, 2)), zone=_square_zone()[::-1])
        assert geometry.polygon_area(ts.zone_polygon) > 0

    def test_zone_from_sample_hull(self):
        samples = np.array([(0, 0), (2, 0), (2, 2), (0, 2), (1, 1)], dtype=float)
        ts = TargetSet(samples=samples)
        assert len(ts.zone_polygon) == 4

    def test_center_is_computed_once_and_read_only(self, monkeypatch):
        from swarm_transport import engine, targets

        calls = []
        zone_center = targets.zone_center
        monkeypatch.setattr(targets, "zone_center", lambda zone: calls.append(1) or zone_center(zone))
        sc = quick_scenario(seed=1, n=40, nb=10, uncoop=2)  # validation reads the center too
        engine.make_plan(sc)
        assert len(calls) == 1
        assert sc.targets.center is sc.targets.center
        assert np.array_equal(sc.targets.center, zone_center(sc.targets.zone_polygon))
        with pytest.raises(ValueError):
            sc.targets.center[0] = 0.0

    def test_no_zone_no_samples_raises(self):
        ts = TargetSet(samples=np.empty((0, 2)))
        with pytest.raises(BadConfig):
            ts.zone_polygon


class TestLeaderPlacement:
    def test_square_zone_four_leaders_factor_one(self):
        form = square_core_formation()
        zone = _square_zone(half=1.0, center=(2.0, 2.0))
        out = leader_final_positions(
            form, TargetSet(samples=np.empty((0, 2)), zone=zone), scale=1.0
        )
        assert out.shape == (4, 2)
        assert np.allclose(out, zone, atol=1e-12)

    def test_circle_zone_eight_leaders(self):
        # regular 360-gon standing in for a circle; 8 anchors land 45 deg apart
        # at radius 1.1 (closed-form arc-length placement)
        ang = np.linspace(0, 2 * np.pi, 360, endpoint=False)
        zone = np.column_stack([np.cos(ang), np.sin(ang)])
        ids = list(range(1, 9)) + [9]
        pos = [
            (10 * np.cos(a), 10 * np.sin(a))
            for a in np.linspace(0, 2 * np.pi, 8, endpoint=False)
        ] + [(0.1, 0.0)]
        form = Formation.build(ids, pos)
        out = leader_final_positions(
            form, TargetSet(samples=np.empty((0, 2)), zone=zone), scale=1.1
        )
        assert form.boundary.tolist() == list(range(8))
        for k in range(8):
            expected = 1.1 * np.array(
                [np.cos(2 * np.pi * k / 8), np.sin(2 * np.pi * k / 8)]
            )
            assert np.allclose(out[k], expected, atol=1e-9)

    def test_equal_arclength_spacing(self):
        zone = _square_zone(half=2.0)
        pts = equal_arclength_points(zone, 16)
        gaps = np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1)
        assert np.allclose(gaps, gaps[0], atol=1e-9)


class TestComputeDesired:
    # square_core_formation rows: 0-3 hull corners, 4 the core, 5 the follower (agent 6)
    def _plan(self, samples, extra=((2.0, 1.0),)):
        form = square_core_formation(extra=extra)
        graph = build_actual(form, (2.0, 2.0))
        ring = {1: (-1.0, -1.0), 2: (5.0, -1.0), 3: (5.0, 5.0), 4: (-1.0, 5.0)}
        leader_p = hull_anchors(form, ring)
        targets = TargetSet(samples=np.asarray(samples, dtype=float), zone=_square_zone(3.0, (2.0, 2.0)))
        return form, graph, targets, leader_p

    def test_single_sample_capture(self):
        form, graph, targets, leader_p = self._plan([(2.0, 0.5)])
        desired = compute_desired(graph, form, targets, leader_p)
        assert np.allclose(desired.p[5], [2.0, 0.5])
        assert desired.captured == {5: (0,)}

    def test_two_point_mean(self):
        form, graph, targets, leader_p = self._plan([(0.0, 0.0), (2.0, 0.0)])
        desired = compute_desired(graph, form, targets, leader_p)
        assert np.allclose(desired.p[5], [1.0, 0.0])

    def test_grid_mean_against_bruteforce_oracle(self):
        xs = np.linspace(-0.5, 4.5, 10)
        ys = np.linspace(-0.5, 4.5, 10)
        grid = np.array([(x, y) for x in xs for y in ys])
        form, graph, targets, leader_p = self._plan(grid)
        desired = compute_desired(graph, form, targets, leader_p)

        tri = desired.p[graph.mentors[0]]

        def oracle_inside(p):
            ref = (tri[1, 0] - tri[0, 0]) * (tri[2, 1] - tri[0, 1]) - (
                tri[1, 1] - tri[0, 1]
            ) * (tri[2, 0] - tri[0, 0])
            sign = 1.0 if ref > 0 else -1.0
            for k in range(3):
                a, b = tri[k], tri[(k + 1) % 3]
                c = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
                if sign * c < -1e-9 * abs(ref):
                    return False
            return True

        chosen = np.array([p for p in grid if oracle_inside(p)])
        assert len(chosen) == len(desired.captured[5])
        assert np.allclose(desired.p[5], chosen.mean(axis=0), atol=1e-12)

    def test_core_and_clamped_hold_initial_positions(self):
        form = square_core_formation(extra=[(2.0, 1.0), (1.0, 2.8)], uncooperative=[7])
        graph = build_actual(form, (2.0, 2.0))
        targets = TargetSet(samples=np.array([[2.0, 2.0]]), zone=_square_zone(3.0, (2.0, 2.0)))
        ring = {1: (-1.0, -1.0), 2: (5.0, -1.0), 3: (5.0, 5.0), 4: (-1.0, 5.0)}
        desired = compute_desired(graph, form, targets, hull_anchors(form, ring))
        assert form.clamped.tolist() == [6]
        assert np.array_equal(desired.p[4], form.positions[4])  # the core
        assert np.array_equal(desired.p[6], form.positions[6])  # clamped agent 7

    def test_empty_capture_falls_back_to_centroid(self):
        form, graph, targets, leader_p = self._plan([(3.9, 3.9)])
        desired = compute_desired(graph, form, targets, leader_p)
        centroid = np.mean(desired.p[graph.mentors[0]], axis=0)
        assert desired.fallback_ids == (5,)
        assert np.allclose(desired.p[5], centroid)
        assert desired.captured[5] == ()

    def test_uncovered_samples_reported(self):
        form, graph, targets, leader_p = self._plan([(3.9, 3.9)])
        desired = compute_desired(graph, form, targets, leader_p)
        assert desired.uncovered_samples(len(targets.samples)) == (0,)

    def test_sample_order_independence(self):
        rng = np.random.default_rng(2)
        samples = rng.uniform(0.0, 4.0, (60, 2))
        form, graph, targets, leader_p = self._plan(samples)
        desired = compute_desired(graph, form, targets, leader_p)
        perm = rng.permutation(len(samples))
        targets2 = TargetSet(samples=samples[perm], zone=targets.zone)
        desired2 = compute_desired(graph, form, targets2, leader_p)
        assert np.allclose(desired.p, desired2.p, atol=1e-12)

    def test_mean_stays_inside_final_simplex(self):
        sc = quick_scenario(seed=6, n=32, nb=8)
        graph = build_actual(sc.formation, sc.targets.center)
        leader_p = leader_final_positions(sc.formation, sc.targets, scale=1.1)
        desired = compute_desired(graph, sc.formation, sc.targets, leader_p)
        for a, mentors in zip(graph.mentees, graph.mentors):
            w = geometry.barycentric(desired.p[a], desired.p[mentors])
            assert float(w.min()) >= -1e-9

    def test_degenerate_mentor_simplex_names_agent(self):
        form = square_core_formation(extra=[(2.0, 1.0)])
        graph = build_actual(form, (2.0, 2.0))
        # anchors for the mentee's mentor triple (1, 2, core) sit on one line
        ring = {1: (0.0, 0.0), 2: (1.0, 1.0), 3: (5.0, 5.0), 4: (-1.0, 5.0)}
        targets = TargetSet(samples=np.array([[2.0, 2.0]]), zone=_square_zone(3.0, (2.0, 2.0)))
        with pytest.raises(DegenerateMentorSimplex, match="agent 6"):
            compute_desired(graph, form, targets, hull_anchors(form, ring))

    def test_tetrahedron_capture_in_3d(self):
        corners = [
            (x, y, z) for x in (0.0, 4.0) for y in (0.0, 4.0) for z in (0.0, 4.0)
        ]
        ids = list(range(1, 9)) + [9, 10]
        pos = corners + [(2.0, 2.0, 2.0), (1.0, 1.0, 1.0)]
        form = Formation.build(ids, pos)
        graph = build_actual(form, (2.0, 2.0, 2.0))
        explicit = {b: form.positions[b - 1] for b in range(1, 9)}
        samples = np.array([[1.5, 1.2, 1.0]])
        targets = TargetSet(samples=samples, zone=np.array(corners))
        desired = compute_desired(graph, form, targets, hull_anchors(form, explicit))
        assert graph.mentees.tolist() == [9]  # agent 10
        w = geometry.barycentric(desired.p[9], desired.p[graph.mentors[0]])
        assert float(w.min()) >= -1e-9
