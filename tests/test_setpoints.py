import numpy as np
import pytest

from conftest import final_positions, quick_scenario, square_core_formation
from swarm_transport.engine import make_plan
from swarm_transport.errors import SingularFollowerBlock
from swarm_transport.formation import build_actual
from swarm_transport.setpoints import (
    build_comm_matrix,
    propagate_setpoints,
    setpoint_residual,
    solve_setpoints_dense,
)
from swarm_transport.targets import DesiredPositions
from swarm_transport.weights import WeightSchedule, build_schedule, weights_at


def _plan(seed=0, n=26, nb=7, uncoop=0):
    return make_plan(quick_scenario(seed=seed, n=n, nb=nb, uncoop=uncoop))


def _static_schedule(graph, form):
    """Schedule whose final weights equal the initial ones."""
    held = DesiredPositions(p={a: form.position(a) for a in form.ids}, captured={}, fallback_ids=())
    return build_schedule(graph, form, held, 0.0, 1.0)


class TestCommMatrix:
    def test_no_followers_gives_negative_identity(self):
        form = square_core_formation()
        sched = _static_schedule(build_actual(form), form)
        comm = build_comm_matrix(sched, form.n_agents, 0.5)
        assert np.array_equal(comm.toarray(), -np.eye(5))

    def test_single_mentee_row_placement(self):
        # mentee placed at barycentric (0.2, 0.3, 0.5) of its mentors
        form = square_core_formation()
        mentor_pts = np.array(
            [form.position(1), form.position(2), form.position(5)]
        )
        spot = np.array([0.2, 0.3, 0.5]) @ mentor_pts
        form = square_core_formation(extra=[tuple(spot)])
        sched = _static_schedule(build_actual(form), form)
        comm = build_comm_matrix(sched, form.n_agents, 0.0)
        dense = comm.toarray()
        row = form.index(6)
        assert dense[row, row] == -1.0
        for m, w in zip((1, 2, 5), (0.2, 0.3, 0.5)):
            assert dense[row, form.index(m)] == pytest.approx(w, abs=1e-12)
        assert comm.nnz == form.n_agents + 3

    def test_anchor_rows_zero_off_diagonal(self):
        plan = _plan(seed=2, uncoop=2)
        form = plan.scenario.formation
        dense = build_comm_matrix(plan.schedule, form.n_agents, 3.0).toarray()
        for a in plan.graph.layers[0]:
            k = form.index(a)
            row = dense[k].copy()
            row[k] += 1.0
            assert np.all(row == 0.0)

    def test_follower_rows_sum_to_zero(self):
        plan = _plan(seed=13, n=30, nb=8)
        form = plan.scenario.formation
        for t in (0.0, 4.2, 11.0, 20.0):
            dense = build_comm_matrix(plan.schedule, form.n_agents, t).toarray()
            sums = dense.sum(axis=1)
            assert np.max(np.abs(sums[plan.schedule.rows])) < 1e-12
            # off-diagonals match the blended weights directly
            w = weights_at(plan.schedule, t)
            for k, a in enumerate(plan.schedule.mentees):
                r = form.index(a)
                for m, wm in zip(plan.graph.mentors[a], w[k]):
                    assert dense[r, form.index(m)] == wm

    def test_order_sorted_by_layer_then_id(self):
        plan = _plan(seed=4)
        sched = plan.schedule
        keys = [(plan.graph.layer_index[a], a) for a in sched.mentees]
        assert keys == sorted(keys)
        assert sorted(sched.mentees) == sorted(plan.graph.mentors)
        # every mentor row is filled before the mentee row that reads it
        filled = {plan.scenario.formation.index(a) for a in plan.graph.layers[0]}
        for row, mentors in zip(sched.rows, sched.mentors):
            assert set(mentors) <= filled
            filled.add(row)


class TestPropagate:
    def test_anchors_only_graph(self):
        form = square_core_formation()
        sched = _static_schedule(build_actual(form), form)
        s = propagate_setpoints(build_actual(form), sched, form.positions, [0.3])
        assert np.array_equal(s[0], form.positions)

    def test_initial_time_reconstructs_initial_positions(self):
        plan = _plan(seed=7, n=32, nb=8, uncoop=1)
        form = plan.scenario.formation
        s = propagate_setpoints(plan.graph, plan.schedule, form.positions, [plan.schedule.t0])
        assert np.max(np.linalg.norm(s[0] - form.positions, axis=1)) < 1e-9

    def test_final_time_reconstructs_desired_positions(self):
        plan = _plan(seed=7, n=32, nb=8, uncoop=1)
        final = final_positions(plan)
        times = [plan.schedule.tf, plan.schedule.tf + 7.0]
        s = propagate_setpoints(plan.graph, plan.schedule, final, times)
        assert np.max(np.linalg.norm(s - final, axis=2)) < 1e-9

    def test_blend_is_convex_combination_of_mentor_setpoints(self):
        plan = _plan(seed=19, n=28, nb=7)
        form = plan.scenario.formation
        rng = np.random.default_rng(1)
        times = rng.uniform(plan.schedule.t0, plan.schedule.tf, 5)
        s = propagate_setpoints(plan.graph, plan.schedule, final_positions(plan), times)
        for ti, t in enumerate(times):
            w = weights_at(plan.schedule, float(t))
            for k, a in enumerate(plan.schedule.mentees):
                rows = [form.index(m) for m in plan.graph.mentors[a]]
                blend = w[k] @ s[ti, rows]
                assert np.linalg.norm(s[ti, form.index(a)] - blend) < 1e-9


class TestDenseOracle:
    def test_matches_propagation(self):
        rng = np.random.default_rng(5)
        for seed in range(4):
            plan = _plan(seed=40 + seed, n=24 + 6 * seed, nb=7, uncoop=seed % 2)
            anchors = final_positions(plan)
            times = rng.uniform(plan.schedule.t0 - 1, plan.schedule.tf + 3, 6)
            fast = propagate_setpoints(plan.graph, plan.schedule, anchors, times)
            for ti, t in enumerate(times):
                dense = solve_setpoints_dense(plan.schedule, anchors, float(t))
                assert np.max(np.abs(fast[ti] - dense)) < 1e-9
                assert setpoint_residual(plan.schedule, anchors, fast[ti], float(t)) < 1e-9

    def test_anchor_perturbation_moves_only_descendants(self):
        plan = _plan(seed=11, n=30, nb=8)
        form = plan.scenario.formation
        anchors = final_positions(plan)
        b = form.boundary_ids[0]
        moved = anchors.copy()
        moved[form.index(b)] += np.array([0.37, -0.21])
        t = [6.5]
        base = propagate_setpoints(plan.graph, plan.schedule, anchors, t)[0]
        bump = propagate_setpoints(plan.graph, plan.schedule, moved, t)[0]

        # reachability oracle over the forward edges
        reach = {b}
        frontier = [b]
        while frontier:
            src = frontier.pop()
            for mentor, mentee in plan.graph.edges:
                if mentor == src and mentee not in reach:
                    reach.add(mentee)
                    frontier.append(mentee)
        gap = np.max(np.abs(base - bump), axis=1)
        moved_ids = [a for k, a in enumerate(form.ids) if gap[k] > 1e-12]
        assert b in moved_ids
        assert set(moved_ids) <= reach  # nothing outside the descendant cone moves

    def test_singular_follower_block_reported(self):
        # corrupt schedule: agents 4 and 5 (rows 3 and 4) mentor each other,
        # which makes the follower block singular; a valid build never does
        w = np.array([[0.0, 0.5, 0.5], [0.0, 0.5, 0.5]])
        sched = WeightSchedule(
            mentees=(4, 5),
            rows=np.array([3, 4]),
            mentors=np.array([[0, 4, 4], [1, 3, 3]]),
            omega=w,
            varpi=w,
            t0=0.0,
            tf=1.0,
        )
        anchors = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
        with pytest.raises(SingularFollowerBlock):
            solve_setpoints_dense(sched, anchors, 0.0)
