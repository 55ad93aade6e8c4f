import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import cube_scenario, quick_scenario, square_core_formation
from oracles import (
    SingularFollowerBlock,
    build_comm_matrix,
    loop_blend,
    ramp,
    setpoint_residual,
    solve_setpoints_dense,
    time_major_setpoints,
    weights_at,
)
from swarm_transport.engine import make_plan, setpoint_series
from swarm_transport.formation import LayeredGraph, build_actual
from swarm_transport.setpoints import blend, propagate_setpoints
from swarm_transport.targets import DesiredPositions
from swarm_transport.weights import WeightSchedule, build_schedule


def _plan(seed=0, n=26, nb=7, uncoop=0):
    return make_plan(quick_scenario(seed=seed, n=n, nb=nb, uncoop=uncoop))


def _static_schedule(graph, form):
    """Schedule whose final weights equal the initial ones."""
    held = DesiredPositions(p=form.positions.copy(), captured={}, fallback_ids=())
    return build_schedule(graph, form, held)


class TestCommMatrix:
    def test_no_followers_gives_negative_identity(self):
        form = square_core_formation()
        graph = build_actual(form, (2.0, 2.0))
        comm = build_comm_matrix(graph, _static_schedule(graph, form), 0.5)
        assert np.array_equal(comm.toarray(), -np.eye(5))

    def test_single_mentee_row_placement(self):
        # mentee placed at barycentric (0.2, 0.3, 0.5) of agents 1, 2 and the core 5
        form = square_core_formation()
        spot = np.array([0.2, 0.3, 0.5]) @ form.positions[[0, 1, 4]]
        form = square_core_formation(extra=[tuple(spot)])
        graph = build_actual(form, (2.0, 2.0))
        comm = build_comm_matrix(graph, _static_schedule(graph, form), 0.0)
        dense = comm.toarray()
        row = 5  # agent 6
        assert dense[row, row] == -1.0
        for m, w in zip((0, 1, 4), (0.2, 0.3, 0.5)):
            assert dense[row, m] == pytest.approx(w, abs=1e-12)
        assert comm.nnz == form.n_agents + 3

    def test_anchor_rows_zero_off_diagonal(self):
        plan = _plan(seed=2, uncoop=2)
        dense = build_comm_matrix(plan.graph, plan.schedule, ramp(plan, 3.0)).toarray()
        assert dense.shape == (plan.scenario.formation.n_agents,) * 2
        for k in np.flatnonzero(plan.graph.layer == 0):
            row = dense[k].copy()
            row[k] += 1.0
            assert np.all(row == 0.0)

    def test_follower_rows_sum_to_zero(self):
        plan = _plan(seed=13, n=30, nb=8)
        graph = plan.graph
        for t in (0.0, 4.2, 11.0, 20.0):
            b = ramp(plan, t)
            dense = build_comm_matrix(graph, plan.schedule, b).toarray()
            sums = dense.sum(axis=1)
            assert np.max(np.abs(sums[graph.mentees])) < 1e-12
            # off-diagonals match the blended weights directly
            w = weights_at(plan.schedule, b)
            for k, (r, mentors) in enumerate(zip(graph.mentees, graph.mentors)):
                for m, wm in zip(mentors, w[k]):
                    assert dense[r, m] == wm

    def test_order_sorted_by_layer_then_id(self):
        plan = _plan(seed=4)
        graph = plan.graph
        keys = list(zip(graph.layer[graph.mentees].tolist(), graph.mentees.tolist()))
        assert keys == sorted(keys)
        assert sorted(graph.mentees.tolist()) == np.flatnonzero(graph.roles == "cooperative").tolist()
        assert plan.schedule.omega.shape == plan.schedule.varpi.shape == graph.mentors.shape
        # every mentor row is filled before the mentee row that reads it
        filled = set(np.flatnonzero(graph.layer == 0).tolist())
        for row, mentors in zip(graph.mentees.tolist(), graph.mentors.tolist()):
            assert set(mentors) <= filled
            filled.add(row)


class TestPropagate:
    def test_anchors_only_graph(self):
        form = square_core_formation()
        graph = build_actual(form, (2.0, 2.0))
        s = propagate_setpoints(graph, _static_schedule(graph, form), form.positions, [0.3])
        assert np.array_equal(s[0], form.positions)

    def test_initial_time_reconstructs_initial_positions(self):
        plan = _plan(seed=7, n=32, nb=8, uncoop=1)
        form = plan.scenario.formation
        s = propagate_setpoints(plan.graph, plan.schedule, form.positions, ramp(plan, [plan.scenario.t0]))
        assert np.max(np.linalg.norm(s[0] - form.positions, axis=1)) < 1e-9

    def test_final_time_reconstructs_desired_positions(self):
        plan = _plan(seed=7, n=32, nb=8, uncoop=1)
        final = plan.desired.p
        times = [plan.scenario.tf, plan.scenario.tf + 7.0]
        s = propagate_setpoints(plan.graph, plan.schedule, final, ramp(plan, times))
        assert np.max(np.linalg.norm(s - final, axis=2)) < 1e-9

    def test_blend_is_convex_combination_of_mentor_setpoints(self):
        plan = _plan(seed=19, n=28, nb=7)
        rng = np.random.default_rng(1)
        b = ramp(plan, rng.uniform(plan.scenario.t0, plan.scenario.tf, 5))
        s = propagate_setpoints(plan.graph, plan.schedule, plan.desired.p, b)
        for ti in range(len(b)):
            w = weights_at(plan.schedule, b[ti])
            for k, (a, mentors) in enumerate(zip(plan.graph.mentees, plan.graph.mentors)):
                blend = w[k] @ s[ti, mentors]
                assert np.linalg.norm(s[ti, a] - blend) < 1e-9

    def test_series_equals_propagation_at_every_time(self):
        # setpoint_series propagates once per distinct ramp value; the output
        # grid plus times before t0, after tf, repeated and out of order
        plan = _plan(seed=7, n=32, nb=8, uncoop=1)
        sc = plan.scenario
        times = np.concatenate([np.arange(251) * 0.1, [-2.0, sc.t0, sc.tf, 40.0, 3.3, 3.3, 0.05]])
        want = propagate_setpoints(plan.graph, plan.schedule, plan.desired.p, ramp(plan, times))
        got = setpoint_series(plan, times)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestDenseOracle:
    def test_matches_propagation(self):
        rng = np.random.default_rng(5)
        for seed in range(4):
            plan = _plan(seed=40 + seed, n=24 + 6 * seed, nb=7, uncoop=seed % 2)
            anchors = plan.desired.p
            b = ramp(plan, rng.uniform(plan.scenario.t0 - 1, plan.scenario.tf + 3, 6))
            fast = propagate_setpoints(plan.graph, plan.schedule, anchors, b)
            for ti in range(len(b)):
                dense = solve_setpoints_dense(plan.graph, plan.schedule, anchors, b[ti])
                assert np.max(np.abs(fast[ti] - dense)) < 1e-9
                residual = setpoint_residual(plan.graph, plan.schedule, anchors, fast[ti], b[ti])
                assert residual < 1e-9

    def test_anchor_perturbation_moves_only_descendants(self):
        plan = _plan(seed=11, n=30, nb=8)
        anchors = plan.desired.p
        b = int(plan.scenario.formation.boundary[0])
        moved = anchors.copy()
        moved[b] += np.array([0.37, -0.21])
        at = ramp(plan, [6.5])
        base = propagate_setpoints(plan.graph, plan.schedule, anchors, at)[0]
        bump = propagate_setpoints(plan.graph, plan.schedule, moved, at)[0]

        # reachability oracle over the forward edges
        reach = {b}
        frontier = [b]
        while frontier:
            src = frontier.pop()
            for mentee, mentors in zip(plan.graph.mentees.tolist(), plan.graph.mentors.tolist()):
                if src in mentors and mentee not in reach:
                    reach.add(mentee)
                    frontier.append(mentee)
        gap = np.max(np.abs(base - bump), axis=1)
        moved_rows = np.flatnonzero(gap > 1e-12).tolist()
        assert b in moved_rows
        assert set(moved_rows) <= reach  # nothing outside the descendant cone moves

    def test_singular_follower_block_reported(self):
        # corrupt graph: rows 3 and 4 mentor each other, which makes the
        # follower block singular; the constructor rejects such a graph, so
        # the mentor rows are overwritten after a valid construction
        graph = LayeredGraph(
            core=2,
            layer=np.array([0, 0, 0, 1, 2]),
            roles=np.array(["boundary"] * 2 + ["core"] + ["cooperative"] * 2, dtype=object),
            mentees=np.array([3, 4]),
            mentors=np.array([[0, 1, 2], [0, 1, 3]]),
            n_initial_simplices=3,
        )
        graph.mentors[:] = [[0, 4, 4], [1, 3, 3]]
        w = np.array([[0.0, 0.5, 0.5], [0.0, 0.5, 0.5]])
        sched = WeightSchedule(omega=w, varpi=w)
        anchors = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
        with pytest.raises(SingularFollowerBlock):
            solve_setpoints_dense(graph, sched, anchors, 0.0)


# Coordinates and weights for the bitwise blend properties: signed zeros,
# negatives and exact zero weights drawn often.
COORDS = st.sampled_from([0.0, -0.0, -1.0, 1e-300]) | st.floats(-1e6, 1e6)
WEIGHTS = st.sampled_from([0.0, -0.0, 1.0]) | st.floats(0.0, 1.0)


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), dim=st.sampled_from([2, 3]), k=st.integers(1, 6), t=st.integers(1, 12), one_time=st.booleans())
def test_blend_equals_loop_blend_bitwise(data, dim, k, t, one_time):
    # the closed loop's case: w with one time (a held endpoint) or m, written
    # into the leading m columns of a wider buffer
    w = data.draw(hnp.arrays(float, (k, dim + 1, 1 if one_time else t), elements=WEIGHTS))
    x = data.draw(hnp.arrays(float, (k, dim + 1, dim, t), elements=COORDS))
    buf = np.full((k, dim, t + 3), np.nan)
    blend(w, x, out=buf[:, :, :t])
    assert same_bits(buf[:, :, :t], loop_blend(w, x))
    assert same_bits(blend(w, x), loop_blend(w, x))


_PLANS = {}


def _property_plan(team):
    if team not in _PLANS:
        _PLANS[team] = make_plan(quick_scenario(seed=3) if team == "2d" else cube_scenario())
    return _PLANS[team]


@settings(max_examples=60, deadline=None)
@given(data=st.data(), team=st.sampled_from(["2d", "3d"]), n_times=st.integers(1, 8))
def test_propagation_equals_time_major_oracle_bitwise(data, team, n_times):
    plan = _property_plan(team)
    n_agents, dim = plan.desired.p.shape
    shape = plan.schedule.omega.shape
    schedule = dataclasses.replace(
        plan.schedule,
        omega=data.draw(hnp.arrays(float, shape, elements=WEIGHTS)),
        varpi=data.draw(hnp.arrays(float, shape, elements=WEIGHTS)),
    )
    anchors = data.draw(hnp.arrays(float, (n_agents, dim), elements=COORDS))
    times = np.array(data.draw(st.lists(st.floats(-5.0, 30.0), min_size=n_times, max_size=n_times)))
    b = ramp(plan, times)
    got = propagate_setpoints(plan.graph, schedule, anchors, b)
    assert same_bits(got, time_major_setpoints(plan.graph, schedule, anchors, b))
