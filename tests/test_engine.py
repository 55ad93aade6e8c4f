import numpy as np
import pytest

from conftest import cube_scenario, final_positions, manual_scenario, quick_scenario, square_core_formation
from swarm_transport import engine
from swarm_transport.dynamics import Gains
from swarm_transport.engine import convergence_check, make_plan, run, setpoint_series, tracking_error_report
from swarm_transport.errors import BadConfig, Diverged, GridMismatch
from swarm_transport.formation import ancestor_ids
from swarm_transport.reporting import metrics_json, trace_table
from swarm_transport.setpoints import setpoint_residual, solve_setpoints_dense
from swarm_transport.weights import beta

UNIT_SQUARE = np.array([(-0.5, -0.5), (0.5, -0.5), (0.5, 0.5), (-0.5, 0.5)])


class TestConvergenceCheck:
    def test_centroid_always_inside(self):
        for margin in (0.0, 0.1, 0.5):
            assert convergence_check([0.0, 0.0], UNIT_SQUARE, margin)

    def test_margin_scaling(self):
        ring = np.array([(np.cos(a), np.sin(a)) for a in np.linspace(0, 2 * np.pi, 64, endpoint=False)])
        p = [1.05, 0.0]
        assert convergence_check(p, ring, 0.10)
        assert not convergence_check(p, ring, 0.0)

    def test_inflated_half_width(self):
        assert convergence_check([0.549, 0.0], UNIT_SQUARE, 0.10)
        assert not convergence_check([0.551, 0.0], UNIT_SQUARE, 0.10)

    def test_3d_zone(self):
        cube = np.array([(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)], dtype=float)
        assert convergence_check([1.05, 0.0, 0.0], cube, 0.10)
        assert not convergence_check([1.15, 0.0, 0.0], cube, 0.10)


class TestScenarioValidation:
    def test_times_must_be_ordered(self):
        sc = quick_scenario(seed=1, n=20, nb=6)
        with pytest.raises(BadConfig):
            engine.validate_scenario(
                manual_scenario(sc.formation, sc.targets.samples, t0=5.0, tf=5.0)
            )

    def test_dt_must_divide_output_period(self):
        sc = quick_scenario(seed=1, n=20, nb=6)
        bad = manual_scenario(sc.formation, sc.targets.samples, dt=0.03, output_period=0.1)
        with pytest.raises(BadConfig):
            engine.validate_scenario(bad)


def _fixed_point_scenario():
    """Everybody already sits at its final position: anchors explicitly at
    their initial spots, one follower whose lone captured sample is its own
    initial position."""
    form = square_core_formation(extra=[(2.0, 1.0)])
    leaders = {b: form.position(b) for b in form.boundary_ids}
    return manual_scenario(
        form,
        samples=[(2.0, 1.0)],
        zone=[(0.5, -0.5), (3.5, -0.5), (3.5, 3.5), (0.5, 3.5)],
        leader_positions=leaders,
        t0=0.0,
        tf=0.01,
        t_end=0.05,
        dt=0.01,
        output_period=0.01,
    )


class TestRun:
    def test_fixed_point_trace_is_constant(self):
        res = run(_fixed_point_scenario())
        first = res.trace.positions[0]
        for frame in res.trace.positions:
            assert np.array_equal(frame, first)
        assert res.trace.rate == 1.0

    def test_small_cooperative_scenario_converges(self):
        sc = quick_scenario(seed=3, n=40, nb=10)
        res = run(sc)
        assert res.trace.rate == 1.0
        zone_diameter = 2.0 * np.max(
            np.linalg.norm(sc.targets.zone_polygon() - sc.targets.center(), axis=1)
        )
        for a, ok in res.trace.converged.items():
            assert ok
            assert res.trace.terminal_error[a] < 0.05 * zone_diameter

    def test_clamped_agents_never_move(self):
        sc = quick_scenario(seed=9, n=36, nb=8, uncoop=3)
        res = run(sc)
        for u in sorted(sc.formation.uncooperative_ids):
            k = res.trace.ids.index(u)
            drift = np.abs(res.trace.positions[:, k, :] - sc.formation.position(u))
            assert np.max(drift) == 0.0

    def test_rate_bounded_by_clean_ancestry_fraction(self):
        sc = quick_scenario(seed=9, n=36, nb=8, uncoop=3)
        res = run(sc)
        graph = res.plan.graph
        clean = [
            a
            for a in res.trace.converged
            if not (ancestor_ids(graph, a) & sc.formation.uncooperative_ids)
        ]
        for a in clean:
            assert res.trace.converged[a]
        assert res.trace.rate >= len(clean) / len(res.trace.converged)

    def test_desired_positions_follow_blend_of_actual_positions(self):
        # a planar team and a 3-D team with a clamped mentor
        for sc in (quick_scenario(seed=5, n=24, nb=6), cube_scenario()):
            res = run(sc)
            plan = res.plan
            ids = res.trace.ids
            col = {a: k for k, a in enumerate(ids)}
            weights = dict(zip(plan.schedule.mentees, zip(plan.schedule.omega, plan.schedule.varpi)))
            for ti in (0, 37, len(res.trace.times) - 1):
                t = float(res.trace.times[ti])
                b = beta(t, sc.t0, sc.tf)
                for a, mentors in plan.graph.mentors.items():
                    w0, w1 = weights[a]
                    w = (1.0 - b) * w0 + b * w1
                    blend = w @ res.trace.positions[ti, [col[m] for m in mentors]]
                    assert np.max(np.abs(res.trace.desired[ti, col[a]] - blend)) <= 1e-12
            assert res.trace.rate == 1.0

    def test_anchor_desired_is_constant_final_position(self):
        sc = quick_scenario(seed=5, n=24, nb=6)
        res = run(sc)
        col = {a: k for k, a in enumerate(res.trace.ids)}
        for b in sc.formation.boundary_ids:
            ref = res.trace.desired[:, col[b], :]
            assert np.all(ref == ref[0])

    def test_determinism_bit_identical(self):
        sc = quick_scenario(seed=42, n=30, nb=8, uncoop=1)
        res1 = run(sc)
        res2 = run(sc)
        assert np.array_equal(res1.trace.positions, res2.trace.positions)
        assert np.array_equal(res1.trace.desired, res2.trace.desired)
        assert trace_table(res1.trace) == trace_table(res2.trace)
        assert metrics_json(res1) == metrics_json(res2)

    def test_divergence_reports_agent_and_time(self):
        sc = quick_scenario(seed=2, n=20, nb=6)
        bad = manual_scenario(
            sc.formation,
            sc.targets.samples,
            zone=sc.targets.zone,
            gains=Gains(8.0, 24.0, 32.0, -1e6),
            t_end=20.0,
            tf=10.0,
        )
        with pytest.raises(Diverged, match="agent .* t ="):
            run(bad)

    def test_leader_blend_flag_softens_start(self):
        sc = quick_scenario(seed=14, n=22, nb=6)
        import dataclasses

        soft = dataclasses.replace(sc, leader_blend=True)
        res = run(soft)
        col = {a: k for k, a in enumerate(res.trace.ids)}
        b0 = sc.formation.boundary_ids[0]
        # at t0 the blended anchor reference equals the initial position
        assert np.allclose(
            res.trace.desired[0, col[b0]], sc.formation.position(b0), atol=1e-12
        )
        assert res.trace.rate == 1.0


class TestTrackingReport:
    def test_fixed_point_error_is_zero(self):
        res = run(_fixed_point_scenario())
        series = setpoint_series(res.plan, res.trace.times)
        report = tracking_error_report(res.trace, res.trace.times, series)
        assert np.max(report.errors) < 1e-12

    def test_anchor_terminal_error_small(self):
        sc = quick_scenario(seed=3, n=30, nb=8)
        res = run(sc)
        for b in sc.formation.boundary_ids:
            assert res.trace.terminal_error[b] < 1e-3

    def test_error_tail_monotone_for_converged_agents(self):
        sc = quick_scenario(seed=3, n=30, nb=8)
        res = run(sc)
        series = setpoint_series(res.plan, res.trace.times)
        report = tracking_error_report(res.trace, res.trace.times, series)
        tail = res.trace.times >= res.trace.times[-1] - 5.0
        errs = report.errors[tail]
        col = {a: k for k, a in enumerate(res.trace.ids)}
        for a, ok in res.trace.converged.items():
            if not ok:
                continue
            e = errs[:, col[a]]
            assert np.all(np.diff(e) <= 1e-12)

    def test_grid_mismatch(self):
        res = run(_fixed_point_scenario())
        series = setpoint_series(res.plan, res.trace.times)
        with pytest.raises(GridMismatch):
            tracking_error_report(res.trace, res.trace.times[:-1], series[:-1])

    def test_setpoint_residual_over_logged_grid(self):
        # the all-times series equals the dense solve at every time, in 2-D and 3-D
        for sc in (quick_scenario(seed=4, n=24, nb=6, uncoop=1), cube_scenario()):
            plan = make_plan(sc)
            times = np.linspace(sc.t0, sc.t_end, 9)
            series = setpoint_series(plan, times)
            assert series.shape == (9, sc.formation.n_agents, sc.formation.dim)
            anchors = final_positions(plan)
            for s, t in zip(series, times):
                dense = solve_setpoints_dense(plan.schedule, anchors, float(t))
                assert np.max(np.abs(s - dense)) <= 1e-12
                assert setpoint_residual(plan.schedule, anchors, s, float(t)) <= 1e-12
