import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import ancestors, cube_scenario, manual_scenario, quick_scenario, square_core_formation
from oracles import staged_rk4, stepwise_integrate
from swarm_transport import engine
from swarm_transport.dynamics import Gains
from swarm_transport.engine import convergence_check, make_plan, run, setpoint_series, tracking_error_report
from swarm_transport.errors import BadConfig, Diverged, GridMismatch, SwarmTransportError
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

    def test_many_positions_match_single_calls(self):
        rng = np.random.default_rng(4)
        cube = np.array([(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)], dtype=float)
        for zone in (UNIT_SQUARE, UNIT_SQUARE[::-1], cube):
            pts = rng.uniform(-1.4, 1.4, (50, zone.shape[1])) * np.abs(zone).max()
            got = convergence_check(pts, zone, 0.10)
            assert got.shape == (50,) and got.dtype == bool
            assert got.tolist() == [convergence_check(p, zone, 0.10) for p in pts]
            assert 0 < got.sum() < 50
            assert convergence_check(pts[:0], zone, 0.10).shape == (0,)


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
    leaders = {b: form.positions[b - 1] for b in (1, 2, 3, 4)}
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
        scored = res.trace.scored
        assert scored.sum() == 29  # 40 agents less 10 hull agents and the core
        assert res.trace.converged[scored].all()
        assert np.all(res.trace.terminal_error[scored] < 0.05 * zone_diameter)

    def test_clamped_agents_never_move(self):
        sc = quick_scenario(seed=9, n=36, nb=8, uncoop=3)
        res = run(sc)
        assert len(sc.formation.clamped) == 3
        for u in sc.formation.clamped:
            assert res.trace.roles[u] == "uncooperative"
            drift = np.abs(res.trace.positions[:, u, :] - sc.formation.positions[u])
            assert np.max(drift) == 0.0
            assert np.all(res.trace.desired[:, u, :] == sc.formation.positions[u])

    def test_rate_bounded_by_clean_ancestry_fraction(self):
        sc = quick_scenario(seed=9, n=36, nb=8, uncoop=3)
        res = run(sc)
        graph = res.plan.graph
        clamped = set(sc.formation.clamped.tolist())
        scored = np.flatnonzero(res.trace.scored).tolist()
        clean = [a for a in scored if not (ancestors(graph, a) & clamped)]
        for a in clean:
            assert res.trace.converged[a]
        assert res.trace.rate >= len(clean) / len(scored)

    def test_desired_positions_follow_blend_of_actual_positions(self):
        # a planar team and a 3-D team with a clamped mentor
        for sc in (quick_scenario(seed=5, n=24, nb=6), cube_scenario()):
            res = run(sc)
            plan = res.plan
            for ti in (0, 37, len(res.trace.times) - 1):
                t = float(res.trace.times[ti])
                b = beta(t, sc.t0, sc.tf)
                for a, mentors, w0, w1 in zip(
                    plan.graph.mentees, plan.graph.mentors, plan.schedule.omega, plan.schedule.varpi
                ):
                    w = (1.0 - b) * w0 + b * w1
                    blend = w @ res.trace.positions[ti, mentors]
                    assert np.max(np.abs(res.trace.desired[ti, a] - blend)) <= 1e-12
            assert res.trace.rate == 1.0

    def test_anchor_desired_is_constant_final_position(self):
        sc = quick_scenario(seed=5, n=24, nb=6)
        res = run(sc)
        for b in sc.formation.boundary:
            ref = res.trace.desired[:, b, :]
            assert np.all(ref == ref[0])
            assert np.array_equal(ref[0], res.plan.desired.p[b])

    def test_determinism_bit_identical(self):
        sc = quick_scenario(seed=42, n=30, nb=8, uncoop=1)
        res1 = run(sc)
        res2 = run(sc)
        assert np.array_equal(res1.trace.positions, res2.trace.positions)
        assert np.array_equal(res1.trace.desired, res2.trace.desired)
        assert trace_table(res1.trace) == trace_table(res2.trace)
        assert metrics_json(res1) == metrics_json(res2)

    def test_divergence_reports_agent_and_time(self):
        # Hurwitz gains that RK4 cannot integrate: quadruple poles at -300
        # and at -1e4 that leave the bound in the first step (the second
        # overflows later steps of the block), and poles (-5.65, -1, -1, -1)
        # at dt 0.5 whose one unstable mode leaves it mid-block, 95 s in.
        # validate_scenario rejects them, so they are swapped into valid plans.
        sc = quick_scenario(seed=2, n=20, nb=6)
        cases = (
            (dict(t_end=20.0, tf=10.0), Gains(1200.0, 5.4e5, 1.08e8, 8.1e9)),
            (dict(t_end=20.0, tf=10.0), Gains(4e4, 6e8, 4e12, 1e16)),
            (dict(t_end=400.0, tf=10.0, dt=0.5, output_period=1.0), Gains(8.65, 19.95, 17.95, 5.65)),
        )
        for timing, gains in cases:
            ok = manual_scenario(sc.formation, sc.targets.samples, zone=sc.targets.zone, **timing)
            plan = make_plan(ok)
            bad = dataclasses.replace(ok, gains=gains)
            with pytest.raises(BadConfig, match="RK4"):
                make_plan(bad)
            bad_plan = dataclasses.replace(plan, scenario=bad)
            with pytest.raises(Diverged, match="agent .* t =") as got:
                engine._integrate(bad_plan)
            with pytest.raises(Diverged) as want:
                stepwise_integrate(bad_plan)
            assert str(got.value) == str(want.value)

    def test_fixed_map_matches_staged_rk4(self):
        # a planar team with clamped agents and the 3-D team, against the
        # stepwise loop driven by the four-stage RK4
        for sc in (quick_scenario(seed=9, n=36, nb=8, uncoop=3), cube_scenario()):
            plan = make_plan(sc)
            fixed = engine._integrate(plan)
            staged = stepwise_integrate(
                plan, step=lambda state, r_d, phi: staged_rk4(state, r_d, sc.gains, sc.dt)
            )
            assert np.max(np.abs(fixed.positions - staged.positions)) <= 1e-12
            assert np.array_equal(fixed.converged, staged.converged)

    def test_leader_blend_flag_softens_start(self):
        sc = quick_scenario(seed=14, n=22, nb=6)
        soft = dataclasses.replace(sc, leader_blend=True)
        res = run(soft)
        b0 = sc.formation.boundary[0]
        # at t0 the blended anchor reference equals the initial position
        assert np.allclose(
            res.trace.desired[0, b0], sc.formation.positions[b0], atol=1e-12
        )
        assert res.trace.rate == 1.0


SQUARE_ZONE = [(1.0, 1.0), (3.0, 1.0), (3.0, 3.0), (1.0, 3.0)]
SQUARE_SAMPLES = [(x, y) for x in np.linspace(1.1, 2.9, 7) for y in np.linspace(1.1, 2.9, 7)]
# interior points on a half-unit grid: draws repeat points and line them up
GRID_POINTS = [(x, y) for x in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5) for y in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5)]


def _square_team(extra, n_clamped):
    """The 4x4 square with its center core and interior agents at ``extra``,
    the first ``n_clamped`` of them clamped."""
    clamped = range(6, 6 + min(n_clamped, len(extra)))
    form = square_core_formation(extra=extra, uncooperative=clamped)
    return manual_scenario(form, SQUARE_SAMPLES, zone=SQUARE_ZONE)


# builders of small teams, called inside the test so that a typed refusal
# to generate or plan one skips the example
TEAMS = st.one_of(
    st.builds(
        functools.partial,
        st.just(quick_scenario),
        seed=st.integers(0, 10_000),
        n=st.integers(12, 20),
        nb=st.integers(4, 7),
        uncoop=st.integers(0, 3),
    ),
    st.builds(
        functools.partial,
        st.just(_square_team),
        st.lists(st.sampled_from(GRID_POINTS), min_size=1, max_size=8),
        st.integers(0, 3),
    ),
    st.just(cube_scenario),
)


@settings(max_examples=40, deadline=None)
@given(
    team=TEAMS,
    leader_blend=st.booleans(),
    dt=st.sampled_from([0.01, 0.04]),
    steps=st.integers(1, 160),
    log_every=st.integers(1, 60),
    tf_share=st.floats(0.1, 1.0),
)
@example(team=cube_scenario, leader_blend=False, dt=0.01, steps=137, log_every=7, tf_share=0.6)
@example(
    team=functools.partial(_square_team, [(1.0, 1.0), (1.0, 1.0), (1.5, 1.5), (2.5, 2.5), (3.0, 3.0)], 1),
    leader_blend=True,
    dt=0.04,
    steps=150,
    log_every=3,
    tf_share=0.5,
)
def test_integrate_matches_stepwise_oracle(team, leader_blend, dt, steps, log_every, tf_share):
    # clamped agents, coincident and collinear interior agents, the leader
    # blend, 2-D and 3-D teams, and runs that end inside a block
    try:
        sc = dataclasses.replace(
            team(),
            leader_blend=leader_blend,
            dt=dt,
            t_end=steps * dt,
            tf=tf_share * steps * dt,
            output_period=log_every * dt,
        )
        plan = make_plan(sc)
    except SwarmTransportError:
        return  # a team the pipeline refuses says nothing about the loop
    got, want = engine._integrate(plan), stepwise_integrate(plan)
    assert np.array_equal(got.times, want.times)
    assert np.max(np.abs(got.positions - want.positions)) <= 1e-12
    assert np.max(np.abs(got.desired - want.desired)) <= 1e-12
    assert np.array_equal(got.converged, want.converged)
    assert got.rate == want.rate


class TestTrackingReport:
    def test_fixed_point_error_is_zero(self):
        res = run(_fixed_point_scenario())
        series = setpoint_series(res.plan, res.trace.times)
        report = tracking_error_report(res.trace, res.trace.times, series)
        assert np.max(report.errors) < 1e-12

    def test_anchor_terminal_error_small(self):
        sc = quick_scenario(seed=3, n=30, nb=8)
        res = run(sc)
        for b in sc.formation.boundary:
            assert res.trace.terminal_error[b] < 1e-3

    def test_error_tail_monotone_for_converged_agents(self):
        sc = quick_scenario(seed=3, n=30, nb=8)
        res = run(sc)
        series = setpoint_series(res.plan, res.trace.times)
        report = tracking_error_report(res.trace, res.trace.times, series)
        tail = res.trace.times >= res.trace.times[-1] - 5.0
        errs = report.errors[tail]
        for a in np.flatnonzero(res.trace.converged):
            e = errs[:, a]
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
            anchors = plan.desired.p
            for s, t in zip(series, times):
                dense = solve_setpoints_dense(plan.graph, plan.schedule, anchors, float(t))
                assert np.max(np.abs(s - dense)) <= 1e-12
                assert setpoint_residual(plan.graph, plan.schedule, anchors, s, float(t)) <= 1e-12
