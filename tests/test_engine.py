import dataclasses
import functools
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import ancestors, cube_scenario, manual_scenario, quick_scenario, square_core_formation, unchecked, written
from oracles import (
    GridMismatch,
    setpoint_residual,
    solve_setpoints_dense,
    staged_rk4,
    stepwise_integrate,
    tracking_error_report,
)
from swarm_transport import dynamics, engine, geometry
from swarm_transport.dynamics import Gains
from swarm_transport.engine import convergence_check, make_plan, run, setpoint_series
from swarm_transport.errors import BadConfig, Diverged, SwarmTransportError
from swarm_transport.formation import ROLE_BOUNDARY, ROLE_CORE, Formation
from swarm_transport.reporting import metrics_json, trace_table
from swarm_transport.scenario import GenerateParams, generate_scenario, parse_scenario_text, serialize_scenario
from swarm_transport.setpoints import propagate_setpoints
from swarm_transport.targets import TargetSet
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


class TestZoneRule:
    """A planar zone is the corner cycle of a convex polygon, in either
    direction; scoring tests points against its edges' halfplanes."""

    MESSAGE = "targets.zone must list the corners of a convex polygon in order"

    @pytest.mark.parametrize(
        "zone",
        [
            [(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)],
            [(0, 0), (1, 0), (0, 1), (1, 1)],  # the unit square's corners as a bow tie
        ],
        ids=["l-shape", "bow-tie"],
    )
    def test_zone_that_is_not_a_convex_cycle_is_refused(self, zone):
        sc = quick_scenario(seed=1, n=20, nb=6)
        with pytest.raises(BadConfig) as err:
            manual_scenario(sc.formation, sc.targets.samples, zone=zone)
        assert str(err.value) == self.MESSAGE

    def test_clockwise_zone_gives_the_counter_clockwise_verdicts(self):
        sc = quick_scenario(seed=1, n=20, nb=6)
        zone = sc.targets.zone
        assert geometry.polygon_area(zone) > 0
        cw = manual_scenario(sc.formation, sc.targets.samples, zone=zone[::-1])
        assert run(cw).converged.tolist() == run(sc).converged.tolist()
        pts = np.random.default_rng(2).uniform(zone.min(axis=0) - 0.5, zone.max(axis=0) + 0.5, (200, 2))
        inside = geometry.point_in_polygon(pts, zone)
        assert geometry.point_in_polygon(pts, zone[::-1]).tolist() == inside.tolist()
        assert 0 < inside.sum() < 200

    def test_convex_zone_far_from_the_origin_is_accepted(self):
        # the hull's tolerance is relative to the zone's own extent; one
        # that grew with |x|^2 would drop every corner this far out
        sc = quick_scenario(seed=1, n=20, nb=6)
        shifted = TargetSet(samples=sc.targets.samples + 2e6, zone=sc.targets.zone + 2e6)
        assert dataclasses.replace(sc, targets=shifted).targets is shifted


class TestScenarioValidation:
    def test_times_must_be_ordered(self):
        sc = quick_scenario(seed=1, n=20, nb=6)
        with pytest.raises(BadConfig):
            engine.validate_scenario(
                manual_scenario(sc.formation, sc.targets.samples, t0=5.0, tf=5.0)
            )

    def test_dt_must_divide_output_period(self):
        sc = quick_scenario(seed=1, n=20, nb=6)
        with pytest.raises(BadConfig, match="output sampling period"):
            manual_scenario(sc.formation, sc.targets.samples, dt=0.03, output_period=0.1)

    def test_horizon_of_less_than_one_step_is_refused(self):
        sc = quick_scenario(seed=1, n=20, nb=6)
        with pytest.raises(BadConfig, match="horizon t_end - t0, got 1e-07 steps"):
            manual_scenario(sc.formation, sc.targets.samples, tf=1e-9, t_end=1e-9, dt=0.01, output_period=0.01)

    @pytest.mark.parametrize(
        "edit",
        [lambda a: a[:-1], lambda a: a[:, :2], lambda a: np.where(a == a.max(), np.nan, a)],
        ids=["one-row-short", "planar", "nan"],
    )
    def test_explicit_anchors_are_a_finite_hull_order_array(self, edit):
        sc = cube_scenario()  # 8 hull agents in 3-D
        with pytest.raises(BadConfig, match=r"finite \(8, 3\) array"):
            dataclasses.replace(sc, leader_positions=edit(sc.leader_positions))

    @pytest.mark.parametrize("field, value", [("dt", math.nan), ("dt", math.inf), ("margin", math.nan)])
    def test_times_and_margin_must_be_finite(self, field, value):
        sc = quick_scenario(seed=1, n=20, nb=6)
        with pytest.raises(BadConfig, match=f"^{field} must be finite, got {value}$"):
            dataclasses.replace(sc, **{field: value})

    def test_step_count_is_capped(self):
        sc = quick_scenario(seed=1, n=20, nb=6)
        dt = 2.0**-7  # exact, so t_end / dt is exactly the step count
        horizon = engine._MAX_STEPS * dt
        ok = dataclasses.replace(sc, dt=dt, output_period=16 * dt, t_end=horizon)
        engine.validate_scenario(ok)
        with pytest.raises(BadConfig, match="t_end"):
            engine.validate_scenario(dataclasses.replace(ok, t_end=horizon + 16 * dt))

    def test_each_scenario_is_validated_once(self, monkeypatch):
        calls = []
        real = engine.validate_scenario
        monkeypatch.setattr(engine, "validate_scenario", lambda sc: calls.append(sc) or real(sc))
        generated = quick_scenario(seed=1, n=20, nb=6)  # its one draw, where it is built
        parsed = parse_scenario_text(serialize_scenario(generated))  # where it is parsed
        changed = dataclasses.replace(parsed, dt=0.02)  # a copy is checked afresh
        for sc in (generated, parsed, changed):
            make_plan(sc)  # and planning checks none of them again
        assert [id(sc) for sc in calls] == [id(generated), id(parsed), id(changed)]
        with pytest.raises(BadConfig, match="RK4"):
            dataclasses.replace(parsed, gains=Gains(1200.0, 5.4e5, 1.08e8, 8.1e9))

    @pytest.mark.parametrize("targets", ["cube", "nan-sample"])
    def test_targets_must_be_finite_points_of_the_team(self, targets):
        # refused where the scenario is built, not deep in planning or scoring
        sc = quick_scenario(seed=1, n=20, nb=6)
        if targets == "cube":
            bad = cube_scenario().targets
        else:
            samples = sc.targets.samples.copy()
            samples[3, 1] = math.nan
            bad = TargetSet(samples=samples, zone=sc.targets.zone)
        with pytest.raises(BadConfig, match="finite points of the team's dimension 2"):
            dataclasses.replace(sc, targets=bad)


def test_replaced_targets_plan_as_their_document():
    # the core is the interior agent nearest the scenario's own target
    # center, so targets swapped in by ``replace`` plan and run as the
    # scenario's document does
    sc = quick_scenario(seed=13, n=40, nb=10, uncoop=2)
    off = np.array([1.0, 0.0])
    moved = dataclasses.replace(sc, targets=TargetSet(samples=sc.targets.samples + off, zone=sc.targets.zone + off))
    got, want = run(moved), run(parse_scenario_text(serialize_scenario(moved)))
    assert sc.formation.ids[got.plan.graph.core] == sc.formation.ids[want.plan.graph.core] == 34
    for name in ("layer", "mentees", "mentors"):
        assert getattr(got.plan.graph, name).tobytes() == getattr(want.plan.graph, name).tobytes()
    assert got.positions.tobytes() == want.positions.tobytes()


def _shifted_document(text, offset):
    """Scenario document ``text`` with every point in it, agents, anchors,
    zone and samples, moved by ``offset``."""
    doc = json.loads(text)
    keys = "xyz"[: doc["dimension"]]
    for entry in doc["agents"] + doc["leader_final"].get("positions", []):
        for key, d in zip(keys, offset):
            entry[key] += d
    for name, rows in doc["targets"].items():
        doc["targets"][name] = [[c + d for c, d in zip(row, offset)] for row in rows]
    return json.dumps(doc)


@functools.cache
def _team_document(seed):
    """Document text, mentor graph and radius (largest distance of an agent
    from the agents' mean) of the cube (seed None) or a generated planar team
    of 24 to 40 agents."""
    sc = cube_scenario() if seed is None else quick_scenario(seed=seed, n=24 + 5 * seed, nb=6 + seed, uncoop=seed % 3)
    pos = sc.formation.positions
    return serialize_scenario(sc), make_plan(sc).graph, float(np.linalg.norm(pos - pos.mean(axis=0), axis=1).max())


@settings(max_examples=25, deadline=None)
@given(seed=st.sampled_from([None, 0, 1, 2, 3]), unit=st.tuples(*[st.floats(-1.0, 1.0)] * 3))
@example(seed=None, unit=(1.0, -0.7, 0.3))
@example(seed=3, unit=(1.0, 1.0, 0.0))
@example(seed=3, unit=(0.5, 1.0, 0.0))  # another core when the centroid sums raw coordinates
def test_a_shifted_team_plans_as_at_the_origin(seed, unit):
    # every tolerance is relative to its own point set's extent, and a planar
    # zone's area centroid, which picks the core, sums about the zone's
    # vertex mean, so the same document moved by up to 1e5 radii in every
    # axis gets the same core and mentor graph
    text, want, radius = _team_document(seed)
    dim = want.mentors.shape[1] - 1
    got = make_plan(parse_scenario_text(_shifted_document(text, 1e5 * radius * np.asarray(unit[:dim])))).graph
    assert got.core == want.core
    for name in ("layer", "mentees", "mentors"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


def test_a_shifted_team_runs_as_at_the_origin():
    # divergence is an agent's offset from its reference, not its position,
    # so sweep-small seed 1 moved 2e6 m out runs to the same verdicts
    text = serialize_scenario(generate_scenario(GenerateParams(n_agents=40, n_boundary=10, n_uncooperative=2), 1))
    want = run(parse_scenario_text(text))
    got = run(parse_scenario_text(_shifted_document(text, (2e6, -1.4e6))))
    assert np.array_equal(got.converged, want.converged)
    assert np.max(np.abs(got.terminal_error - want.terminal_error)) <= 1e-6


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
        first = res.positions[0]
        for frame in res.positions:
            assert np.array_equal(frame, first)
        assert res.rate == 1.0

    def test_small_cooperative_scenario_converges(self):
        sc = quick_scenario(seed=3, n=40, nb=10)
        res = run(sc)
        assert res.rate == 1.0
        zone_diameter = 2.0 * np.max(
            np.linalg.norm(sc.targets.zone_polygon - sc.targets.center, axis=1)
        )
        scored = res.scored
        assert scored.sum() == 29  # 40 agents less 10 hull agents and the core
        assert res.converged[scored].all()
        assert np.all(res.terminal_error[scored] < 0.05 * zone_diameter)

    def test_clamped_agents_never_move(self):
        sc = quick_scenario(seed=9, n=36, nb=8, uncoop=3)
        res = run(sc)
        assert len(sc.formation.clamped) == 3
        for u in sc.formation.clamped:
            assert res.plan.graph.roles[u] == "uncooperative"
            drift = np.abs(res.positions[:, u, :] - sc.formation.positions[u])
            assert np.max(drift) == 0.0
            assert np.all(res.desired[:, u, :] == sc.formation.positions[u])

    def test_rate_bounded_by_clean_ancestry_fraction(self):
        sc = quick_scenario(seed=9, n=36, nb=8, uncoop=3)
        res = run(sc)
        graph = res.plan.graph
        clamped = set(sc.formation.clamped.tolist())
        scored = np.flatnonzero(res.scored).tolist()
        clean = [a for a in scored if not (ancestors(graph, a) & clamped)]
        for a in clean:
            assert res.converged[a]
        assert res.rate >= len(clean) / len(scored)

    def test_desired_positions_follow_blend_of_actual_positions(self):
        # a planar team and a 3-D team with a clamped mentor
        for sc in (quick_scenario(seed=5, n=24, nb=6), cube_scenario()):
            res = run(sc)
            plan = res.plan
            for ti in (0, 37, len(res.times) - 1):
                t = float(res.times[ti])
                b = beta(t, sc.t0, sc.tf)
                for a, mentors, w0, w1 in zip(
                    plan.graph.mentees, plan.graph.mentors, plan.schedule.omega, plan.schedule.varpi
                ):
                    w = (1.0 - b) * w0 + b * w1
                    blend = w @ res.positions[ti, mentors]
                    assert np.max(np.abs(res.desired[ti, a] - blend)) <= 1e-12
            assert res.rate == 1.0

    def test_anchor_desired_is_constant_final_position(self):
        sc = quick_scenario(seed=5, n=24, nb=6)
        res = run(sc)
        for b in sc.formation.boundary:
            ref = res.desired[:, b, :]
            assert np.all(ref == ref[0])
            assert np.array_equal(ref[0], res.plan.desired.p[b])

    def test_determinism_bit_identical(self):
        sc = quick_scenario(seed=42, n=30, nb=8, uncoop=1)
        res1 = run(sc)
        res2 = run(sc)
        assert np.array_equal(res1.positions, res2.positions)
        assert np.array_equal(res1.desired, res2.desired)
        assert written(trace_table, res1) == written(trace_table, res2)
        assert metrics_json(res1) == metrics_json(res2)

    def test_divergence_reports_agent_and_time(self, monkeypatch):
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
        plans = []
        for timing, gains in cases:
            ok = manual_scenario(sc.formation, sc.targets.samples, zone=sc.targets.zone, **timing)
            with pytest.raises(BadConfig, match="RK4"):
                dataclasses.replace(ok, gains=gains)
            plans.append(dataclasses.replace(make_plan(ok), scenario=unchecked(ok, gains=gains)))
        # a valid team whose hull agents start beyond the bound from their
        # anchors fails in its first step, and the farthest is named by id
        # when the ids run against the layer order
        plans += [make_plan(_scaled(quick_scenario(), 2e5, relabel)) for relabel in (int, lambda i: 100 - i)]
        # at the default pass length and at one block per pass
        for cells in (engine._PASS, 1):
            monkeypatch.setattr(engine, "_PASS", cells)
            messages = []
            for bad_plan in plans:
                with pytest.raises(Diverged, match="agent .* t =") as got:
                    engine._integrate(bad_plan)
                with pytest.raises(Diverged) as want:
                    stepwise_integrate(bad_plan)
                assert str(got.value) == str(want.value)
                messages.append(str(got.value))
            assert messages[-2:] == ["agent 3 diverged near t = 0.000 s", "agent 97 diverged near t = 0.000 s"]

    def test_divergence_names_the_worst_agent_before_the_failing_step(self, monkeypatch):
        # seed 4 with its hull anchored where it starts, moved 8e5 along both
        # axes, under poles (-2 +- 7i, -1, -1) at dt 0.4: the weight ramp
        # drives the followers, and at step 165, the 16th of its block, agent
        # 15 is farthest from its reference, agent 8 is after the step that
        # leaves the bound, and agent 9 has the largest state, so the agent
        # named depends on which step is read and on reading offsets
        sc = quick_scenario(seed=4, n=20, nb=6)
        f, off = sc.formation, 8e5
        form = Formation.build(f.ids, f.positions + off)
        anchors = {form.ids[b]: form.positions[b] for b in form.boundary}
        ok = manual_scenario(
            form,
            sc.targets.samples + off,
            zone=sc.targets.zone + off,
            leader_positions=anchors,
            t_end=200.0,
            tf=10.0,
            dt=0.4,
            output_period=0.8,
        )
        poles = np.poly([-2 + 7j, -2 - 7j, -1, -1]).real
        bad_plan = dataclasses.replace(make_plan(ok), scenario=unchecked(ok, gains=Gains(*poles[1:])))
        seen = []

        def step(states, r_d, phi):
            seen.append((states, r_d, phi))
            return dynamics.step(states, r_d, phi)

        with pytest.raises(Diverged) as want:
            stepwise_integrate(bad_plan, step=step)
        states, r_d, phi = seen[-1]
        monkeypatch.setattr(dynamics, "DIVERGENCE_THRESHOLD", np.inf)
        after = dynamics.step(states, r_d, phi)  # the step that left the bound
        reference = np.eye(4)[:, :1] * r_d[:, None, :]  # r_d in the position row
        worst = [form.ids[int(np.argmax(np.abs(x - reference).max(axis=(1, 2))))] for x in (states, after)]
        largest = form.ids[int(np.argmax(np.abs(states).max(axis=(1, 2))))]
        assert (len(seen) - 1, worst, largest) == (165, [15, 8], 9)
        monkeypatch.undo()
        with pytest.raises(Diverged) as got:
            engine._integrate(bad_plan)
        assert str(got.value) == str(want.value) == "agent 15 diverged near t = 66.000 s"

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

    def test_leader_blend_softens_start(self):
        sc = quick_scenario(seed=14, n=22, nb=6)
        soft = dataclasses.replace(sc, leader_blend=True)
        res = run(soft)
        b0 = sc.formation.boundary[0]
        # at t0 the blended anchor reference equals the initial position
        assert np.allclose(
            res.desired[0, b0], sc.formation.positions[b0], atol=1e-12
        )
        assert res.rate == 1.0


@pytest.mark.parametrize("team", [quick_scenario, cube_scenario], ids=["planar", "cube"])
def test_setpoints_follow_the_leader_blend(team):
    sc = team()
    blended = run(dataclasses.replace(sc, leader_blend=True))
    series = setpoint_series(blended.plan, blended.times)
    roles = blended.plan.graph.roles
    anchor = (roles == ROLE_BOUNDARY) | (roles == ROLE_CORE)
    # the set-points' anchors are the closed loop's references at every frame,
    # so at t0 the propagation rebuilds the initial formation
    assert np.array_equal(series[:, anchor], blended.desired[:, anchor])
    scale = np.ptp(sc.formation.positions, axis=0).max()
    assert np.abs(series[0] - sc.formation.positions).max() <= 1e-12 * scale
    # without the blend the anchors rest at their final positions
    plan = make_plan(sc)
    ramp = beta(blended.times, sc.t0, sc.tf)
    want = propagate_setpoints(plan.graph, plan.schedule, plan.desired.p, ramp)
    assert np.array_equal(setpoint_series(plan, blended.times), want)


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
    team=functools.partial(quick_scenario, seed=3, n=16, nb=5, uncoop=1),
    leader_blend=True,
    dt=0.01,
    steps=100,
    log_every=10,
    tf_share=0.5,
)
@example(team=cube_scenario, leader_blend=True, dt=0.04, steps=1, log_every=1, tf_share=1.0)
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
    # blend, 2-D and 3-D teams, and runs that end inside a block, on a block
    # edge or after one step
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


def _scaled(sc, k, relabel=int):
    """``sc`` with its agents, targets and zone scaled by ``k`` about the
    origin, and agent id i renamed ``relabel(i)``."""
    f = sc.formation
    ids = [relabel(i) for i in f.ids]
    return manual_scenario(
        Formation.build(ids, k * f.positions, declared_boundary=[ids[b] for b in f.boundary]),
        k * sc.targets.samples,
        zone=k * sc.targets.zone,
    )


def test_certified_blocks_skip_the_full_state_product(monkeypatch):
    # Default 2-D and 3-D runs never step one step at a time: every block is
    # advanced by positions only and cleared by its certificate. A bound
    # that always failed would pass every other test and only run slower.
    plans = [make_plan(quick_scenario()), make_plan(cube_scenario())]
    step = dynamics.step

    def refuse(*args):
        raise AssertionError("stepwise replay on a certified run")

    monkeypatch.setattr(dynamics, "step", refuse)
    for plan in plans:
        engine._integrate(plan)
    # The same team scaled to about 2e5 m: blocks fail the certificate and
    # are replayed through ``step``, which stays within the bound.
    plan = make_plan(_scaled(quick_scenario(), 2e4))
    calls = []
    monkeypatch.setattr(dynamics, "step", lambda *args: calls.append(1) or step(*args))
    got, want = engine._integrate(plan), stepwise_integrate(plan)
    assert calls
    assert np.abs(want.positions).max() > 1e5
    assert np.max(np.abs(got.positions - want.positions)) <= 1e-12 * np.abs(want.positions).max()
    assert np.array_equal(got.converged, want.converged)


def test_pass_length_keeps_the_run(monkeypatch):
    # A pass moves each layer through several blocks at once; its blends,
    # products and sums are those of one block per pass, bit for bit, on an
    # N = 40 team, a run that ends inside a block, the 3-D leader blend and
    # with every block replayed through ``step``.
    base = quick_scenario(seed=1, n=40, nb=10, uncoop=2)
    cases = (
        base,
        dataclasses.replace(base, t_end=1.37, tf=0.5),
        dataclasses.replace(cube_scenario(), leader_blend=True),
    )
    plans = [make_plan(sc) for sc in cases]
    for plan in plans:  # each case takes several blocks per pass by default
        assert engine._PASS // (plan.desired.p.size * engine._BLOCK) > 1
    step, calls = dynamics.step, []
    monkeypatch.setattr(dynamics, "step", lambda *args: calls.append(1) or step(*args))
    runs, default = {}, engine._PASS
    for refused in (False, True):
        if refused:
            monkeypatch.setattr(dynamics, "certified", lambda *args: False)
        for cells in (default, 1):
            monkeypatch.setattr(engine, "_PASS", cells)
            for k, plan in enumerate(plans):
                calls.clear()
                runs[refused, cells, k] = engine._integrate(plan)
                sc = plan.scenario
                assert len(calls) == (round((sc.t_end - sc.t0) / sc.dt) if refused else 0)
    for (refused, cells, k), got in runs.items():
        want = runs[False, 1, k]
        for name in ("times", "positions", "desired", "converged", "terminal_error"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), (refused, cells, k, name)


def test_uncertified_blocks_keep_the_trajectory(monkeypatch):
    # A block that fails the certificate is replayed through ``step``, which
    # never writes the trajectory: with every block failing it, the logs and
    # verdicts are those of the certified run, bit for bit.
    # Runs that end on a block edge (100 steps) and inside a block (137).
    base = quick_scenario()
    cases = (
        base,
        dataclasses.replace(cube_scenario(), leader_blend=True),
        dataclasses.replace(base, t_end=1.0, tf=0.5),
        dataclasses.replace(base, t_end=1.37, tf=0.5),
    )
    plans = [make_plan(sc) for sc in cases]
    certified = [engine._integrate(plan) for plan in plans]
    step, calls = dynamics.step, []
    monkeypatch.setattr(dynamics, "certified", lambda *args: False)
    monkeypatch.setattr(dynamics, "step", lambda *args: calls.append(1) or step(*args))
    for plan, want in zip(plans, certified):
        calls.clear()
        got = engine._integrate(plan)
        sc = plan.scenario
        assert len(calls) == round((sc.t_end - sc.t0) / sc.dt)  # m calls per block of m steps
        for name in ("times", "positions", "desired", "converged", "terminal_error"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name


class TestTrackingReport:
    def test_fixed_point_error_is_zero(self):
        res = run(_fixed_point_scenario())
        series = setpoint_series(res.plan, res.times)
        report = tracking_error_report(res, res.times, series)
        assert np.max(report.errors) < 1e-12

    def test_anchor_terminal_error_small(self):
        sc = quick_scenario(seed=3, n=30, nb=8)
        res = run(sc)
        for b in sc.formation.boundary:
            assert res.terminal_error[b] < 1e-3

    def test_error_tail_monotone_for_converged_agents(self):
        sc = quick_scenario(seed=3, n=30, nb=8)
        res = run(sc)
        series = setpoint_series(res.plan, res.times)
        report = tracking_error_report(res, res.times, series)
        tail = res.times >= res.times[-1] - 5.0
        errs = report.errors[tail]
        for a in np.flatnonzero(res.converged):
            e = errs[:, a]
            assert np.all(np.diff(e) <= 1e-12)

    def test_grid_mismatch(self):
        res = run(_fixed_point_scenario())
        series = setpoint_series(res.plan, res.times)
        with pytest.raises(GridMismatch):
            tracking_error_report(res, res.times[:-1], series[:-1])

    def test_setpoint_residual_over_logged_grid(self):
        # the all-times series equals the dense solve at every time, in 2-D and 3-D
        for sc in (quick_scenario(seed=4, n=24, nb=6, uncoop=1), cube_scenario()):
            plan = make_plan(sc)
            times = np.linspace(sc.t0, sc.t_end, 9)
            series = setpoint_series(plan, times)
            assert series.shape == (9, sc.formation.n_agents, sc.formation.dim)
            anchors = plan.desired.p
            for s, b in zip(series, beta(times, sc.t0, sc.tf)):
                dense = solve_setpoints_dense(plan.graph, plan.schedule, anchors, b)
                assert np.max(np.abs(s - dense)) <= 1e-12
                assert setpoint_residual(plan.graph, plan.schedule, anchors, s, b) <= 1e-12
