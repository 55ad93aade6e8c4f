import numpy as np
import pytest

from conftest import quick_scenario, square_core_formation
from swarm_transport.engine import make_plan
from swarm_transport.errors import BadInterval
from swarm_transport.formation import build_actual
from swarm_transport.targets import TargetSet, compute_desired, leader_final_positions
from swarm_transport.weights import WeightSchedule, beta, build_schedule, weights_at


class TestBeta:
    def test_endpoints(self):
        assert beta(0.0, 0.0, 15.0) == 0.0
        assert beta(15.0, 0.0, 15.0) == 1.0

    def test_midpoint_symmetry(self):
        assert beta(7.5, 0.0, 15.0) == pytest.approx(0.5, abs=1e-15)

    def test_quarter_point_exact(self):
        # 10*t^3 - 15*t^4 + 6*t^5 at t = 1/4, every term a dyadic rational
        assert beta(0.25, 0.0, 1.0) == 0.103515625

    def test_clamped_outside_interval(self):
        assert beta(-3.0, 0.0, 1.0) == 0.0
        assert beta(99.0, 0.0, 1.0) == 1.0

    def test_bad_interval(self):
        with pytest.raises(BadInterval):
            beta(0.0, 5.0, 5.0)

    def test_monotone_on_dense_grid(self):
        ts = np.linspace(-1.0, 16.0, 10_000)
        vals = [beta(t, 0.0, 15.0) for t in ts]
        assert all(b2 >= b1 for b1, b2 in zip(vals, vals[1:]))

    def test_flat_endpoint_derivatives(self):
        t0, tf = 2.0, 17.0
        h = 1e-4 * (tf - t0)
        d0 = (beta(t0 + h, t0, tf) - beta(t0, t0, tf)) / h
        d1 = (beta(tf, t0, tf) - beta(tf - h, t0, tf)) / h
        assert abs(d0) < 1e-6
        assert abs(d1) < 1e-6


def _planned(seed=3, n=28, nb=7, uncoop=0):
    sc = quick_scenario(seed=seed, n=n, nb=nb, uncoop=uncoop)
    return make_plan(sc)


def _by_mentee(weights, schedule):
    """(M, n+1) weight rows keyed by mentee id."""
    return dict(zip(schedule.mentees, weights))


def _one_mentee_schedule(targets, ring, spot=(2.0, 1.0)):
    """Schedule of the square formation with one follower, agent 6 at ``spot``."""
    form = square_core_formation(extra=[spot])
    graph = build_actual(form)
    desired = compute_desired(
        graph, form, targets, leader_final_positions(form, targets, explicit=ring)
    )
    return build_schedule(graph, form, desired, 0.0, 1.0), desired


class TestInitialWeights:
    def test_mentee_at_mentor_centroid(self):
        ring = {1: (0.0, 0.0), 2: (4.0, 0.0), 3: (4.0, 4.0), 4: (0.0, 4.0)}
        targets = TargetSet(samples=np.array([[2.0, 1.0]]))
        sched, _ = _one_mentee_schedule(targets, ring, spot=(2.0, 2.0 / 3.0))
        assert sched.mentees == (6,)
        assert np.allclose(sched.omega[0], [1 / 3, 1 / 3, 1 / 3], atol=1e-12)

    def test_random_mentee_matches_lstsq_oracle(self):
        plan = _planned(seed=8)
        form = plan.scenario.formation
        for a, w in _by_mentee(plan.schedule.omega, plan.schedule).items():
            verts = np.array([form.position(m) for m in plan.graph.mentors[a]])
            mat = np.vstack([verts.T, np.ones(3)])
            rhs = np.append(form.position(a), 1.0)
            oracle, *_ = np.linalg.lstsq(mat, rhs, rcond=None)
            assert np.allclose(w, oracle, atol=1e-9)

    def test_reconstruction_residual(self):
        plan = _planned(seed=12, n=40, nb=9)
        form = plan.scenario.formation
        for a, w in _by_mentee(plan.schedule.omega, plan.schedule).items():
            verts = np.array([form.position(m) for m in plan.graph.mentors[a]])
            scale = max(1.0, float(np.max(np.abs(verts))))
            assert np.linalg.norm(w @ verts - form.position(a)) < 1e-9 * scale
            assert abs(w.sum() - 1.0) < 1e-9


class TestFinalWeights:
    def test_fallback_agent_gets_equal_weights(self):
        ring = {1: (-1.0, -1.0), 2: (5.0, -1.0), 3: (5.0, 5.0), 4: (-1.0, 5.0)}
        targets = TargetSet(samples=np.array([[3.9, 3.9]]))
        sched, desired = _one_mentee_schedule(targets, ring)
        assert 6 in desired.fallback_ids
        assert np.allclose(sched.varpi[0], [1 / 3, 1 / 3, 1 / 3], atol=1e-12)

    def test_mentee_on_mentor_position_gets_indicator(self):
        ring = {1: (-1.0, -1.0), 2: (5.0, -1.0), 3: (5.0, 5.0), 4: (-1.0, 5.0)}
        # one sample exactly at the core's held position
        targets = TargetSet(samples=np.array([[2.0, 2.0]]))
        sched, _ = _one_mentee_schedule(targets, ring)
        assert np.allclose(sched.varpi[0], [0.0, 0.0, 1.0], atol=1e-12)

    def test_reconstruction(self):
        plan = _planned(seed=5, n=36, nb=8, uncoop=2)
        for a, w in _by_mentee(plan.schedule.varpi, plan.schedule).items():
            verts = np.array([plan.desired.p[m] for m in plan.graph.mentors[a]])
            scale = max(1.0, float(np.max(np.abs(verts))))
            assert np.linalg.norm(w @ verts - plan.desired.p[a]) < 1e-9 * scale
            assert float(w.min()) >= 0.0


class TestWeightsAt:
    def test_returns_omega_at_start(self):
        plan = _planned()
        w = weights_at(plan.schedule, plan.schedule.t0)
        assert np.array_equal(w, plan.schedule.omega)

    def test_returns_varpi_past_tf(self):
        plan = _planned()
        for t in (plan.schedule.tf, plan.schedule.tf + 4.0):
            assert np.array_equal(weights_at(plan.schedule, t), plan.schedule.varpi)

    def test_halfway_blend(self):
        sched = WeightSchedule(
            mentees=(9,),
            rows=np.array([8]),
            mentors=np.array([[0, 1, 2]]),
            omega=np.array([[1.0, 0.0, 0.0]]),
            varpi=np.array([[0.0, 1.0, 0.0]]),
            t0=0.0,
            tf=2.0,
        )
        w = weights_at(sched, 1.0)[0]
        assert np.allclose(w, [0.5, 0.5, 0.0], atol=1e-15)

    def test_row_stochastic_and_bounded_below(self):
        plan = _planned(seed=21, n=34, nb=8, uncoop=1)
        rng = np.random.default_rng(0)
        sched = plan.schedule
        for _ in range(300):
            t = rng.uniform(sched.t0 - 1.0, sched.tf + 2.0)
            w = weights_at(sched, t)
            k = int(rng.integers(len(sched.mentees)))
            assert abs(w[k].sum() - 1.0) < 1e-12
            assert np.all(w[k] >= 0.0)
            floor = np.minimum(sched.omega[k], sched.varpi[k])
            assert np.all(w[k] >= floor - 1e-15)

    def test_build_schedule_rejects_bad_interval(self):
        plan = _planned()
        with pytest.raises(BadInterval):
            build_schedule(
                plan.graph, plan.scenario.formation, plan.desired, 5.0, 5.0
            )
