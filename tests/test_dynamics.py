import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import staged_rk4
from swarm_transport.dynamics import (
    DEFAULT_GAINS,
    Gains,
    advance,
    block_maps,
    check_hurwitz,
    initial_state,
    rk4_map,
    step,
    virtual_control,
)
from swarm_transport.errors import Diverged


def quartic_step_response(t):
    """Closed-form unit step response of 16/(s+2)^4 (partial fractions)."""
    t = np.asarray(t, dtype=float)
    return 1.0 - np.exp(-2.0 * t) * (1.0 + 2.0 * t + 2.0 * t**2 + (4.0 / 3.0) * t**3)


def _integrate(state, r_d, gains, dt, t_final):
    phi = rk4_map(gains, dt)
    n = int(round(t_final / dt))
    for _ in range(n):
        state = step(state, r_d, phi)
    return state


class TestHurwitz:
    def test_quadruple_pole_gains_accepted(self):
        # (s+2)^4 = s^4 + 8 s^3 + 24 s^2 + 32 s + 16
        assert check_hurwitz(Gains(8.0, 24.0, 32.0, 16.0))

    def test_unit_gains_rejected(self):
        # k1*k2 - k3 = 0 fails the strict Routh inequality
        assert not check_hurwitz(Gains(1.0, 1.0, 1.0, 1.0))

    @pytest.mark.parametrize("bad", [(-1, 24, 32, 16), (8, 0, 32, 16), (8, 24, 32, 0)])
    def test_nonpositive_gain_rejected(self, bad):
        assert not check_hurwitz(Gains(*map(float, bad)))


class TestVirtualControl:
    def test_zero_at_equilibrium(self):
        state = initial_state([3.0, -1.0])
        v = virtual_control(state, [3.0, -1.0], DEFAULT_GAINS)
        assert np.array_equal(v, np.zeros(2))

    def test_pure_position_term(self):
        state = initial_state([0.0, 0.0])
        v = virtual_control(state, [1.0, 0.0], Gains(8.0, 24.0, 32.0, 16.0))
        assert np.array_equal(v, [16.0, 0.0])

    def test_matches_independent_formula(self):
        rng = np.random.default_rng(17)
        g = Gains(*rng.uniform(1, 30, 4))
        for _ in range(50):
            state = rng.standard_normal((4, 3))
            r_d = rng.standard_normal(3)
            v = virtual_control(state, r_d, g)
            # duplicate evaluation, scalar loop
            for axis in range(3):
                expected = (
                    -g.k1 * state[3, axis]
                    - g.k2 * state[2, axis]
                    - g.k3 * state[1, axis]
                    + g.k4 * (r_d[axis] - state[0, axis])
                )
                assert v[axis] == pytest.approx(expected, rel=1e-15, abs=1e-15)


class TestStep:
    def test_equilibrium_is_exact_fixed_point(self):
        state = initial_state([2.0, 5.0])
        out = step(state, [2.0, 5.0], rk4_map(DEFAULT_GAINS, 0.01))
        assert np.array_equal(out, state)

    def test_settles_below_micron_within_30s(self):
        state = initial_state([0.0])
        out = _integrate(state, np.array([1.0]), DEFAULT_GAINS, 0.01, 30.0)
        assert abs(out[0, 0] - 1.0) < 1e-6
        assert np.max(np.abs(out[1:])) < 1e-6

    def test_step_response_matches_closed_form(self):
        state = initial_state([0.0])
        dt = 0.001
        for t_check in (0.5, 1.0, 2.0, 5.0):
            out = _integrate(initial_state([0.0]), np.array([1.0]), DEFAULT_GAINS, dt, t_check)
            assert out[0, 0] == pytest.approx(float(quartic_step_response(t_check)), abs=1e-9)

    def test_rk4_error_shrinks_sixteen_fold(self):
        exact = float(quartic_step_response(1.0))

        def err(dt):
            out = _integrate(initial_state([0.0]), np.array([1.0]), DEFAULT_GAINS, dt, 1.0)
            return abs(out[0, 0] - exact)

        ratio = err(0.02) / err(0.01)
        assert 12.0 <= ratio <= 20.0

    def test_axes_decouple(self):
        rng = np.random.default_rng(2)
        state2 = rng.standard_normal((4, 2))
        r_d = rng.standard_normal(2)
        phi = rk4_map(DEFAULT_GAINS, 0.05)
        out2 = step(state2, r_d, phi)
        for axis in range(2):
            out1 = step(state2[:, axis : axis + 1], r_d[axis : axis + 1], phi)
            assert np.array_equal(out2[:, axis : axis + 1], out1)

    def test_batched_agents_match_individual(self):
        rng = np.random.default_rng(4)
        batch = rng.standard_normal((5, 4, 2))
        r_d = rng.standard_normal((5, 2))
        phi = rk4_map(DEFAULT_GAINS, 0.02)
        out = step(batch, r_d, phi)
        for k in range(5):
            assert np.array_equal(out[k], step(batch[k], r_d[k], phi))

    def test_divergence_detected(self):
        state = initial_state([0.0])
        with pytest.raises(Diverged):
            # wrong-sign position feedback pushes the state away
            _integrate(state, np.array([1.0]), Gains(8.0, 24.0, 32.0, -1e6), 0.01, 5.0)

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError):
            step(initial_state([0.0]), [0.0], rk4_map(DEFAULT_GAINS, 0.0))

    def test_rows_at_rest_stay_bitwise_fixed_in_a_batch(self):
        rng = np.random.default_rng(6)
        for n in (1, 2, 3):
            batch = rng.standard_normal((7, 4, n))
            r_d = rng.standard_normal((7, n))
            rest = np.array([True, False, True, True, False, False, True])
            batch[rest] = initial_state(r_d[rest])
            out = step(batch, r_d, rk4_map(DEFAULT_GAINS, 0.01))
            assert np.array_equal(out[rest], batch[rest])
            assert np.all(np.any(out[~rest] != batch[~rest], axis=(1, 2)))


def _stepped(e, u, p, phi):
    """Error states after each of len(u) ``step`` calls, as ``advance`` lays
    them out: chains (C,) of a (4, C) error state, inputs (m, C)."""
    state = (e + np.eye(4)[:, :1] * p).T[:, :, None]  # (C, 4, 1)
    out = []
    for u_j in u:
        state = step(state, (u_j + p)[:, None], phi)
        out.append(state[:, :, 0] - np.eye(4)[0] * p[:, None])
    return np.stack(out, axis=1).reshape(len(p), -1)


class TestAdvance:
    def test_rest_stays_exactly_zero(self):
        maps = block_maps(rk4_map(DEFAULT_GAINS, 0.01), 50)
        z = np.zeros((3, 54))
        z[1] = 1e-3  # one moving chain beside two at rest
        out = np.full((3, 200), np.nan)
        assert advance(maps, z, np.array([7.0, -2.5, 1e5]), out) == 50
        assert np.all(out[[0, 2]] == 0.0) and np.all(out[1] != 0.0)

    def test_counts_steps_within_the_bound(self):
        # wrong-sign position feedback: the count is the step before the
        # first state that ``step`` refuses, for any block size
        phi = rk4_map(Gains(8.0, 24.0, 32.0, -1e6), 0.01)
        z = np.zeros((2, 4 + 40))
        z[0, 0] = -1.0
        steps_ok = 0
        state = initial_state([[0.0], [1.0]])
        while True:
            try:
                state = step(state, [[1.0], [1.0]], phi)
            except Diverged:
                break
            steps_ok += 1
        assert 0 < steps_ok < 40
        for size in (40, 60):
            assert advance(block_maps(phi, size), z, np.ones(2), np.empty((2, 160))) == steps_ok
        assert advance(block_maps(phi, 40), z[:, : 4 + steps_ok], np.ones(2), np.empty((2, 4 * steps_ok))) == steps_ok
        # positions count too: a chain at rest beyond the bound fails at once, as in ``step``
        with pytest.raises(Diverged):
            step(initial_state([2e6]), [2e6], phi)
        assert advance(block_maps(phi, 40), np.zeros((1, 44)), np.array([2e6]), np.empty((1, 160))) == 0


class TestRk4Map:
    def test_spectral_radius_is_the_rk4_stability_function(self):
        # quadruple pole -p: every eigenvalue of the map is R(-p dt), R(z) = sum z^j / j!
        for p, dt in ((2.0, 0.01), (300.0, 0.01), (300.0, 0.009)):
            z = -p * dt
            r = 1.0 + z + z**2 / 2.0 + z**3 / 6.0 + z**4 / 24.0
            gains = Gains(4 * p, 6 * p**2, 4 * p**3, p**4)
            radius = np.max(np.abs(np.linalg.eigvals(rk4_map(gains, dt))))
            assert radius == pytest.approx(abs(r), rel=1e-2)
            assert (radius < 1.0) == (abs(r) < 1.0)

    @pytest.mark.parametrize("dt", [-0.01, float("nan")])
    def test_rejects_nonpositive_dt(self, dt):
        with pytest.raises(ValueError):
            rk4_map(DEFAULT_GAINS, dt)


@st.composite
def hurwitz_gains_and_dt(draw):
    """Gains from four poles in the open left half-plane (real pairs or
    complex-conjugate pairs, magnitude 0.2-4) and a dt inside RK4's
    stability region for them."""
    poles = []
    for _ in range(2):
        rho = draw(st.floats(0.2, 4.0))
        angle = draw(st.floats(0.0, 1.3))  # from the negative real axis
        if draw(st.booleans()):
            poles += [-rho * np.exp(1j * angle), -rho * np.exp(-1j * angle)]
        else:
            poles += [-rho, -rho * draw(st.floats(0.2, 1.0))]
    k = np.poly(poles).real
    gains = Gains(*map(float, k[1:]))
    assume(check_hurwitz(gains))
    dt = draw(st.floats(0.01, 2.0)) / max(abs(p) for p in poles)
    assume(np.max(np.abs(np.linalg.eigvals(rk4_map(gains, dt)))) < 1.0)
    return gains, dt


@settings(max_examples=100, deadline=None)
@given(
    hurwitz_gains_and_dt(),
    st.integers(1, 6),
    st.sampled_from([1, 2, 3]),
    st.floats(1e-3, 1e3),
    st.integers(0, 2**32 - 1),
)
def test_step_matches_staged_rk4(gains_dt, n_agents, n, scale, seed):
    gains, dt = gains_dt
    rng = np.random.default_rng(seed)
    state = scale * rng.standard_normal((n_agents, 4, n))
    r_d = scale * rng.standard_normal((n_agents, n))
    out = step(state, r_d, rk4_map(gains, dt))
    oracle = staged_rk4(state, r_d, gains, dt)
    bound = 1e-12 * max(1.0, np.max(np.abs(state)), np.max(np.abs(r_d)))
    assert np.max(np.abs(out - oracle)) <= bound


@settings(max_examples=60, deadline=None)
@given(
    hurwitz_gains_and_dt(),
    st.integers(1, 6),
    st.integers(1, 60),
    st.integers(0, 10),
    st.floats(1e-3, 1e3),
    st.integers(0, 2**32 - 1),
)
def test_advance_matches_repeated_steps(gains_dt, chains, m, spare, scale, seed):
    gains, dt = gains_dt
    phi = rk4_map(gains, dt)
    rng = np.random.default_rng(seed)
    p = scale * rng.standard_normal(chains)
    z = scale * rng.standard_normal((chains, 4 + m))
    out = np.empty((chains, 4 * m))
    assert advance(block_maps(phi, m + spare), z, p, out) == m
    oracle = _stepped(z[:, :4].T, z[:, 4:].T, p, phi)
    bound = 1e-12 * max(1.0, np.max(np.abs(z)), np.max(np.abs(p)), np.max(np.abs(oracle)))
    assert np.max(np.abs(out - oracle)) <= bound
