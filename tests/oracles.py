"""Reference implementations that the fast paths are tested against."""

import numpy as np

from swarm_transport import dynamics
from swarm_transport.engine import SimTrace, convergence_check
from swarm_transport.errors import Diverged
from swarm_transport.formation import ROLE_BOUNDARY, ROLE_COOPERATIVE, ROLE_CORE
from swarm_transport.weights import beta, weights_at


def staged_rk4(state, r_d, gains, dt):
    """Classic four-stage RK4 on the state with ``r_d`` held."""
    state = np.asarray(state, dtype=float)
    r_d = np.asarray(r_d, dtype=float)

    def deriv(x):
        v = dynamics.virtual_control(x, r_d, gains)
        return np.concatenate([x[..., 1:, :], v[..., None, :]], axis=-2)

    s1 = deriv(state)
    s2 = deriv(state + 0.5 * dt * s1)
    s3 = deriv(state + 0.5 * dt * s2)
    s4 = deriv(state + dt * s3)
    return state + (dt / 6.0) * (s1 + 2.0 * s2 + 2.0 * s3 + s4)


def stepwise_integrate(plan, step=dynamics.step) -> SimTrace:
    """The closed loop one step for the whole team at a time: every
    follower's r_d is the blend of its mentors' positions at that step, and
    ``step(states, r_d, phi)`` advances all agents. Same trace and errors as
    ``engine._integrate``."""
    sc = plan.scenario
    graph = plan.graph
    ids = sc.formation.ids
    coop = graph.roles == ROLE_COOPERATIVE
    anchor = (graph.roles == ROLE_BOUNDARY) | (graph.roles == ROLE_CORE)
    p_arr = plan.desired.p
    a_arr = sc.formation.positions

    steps = int(round((sc.t_end - sc.t0) / sc.dt))
    log_every = int(round(sc.output_period / sc.dt))
    states = dynamics.initial_state(a_arr)  # (N, 4, n)
    phi = dynamics.rk4_map(sc.gains, sc.dt)

    times, pos_log, des_log = [], [], []
    for k in range(steps + 1):
        t = sc.t0 + k * sc.dt
        r = states[:, 0, :]
        r_d = p_arr.copy()
        if sc.leader_blend:
            b = beta(t, sc.t0, sc.tf)
            r_d[anchor] = (1.0 - b) * a_arr[anchor] + b * p_arr[anchor]
        r_d[graph.mentees] = np.einsum("mk,mkd->md", weights_at(plan.schedule, t), r[graph.mentors])
        if k % log_every == 0 or k == steps:
            times.append(t)
            pos_log.append(r.copy())
            des_log.append(r_d.copy())
        if k == steps:
            break
        try:
            states = step(states, r_d, phi)
        except Diverged as exc:
            worst = ids[int(np.argmax(np.abs(states).max(axis=(1, 2))))]
            raise Diverged(f"agent {worst} diverged near t = {t:.3f} s") from exc

    final = pos_log[-1]
    converged = np.zeros(len(ids), dtype=bool)
    converged[coop] = convergence_check(final[coop], sc.targets.zone_polygon(), sc.margin)
    evaluated = int(coop.sum())
    return SimTrace(
        ids=ids,
        roles=graph.roles,
        layer=graph.layer,
        times=np.array(times),
        positions=np.array(pos_log),
        desired=np.array(des_log),
        converged=converged,
        rate=float(converged.sum() / evaluated if evaluated else 1.0),
        terminal_error=np.linalg.norm(final - p_arr, axis=1),
    )
