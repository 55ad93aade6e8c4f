"""Shared builders for small, fully-specified formations and scenarios."""

import numpy as np

from swarm_transport.dynamics import DEFAULT_GAINS
from swarm_transport.engine import Scenario
from swarm_transport.formation import Formation
from swarm_transport.scenario import GenerateParams, generate_scenario
from swarm_transport.targets import TargetSet


def square_core_formation(extra=(), uncooperative=(), core=None):
    """Unit recipe: 4 boundary corners of a 4x4 square, core at the center,
    optional extra interior agents with ids 6, 7, ..."""
    ids = [1, 2, 3, 4, 5]
    pos = [(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0), (2.0, 2.0)]
    for k, xy in enumerate(extra):
        ids.append(6 + k)
        pos.append((float(xy[0]), float(xy[1])))
    return Formation.build(
        ids, pos, (2.0, 2.0), uncooperative=uncooperative, core_id=core
    )


def final_positions(plan):
    """Planned final positions in formation row order, shaped (N, n)."""
    return np.array([plan.desired.p[a] for a in plan.scenario.formation.ids])


def quick_scenario(seed=0, n=24, nb=6, uncoop=0, **kwargs):
    params = GenerateParams(
        n_agents=n, n_boundary=nb, n_uncooperative=uncoop, **kwargs
    )
    return generate_scenario(params, seed)


def manual_scenario(
    formation,
    samples,
    zone=None,
    leader_positions=None,
    gains=DEFAULT_GAINS,
    t0=0.0,
    tf=15.0,
    t_end=25.0,
    dt=0.01,
    output_period=0.1,
    margin=0.10,
    **kwargs,
):
    samples = np.asarray(samples, dtype=float).reshape(-1, formation.dim)
    targets = TargetSet(
        samples=samples,
        zone=None if zone is None else np.asarray(zone, dtype=float),
    )
    if leader_positions is not None:
        leader_positions = {
            int(a): np.asarray(p, dtype=float) for a, p in leader_positions.items()
        }
    return Scenario(
        formation=formation,
        targets=targets,
        gains=gains,
        t0=t0,
        tf=tf,
        t_end=t_end,
        dt=dt,
        margin=margin,
        output_period=output_period,
        leader_mode="explicit" if leader_positions is not None else "generated",
        leader_positions=leader_positions,
        **kwargs,
    )


def cube_scenario():
    """3-D team: 8 corners of a 4-cube as the hull, the core at its center,
    nine seeded interior agents (agent 13 clamped and mentoring agent 10),
    anchors sent explicitly to the corners of the [1, 3]^3 target cube and
    jittered grid samples inside it."""
    corners = [(x, y, z) for x in (0.0, 4.0) for y in (0.0, 4.0) for z in (0.0, 4.0)]
    rng = np.random.default_rng(3)
    interior = [(2.0, 2.0, 2.0)] + [tuple(p) for p in rng.uniform(0.6, 3.4, (9, 3))]
    form = Formation.build(
        range(1, 19), corners + interior, (2.0, 2.0, 2.0), uncooperative=[13]
    )
    target = [(x, y, z) for x in (1.0, 3.0) for y in (1.0, 3.0) for z in (1.0, 3.0)]
    axis = np.linspace(1.2, 2.8, 5)
    grid = np.array([(x, y, z) for x in axis for y in axis for z in axis])
    samples = grid + rng.uniform(-0.1, 0.1, grid.shape)
    leaders = {b: target[b - 1] for b in range(1, 9)}
    return manual_scenario(form, samples, zone=target, leader_positions=leaders)
