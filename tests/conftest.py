"""Shared builders for small, fully-specified formations and scenarios."""

import copy
import tempfile
from pathlib import Path

import numpy as np
import pytest

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
    return Formation.build(ids, pos, uncooperative=uncooperative, core_id=core)


def written(writer, *args) -> str:
    """The text that a table writer which streams to a path, such as
    ``reporting.trace_table``, puts in its file, read back."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        writer(*args, path)
        return path.read_bytes().decode()


class GridAxisAllocated(AssertionError):
    """A sample grid axis was about to be allocated."""


@pytest.fixture
def no_grid_axes(monkeypatch):
    """Make every three-argument ``np.arange``, the form that builds a sample
    grid's axes, raise ``GridAxisAllocated`` instead of allocating."""
    arange = np.arange

    def guarded(*args, **kwargs):
        if len(args) == 3:
            raise GridAxisAllocated(f"np.arange{args}")
        return arange(*args, **kwargs)

    monkeypatch.setattr(np, "arange", guarded)


def ancestors(graph, row):
    """Rows of the transitive mentors of ``row`` (excluding itself), by a
    walk over the mentor rows."""
    mentors_of = dict(zip(graph.mentees.tolist(), graph.mentors.tolist()))
    out: set[int] = set()
    stack = list(mentors_of.get(row, ()))
    while stack:
        m = stack.pop()
        if m not in out:
            out.add(m)
            stack.extend(mentors_of.get(m, ()))
    return frozenset(out)


def quick_scenario(seed=0, n=24, nb=6, uncoop=0, **kwargs):
    params = GenerateParams(
        n_agents=n, n_boundary=nb, n_uncooperative=uncoop, **kwargs
    )
    return generate_scenario(params, seed)


def hull_anchors(formation, leader_positions):
    """Anchors keyed by agent id as the (B, n) array in hull cycle order
    that ``Scenario.leader_positions`` holds."""
    return np.array([leader_positions[formation.ids[k]] for k in formation.boundary], dtype=float)


def manual_scenario(formation, samples, zone=None, leader_positions=None, **kwargs):
    """A Scenario of the given team and targets, its anchors keyed by agent
    id when given; other fields are passed on to ``Scenario`` and keep its
    defaults when not given."""
    samples = np.asarray(samples, dtype=float).reshape(-1, formation.dim)
    targets = TargetSet(
        samples=samples,
        zone=None if zone is None else np.asarray(zone, dtype=float),
    )
    if leader_positions is not None:
        leader_positions = hull_anchors(formation, leader_positions)
    return Scenario(formation=formation, targets=targets, leader_positions=leader_positions, **kwargs)


def unchecked(scenario, **changes):
    """A copy of ``scenario`` with ``changes`` made but not validated, for
    tests that run settings ``validate_scenario`` refuses."""
    out = copy.copy(scenario)
    for name, value in changes.items():
        object.__setattr__(out, name, value)  # Scenario is frozen
    return out


def cube_scenario():
    """3-D team: 8 corners of a 4-cube as the hull, the core at its center,
    nine seeded interior agents (agent 13 clamped and mentoring agent 10),
    anchors sent explicitly to the corners of the [1, 3]^3 target cube and
    jittered grid samples inside it."""
    corners = [(x, y, z) for x in (0.0, 4.0) for y in (0.0, 4.0) for z in (0.0, 4.0)]
    rng = np.random.default_rng(3)
    interior = [(2.0, 2.0, 2.0)] + [tuple(p) for p in rng.uniform(0.6, 3.4, (9, 3))]
    form = Formation.build(
        range(1, 19), corners + interior, uncooperative=[13]
    )
    target = [(x, y, z) for x in (1.0, 3.0) for y in (1.0, 3.0) for z in (1.0, 3.0)]
    axis = np.linspace(1.2, 2.8, 5)
    grid = np.array([(x, y, z) for x in axis for y in axis for z in axis])
    samples = grid + rng.uniform(-0.1, 0.1, grid.shape)
    leaders = {b: target[b - 1] for b in range(1, 9)}
    return manual_scenario(form, samples, zone=target, leader_positions=leaders)
