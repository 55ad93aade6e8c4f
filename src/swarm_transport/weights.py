"""Convex communication weights: barycentric endpoints and the time blend.

Each mentee carries two weight vectors over its n+1 mentors: one expressing
its initial position in the mentors' initial positions, one expressing its
final position in the mentors' final positions. At run time the two are
blended by a minimum-jerk quintic ramp, so the weights stay nonnegative and
sum to one for every t; ``weights_at`` is that blend, for the closed loop
and the set-points alike.

The schedule keeps these weights as (M, n+1) arrays whose rows line up with
the mentor graph's ``mentees`` and ``mentors``; every consumer (closed
loop, set-points, writers) reads the two side by side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry
from .errors import BadInterval, DegenerateMentorSimplex
from .formation import Formation, LayeredGraph
from .targets import DesiredPositions


def beta(t, t0: float, tf: float) -> float | np.ndarray:
    """Minimum-jerk quintic ramp: 0 at t0, 1 at tf, clamped outside.

    First and second derivatives vanish at both endpoints. A float ``t``
    gives a float, an array of times the array of ramp values.
    """
    if tf <= t0:
        raise BadInterval(f"blend interval must satisfy t0 < tf, got [{t0}, {tf}]")
    tau = np.clip((np.asarray(t, dtype=float) - t0) / (tf - t0), 0.0, 1.0)
    b = tau * tau * tau * (10.0 - 15.0 * tau + 6.0 * tau * tau)
    return b if b.ndim else float(b)


def weights_at(omega: np.ndarray, varpi: np.ndarray, b) -> np.ndarray:
    """(1 - b) omega + b varpi at the T ramp values ``b``, (M, n+1, T), time
    innermost; where every value is 1, the final weights themselves, (M, n+1, 1)."""
    b = np.asarray(b, dtype=float)
    return varpi[:, :, None] if (b == 1.0).all() else (1.0 - b) * omega[:, :, None] + b * varpi[:, :, None]


@dataclass(frozen=True)
class WeightSchedule:
    """Endpoint weights of every mentee; the scenario owns the blend horizon.

    Row k holds the weights of mentee ``graph.mentees[k]`` over the mentor
    rows ``graph.mentors[k]``.
    """

    omega: np.ndarray  # (M, n+1) initial weights
    varpi: np.ndarray  # (M, n+1) final weights


def _endpoint_weights(graph: LayeredGraph, ids, points: np.ndarray) -> np.ndarray:
    """Weights of each mentee's point in its mentors' points, all at once, from
    each mentor simplex's inverse (``geometry.barycentric``). Negatives within
    ``geometry.CONTAINMENT_TOL``, the slack at which the planner takes a point
    as inside its mentors' simplex, are zeroed and each row renormalized to
    unit sum; the first row below it in mentee order (a sliver mentor simplex)
    raises ``DegenerateMentorSimplex``."""
    w = geometry.barycentric(points[graph.mentees], points[graph.mentors])
    low = np.flatnonzero(w.min(axis=1) < -geometry.CONTAINMENT_TOL)
    if len(low):
        k = low[0]
        raise DegenerateMentorSimplex(
            f"agent {ids[graph.mentees[k]]}: barycentric weight {w[k].min():.3e} below tolerance; "
            f"the point lies outside the simplex of its mentors {tuple(ids[m] for m in graph.mentors[k])}"
        )
    w = np.where(w < 0.0, 0.0, w)
    return w / w.sum(axis=1, keepdims=True)


def build_schedule(graph: LayeredGraph, formation: Formation, desired: DesiredPositions) -> WeightSchedule:
    return WeightSchedule(
        omega=_endpoint_weights(graph, formation.ids, formation.positions),
        varpi=_endpoint_weights(graph, formation.ids, desired.p),
    )
