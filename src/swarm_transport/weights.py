"""Convex communication weights: barycentric endpoints and the time blend.

Each mentee carries two weight vectors over its n+1 mentors: one expressing
its initial position in the mentors' initial positions, one expressing its
final position in the mentors' final positions. At run time the two are
blended by a minimum-jerk quintic ramp, so the weights stay nonnegative and
sum to one for every t.

The schedule keeps these weights in one array form indexed by formation
row, which every consumer (closed loop, set-points, writers) reads directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry
from .errors import BadInterval, DegenerateMentorSimplex, DegenerateSimplex
from .formation import Formation, LayeredGraph
from .targets import DesiredPositions

# Solver noise more negative than this is treated as a genuine violation.
NEGATIVE_WEIGHT_TOL = 1e-9


def beta(t: float, t0: float, tf: float) -> float:
    """Minimum-jerk quintic ramp: 0 at t0, 1 at tf, clamped outside.

    First and second derivatives vanish at both endpoints.
    """
    if tf <= t0:
        raise BadInterval(f"blend interval must satisfy t0 < tf, got [{t0}, {tf}]")
    tau = (t - t0) / (tf - t0)
    tau = min(max(tau, 0.0), 1.0)
    return tau**3 * (10.0 - 15.0 * tau + 6.0 * tau * tau)


@dataclass(frozen=True)
class WeightSchedule:
    """Mentor rows and endpoint weights of every mentee plus the blend horizon.

    Mentees are ordered by (layer, id), so each mentor layer is a contiguous
    slice and every mentor row precedes the rows it feeds.
    """

    mentees: tuple[int, ...]  # agent ids, sorted by (layer, id)
    rows: np.ndarray  # (M,) formation rows of the mentees
    mentors: np.ndarray  # (M, n+1) formation rows of each mentee's mentors
    omega: np.ndarray  # (M, n+1) initial weights
    varpi: np.ndarray  # (M, n+1) final weights
    t0: float
    tf: float


def _clean(w: np.ndarray, agent_id: int) -> np.ndarray:
    """Zero out solver-noise negatives and renormalize to unit sum."""
    if float(w.min()) < -NEGATIVE_WEIGHT_TOL:
        raise ValueError(
            f"agent {agent_id}: barycentric weight {w.min():.3e} below tolerance; "
            "the point lies outside its mentor simplex"
        )
    w = np.where(w < 0.0, 0.0, w)
    return w / w.sum()


def _endpoint_weights(mentees, rows, mentors, points: np.ndarray, error) -> np.ndarray:
    """Barycentric weights of each mentee's point in its mentors' points."""
    out = np.empty(mentors.shape)
    for k, a in enumerate(mentees):
        try:
            w = geometry.barycentric(points[rows[k]], points[mentors[k]])
        except DegenerateSimplex as exc:
            raise error(f"agent {a}: {exc}") from exc
        out[k] = _clean(w, a)
    return out


def build_schedule(
    graph: LayeredGraph,
    formation: Formation,
    desired: DesiredPositions,
    t0: float,
    tf: float,
) -> WeightSchedule:
    if tf <= t0:
        raise BadInterval(f"blend interval must satisfy t0 < tf, got [{t0}, {tf}]")
    mentees = tuple(sorted(graph.mentors, key=lambda a: (graph.layer_index[a], a)))
    rows = np.array([formation.index(a) for a in mentees], dtype=np.intp)
    mentors = np.array(
        [[formation.index(m) for m in graph.mentors[a]] for a in mentees], dtype=np.intp
    ).reshape(len(mentees), formation.dim + 1)
    final = np.array([desired.p[a] for a in formation.ids])
    return WeightSchedule(
        mentees=mentees,
        rows=rows,
        mentors=mentors,
        omega=_endpoint_weights(mentees, rows, mentors, formation.positions, DegenerateSimplex),
        varpi=_endpoint_weights(mentees, rows, mentors, final, DegenerateMentorSimplex),
        t0=float(t0),
        tf=float(tf),
    )


def weights_at(schedule: WeightSchedule, t: float) -> np.ndarray:
    """Convex blend of the endpoint weights at time t, shaped (M, n+1)."""
    b = beta(t, schedule.t0, schedule.tf)
    return (1.0 - b) * schedule.omega + b * schedule.varpi
