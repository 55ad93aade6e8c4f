"""Global desired set-points from the mentor weights.

Stacked over all agents, the set-points satisfy one sparse linear relation:
the communication matrix has -1 on the diagonal, zero off-diagonals on
anchor rows (hull agents, core, clamped agents) and the mentor weights on
follower rows, so follower rows sum to zero. Because mentors always sit in
strictly earlier layers, the relation is solved exactly by propagating the
anchors forward one mentor layer at a time, for all output times at once.
The anchors are fixed, or given per time when they move with the ramp (the
leader blend).
The propagation reads the mentor graph's (M,) mentee rows and (M, n+1)
mentor rows beside the schedule's weights of the same shape. Rows are
formation rows throughout, the order the trace and the writers use, and
time is the innermost axis of every blend (``blend``, which the closed loop
shares, of the weights ``weights.weights_at`` gives at each ramp value, as
the closed loop's are). The CSR matrix and the dense partitioned solve live
with the tests, as independent oracles for the propagation.
"""

from __future__ import annotations

import numpy as np

from .formation import LayeredGraph
from .weights import WeightSchedule, weights_at


def blend(w: np.ndarray, x: np.ndarray, out=None) -> np.ndarray:
    """Convex blends of mentor positions, time innermost: ``out[k, d, t]`` is
    the sum over mentors j of ``w[k, j, t] * x[k, j, d, t]``, added in mentor
    order; a ``w`` with one time applies to every time."""
    return np.einsum("kjt,kjdt->kdt", w, x, out=out)


def propagate_setpoints(
    graph: LayeredGraph,
    schedule: WeightSchedule,
    anchors: np.ndarray,
    ramp,
) -> np.ndarray:
    """Set-points at T ramp values (``weights.beta`` of the output times) by
    forward substitution, shaped (T, N, n).

    ``anchors`` is (N, n), or (N, n, T) for anchors that move with the
    ramp, in formation row order; its anchor rows are the boundary data and
    its follower rows are ignored.
    """
    anchors = np.asarray(anchors, dtype=float)
    b = np.asarray(ramp, dtype=float)
    s = np.empty((*anchors.shape[:2], len(b)))  # (N, n, T)
    s[...] = anchors if anchors.ndim == 3 else anchors[:, :, None]
    starts = graph.layer_starts
    for sl in map(slice, starts[:-1], starts[1:]):
        w = weights_at(schedule.omega[sl], schedule.varpi[sl], b)
        s[graph.mentees[sl]] = blend(w, s[graph.mentors[sl]])
    return s.transpose(2, 0, 1)
