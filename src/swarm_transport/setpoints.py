"""Global desired set-points from the mentor weights.

Stacked over all agents, the set-points satisfy one sparse linear relation:
the communication matrix has -1 on the diagonal, zero off-diagonals on
anchor rows (hull agents, core, clamped agents) and the mentor weights on
follower rows, so follower rows sum to zero. Because mentors always sit in
strictly earlier layers, the relation is solved exactly by propagating the
anchors forward one mentor layer at a time, for all output times at once.
Every function reads the mentor graph's (M,) mentee rows and (M, n+1)
mentor rows beside the schedule's weights of the same shape. The CSR matrix
and the dense partitioned solve are kept as independent oracles for that
propagation. Rows and columns are formation rows throughout, the order the
trace and the writers use.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse

from .errors import SingularFollowerBlock
from .formation import LayeredGraph
from .weights import WeightSchedule, beta, weights_at


def propagate_setpoints(
    graph: LayeredGraph,
    schedule: WeightSchedule,
    anchors: np.ndarray,
    times,
) -> np.ndarray:
    """Set-points on a time grid by forward substitution, shaped (T, N, n).

    ``anchors`` is (N, n) in formation row order; its anchor rows are the
    boundary data and its follower rows are ignored.
    """
    anchors = np.asarray(anchors, dtype=float)
    b = np.array([beta(float(t), schedule.t0, schedule.tf) for t in times])[:, None, None]
    s = np.repeat(anchors[None], len(b), axis=0)
    starts = np.searchsorted(graph.layer[graph.mentees], np.arange(1, graph.n_layers + 2))
    for sl in map(slice, starts[:-1], starts[1:]):
        w = (1.0 - b) * schedule.omega[sl] + b * schedule.varpi[sl]
        s[:, graph.mentees[sl]] = np.einsum("tmk,tmkd->tmd", w, s[:, graph.mentors[sl]])
    return s


def build_comm_matrix(graph: LayeredGraph, schedule: WeightSchedule, t: float) -> scipy.sparse.csr_matrix:
    """The (N, N) communication matrix at time t, in formation row order."""
    n_agents = len(graph.layer)
    diag = np.arange(n_agents)
    rows = np.concatenate([diag, np.repeat(graph.mentees, graph.mentors.shape[1])])
    cols = np.concatenate([diag, graph.mentors.ravel()])
    vals = np.concatenate([-np.ones(n_agents), weights_at(schedule, t).ravel()])
    return scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(n_agents, n_agents))


def solve_setpoints_dense(
    graph: LayeredGraph, schedule: WeightSchedule, anchors: np.ndarray, t: float
) -> np.ndarray:
    """Partitioned dense solve at time t: anchors clamped, follower block inverted.

    Exists as the uniqueness oracle for ``propagate_setpoints``; intended
    for team sizes up to a few hundred. Returns (N, n) in formation row order.
    """
    anchors = np.asarray(anchors, dtype=float)
    dense = build_comm_matrix(graph, schedule, t).toarray()
    fixed = np.flatnonzero(graph.layer == 0)
    follow = graph.mentees
    s = anchors.copy()
    try:
        s[follow] = np.linalg.solve(
            dense[np.ix_(follow, follow)], -dense[np.ix_(follow, fixed)] @ anchors[fixed]
        )
    except np.linalg.LinAlgError as exc:
        raise SingularFollowerBlock(str(exc)) from exc
    return s


def setpoint_residual(
    graph: LayeredGraph, schedule: WeightSchedule, anchors: np.ndarray, s: np.ndarray, t: float
) -> float:
    """Max-norm residual of the stacked linear relation for set-points s at time t."""
    anchors = np.asarray(anchors, dtype=float)
    offset = np.zeros_like(anchors)
    fixed = graph.layer == 0
    offset[fixed] = anchors[fixed]
    comm = build_comm_matrix(graph, schedule, t)
    return float(np.max(np.abs(comm @ np.asarray(s, dtype=float) + offset)))
