"""Global desired set-points from the mentor weights.

Stacked over all agents, the set-points satisfy one sparse linear relation:
the communication matrix has -1 on the diagonal, zero off-diagonals on
anchor rows (hull agents, core, clamped agents) and the mentor weights on
follower rows, so follower rows sum to zero. Because mentors always sit in
strictly earlier layers, the relation is solved exactly by propagating the
anchors forward one mentor layer at a time, for all output times at once.
The CSR matrix and the dense partitioned solve are kept as independent
oracles for that propagation. Rows and columns are formation rows
throughout, the order the trace and the writers use.
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
    start = 0
    for layer in graph.layers[1:]:
        sl = slice(start, start + len(layer))
        start = sl.stop
        w = (1.0 - b) * schedule.omega[sl] + b * schedule.varpi[sl]
        s[:, schedule.rows[sl]] = np.einsum("tmk,tmkd->tmd", w, s[:, schedule.mentors[sl]])
    return s


def build_comm_matrix(schedule: WeightSchedule, n_agents: int, t: float) -> scipy.sparse.csr_matrix:
    """The (N, N) communication matrix at time t, in formation row order."""
    diag = np.arange(n_agents)
    rows = np.concatenate([diag, np.repeat(schedule.rows, schedule.mentors.shape[1])])
    cols = np.concatenate([diag, schedule.mentors.ravel()])
    vals = np.concatenate([-np.ones(n_agents), weights_at(schedule, t).ravel()])
    return scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(n_agents, n_agents))


def _anchor_rows(schedule: WeightSchedule, n_agents: int) -> np.ndarray:
    return np.setdiff1d(np.arange(n_agents), schedule.rows)


def solve_setpoints_dense(schedule: WeightSchedule, anchors: np.ndarray, t: float) -> np.ndarray:
    """Partitioned dense solve at time t: anchors clamped, follower block inverted.

    Exists as the uniqueness oracle for ``propagate_setpoints``; intended
    for team sizes up to a few hundred. Returns (N, n) in formation row order.
    """
    anchors = np.asarray(anchors, dtype=float)
    dense = build_comm_matrix(schedule, len(anchors), t).toarray()
    fixed = _anchor_rows(schedule, len(anchors))
    follow = schedule.rows
    s = anchors.copy()
    try:
        s[follow] = np.linalg.solve(
            dense[np.ix_(follow, follow)], -dense[np.ix_(follow, fixed)] @ anchors[fixed]
        )
    except np.linalg.LinAlgError as exc:
        raise SingularFollowerBlock(str(exc)) from exc
    return s


def setpoint_residual(schedule: WeightSchedule, anchors: np.ndarray, s: np.ndarray, t: float) -> float:
    """Max-norm residual of the stacked linear relation for set-points s at time t."""
    anchors = np.asarray(anchors, dtype=float)
    offset = np.zeros_like(anchors)
    fixed = _anchor_rows(schedule, len(anchors))
    offset[fixed] = anchors[fixed]
    comm = build_comm_matrix(schedule, len(anchors), t)
    return float(np.max(np.abs(comm @ np.asarray(s, dtype=float) + offset)))
