"""File outputs: trace tables, metrics, weight and set-point dumps.

Every writer goes through ``atomic_write_text`` (write to a temp file in the
same directory, then rename), and all float formatting is fixed so repeated
runs of the same scenario produce byte-identical files.

The two per-(time, agent) tables, ``trace.csv`` and ``setpoints.csv``, are
formatted one output frame per ``%`` operation. A frame, not the whole
table, bounds the arguments held at once, so the peak allocation stays near
twice the finished text. ``"%.9g" % x`` and ``f"{x:.9g}"`` share CPython's
correctly rounded float-to-string conversion, -0, nan and inf included, so
the bytes equal those of formatting every cell on its own
(``tests/test_reporting.py`` checks this against that per-cell writer).
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

import numpy as np

from .engine import Plan, RunResult, SimTrace
from .formation import ROLE_COOPERATIVE


def fmt(value: float) -> str:
    return f"{value:.9g}"


def atomic_write_text(path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _frames(header: str, times, rows, *blocks: np.ndarray) -> str:
    """``header`` plus one frame of ``rows`` per output time.

    Row template k holds agent k's constant fields, a ``%s`` for the time and
    one ``%.9g`` for each column of the (T, N, ·) ``blocks`` side by side.
    The templates are joined into one frame template, and each frame is one
    ``%`` over the time string and that frame's values as Python floats.
    """
    frame = "".join(rows)
    cells = np.empty((len(rows), 1 + sum(b.shape[2] for b in blocks)), dtype=object)
    out = [header]
    for t, *values in zip(np.asarray(times, dtype=float).tolist(), *blocks):
        cells[:, 0] = "%.9g" % t
        cells[:, 1:] = np.hstack(values)
        out.append(frame % tuple(cells.ravel().tolist()))
    return "".join(out)


def _float_fields(k: int) -> str:
    return ",".join(["%.9g"] * k)


def trace_table(trace: SimTrace) -> str:
    """Delimited text: one row per (time, agent) on the output grid."""
    n = trace.positions.shape[2]
    coords = ["x", "y", "z"][:n]
    header = (
        ["time", "agent_id", "role", "layer"]
        + coords
        + [c + "d" for c in coords]
        + ["converged"]
    )
    rows = []
    for a, role, layer, conv, scored in zip(
        trace.ids, trace.roles, trace.layer, trace.converged, trace.scored
    ):
        verdict = int(conv) if scored else "-"
        rows.append(f"%s,{a},{role},{layer},{_float_fields(2 * n)},{verdict}\n")
    return _frames(",".join(header) + "\n", trace.times, rows, trace.positions, trace.desired)


def metrics_document(result: RunResult) -> dict:
    plan = result.plan
    trace = result.trace
    formation = plan.scenario.formation
    ids = formation.ids
    uncovered = plan.desired.uncovered_samples(len(plan.scenario.targets.samples))
    return {
        "n_agents": formation.n_agents,
        "n_boundary": len(formation.boundary),
        "n_initial_simplices": plan.graph.n_initial_simplices,
        "n_layers": plan.graph.n_layers,
        "n_cooperative": _n_cooperative(plan.graph),
        "n_uncooperative": len(formation.clamped),
        "core_id": ids[plan.graph.core],
        "convergence_rate": trace.rate,
        "evaluated_count": int(trace.scored.sum()),
        "converged_count": int(trace.converged.sum()),
        "unconverged_ids": [ids[k] for k in np.flatnonzero(trace.scored & ~trace.converged)],
        "fallback_agents": [ids[k] for k in sorted(plan.desired.fallback_ids)],
        "uncovered_sample_count": len(uncovered),
        "uncovered_sample_indices": list(uncovered),
        "terminal_errors": [[a, e] for a, e in zip(ids, trace.terminal_error.tolist())],
    }


def metrics_json(result: RunResult) -> str:
    return json.dumps(metrics_document(result), indent=2) + "\n"


def plan_document(plan: Plan) -> dict:
    formation = plan.scenario.formation
    ids = formation.ids
    p = plan.desired.p.tolist()
    return {
        "n_agents": formation.n_agents,
        "n_boundary": len(formation.boundary),
        "n_initial_simplices": plan.graph.n_initial_simplices,
        "n_layers": plan.graph.n_layers,
        "n_cooperative": _n_cooperative(plan.graph),
        "n_uncooperative": len(formation.clamped),
        "core_id": ids[plan.graph.core],
        "leader_final": {str(ids[b]): p[b] for b in formation.boundary.tolist()},
        "final_positions": {str(a): row for a, row in zip(ids, p)},
        "captured_counts": {str(ids[a]): len(idx) for a, idx in sorted(plan.desired.captured.items())},
        "fallback_agents": [ids[k] for k in sorted(plan.desired.fallback_ids)],
        "uncovered_sample_count": len(
            plan.desired.uncovered_samples(len(plan.scenario.targets.samples))
        ),
    }


def plan_json(plan: Plan) -> str:
    return json.dumps(plan_document(plan), indent=2) + "\n"


def weights_table(plan: Plan) -> str:
    """Per-mentee endpoint weight vectors as plain text, by ascending id."""
    graph, sched = plan.graph, plan.schedule
    ids = plan.scenario.formation.ids
    lines = ["# id\tmentors\tinitial_weights\tfinal_weights"]
    for k in np.argsort(graph.mentees):
        mentors = ",".join(str(ids[m]) for m in graph.mentors[k])
        w0 = ",".join(fmt(v) for v in sched.omega[k])
        w1 = ",".join(fmt(v) for v in sched.varpi[k])
        lines.append(f"{ids[graph.mentees[k]]}\t{mentors}\t{w0}\t{w1}")
    return "\n".join(lines) + "\n"


def setpoints_table(ids, times, setpoints: np.ndarray) -> str:
    """Planned set-point positions sampled on the output grid."""
    n = setpoints.shape[2]
    header = ",".join(["time", "agent_id"] + ["sx", "sy", "sz"][:n]) + "\n"
    return _frames(header, times, [f"%s,{a},{_float_fields(n)}\n" for a in ids], setpoints)


def _n_cooperative(graph) -> int:
    return int(np.count_nonzero(graph.roles == ROLE_COOPERATIVE))


def build_summary(formation, graph) -> str:
    return (
        f"N={formation.n_agents} N_B={len(formation.boundary)} "
        f"N_L={graph.n_initial_simplices} M={graph.n_layers} "
        f"cooperative={_n_cooperative(graph)} uncooperative={len(formation.clamped)} "
        f"core={formation.ids[graph.core]}"
    )
