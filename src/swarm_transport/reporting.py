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
from .formation import cooperative_ids


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
    for a, role, layer in zip(trace.ids, trace.roles, trace.layer):
        conv = trace.converged.get(a)
        verdict = "-" if conv is None else int(conv)
        rows.append(f"%s,{a},{role},{layer},{_float_fields(2 * n)},{verdict}\n")
    return _frames(",".join(header) + "\n", trace.times, rows, trace.positions, trace.desired)


def metrics_document(result: RunResult) -> dict:
    plan = result.plan
    trace = result.trace
    formation = plan.scenario.formation
    coop = cooperative_ids(formation, plan.graph)
    unconverged = sorted(a for a, ok in trace.converged.items() if not ok)
    uncovered = plan.desired.uncovered_samples(len(plan.scenario.targets.samples))
    return {
        "n_agents": formation.n_agents,
        "n_boundary": len(formation.boundary_ids),
        "n_initial_simplices": plan.graph.n_initial_simplices,
        "n_layers": plan.graph.n_layers,
        "n_cooperative": len(coop),
        "n_uncooperative": len(formation.uncooperative_ids),
        "core_id": plan.graph.core_id,
        "convergence_rate": trace.rate,
        "evaluated_count": len(trace.converged),
        "converged_count": sum(trace.converged.values()),
        "unconverged_ids": unconverged,
        "fallback_agents": sorted(plan.desired.fallback_ids),
        "uncovered_sample_count": len(uncovered),
        "uncovered_sample_indices": list(uncovered),
        "terminal_errors": [[a, trace.terminal_error[a]] for a in trace.ids],
    }


def metrics_json(result: RunResult) -> str:
    return json.dumps(metrics_document(result), indent=2) + "\n"


def plan_document(plan: Plan) -> dict:
    formation = plan.scenario.formation
    return {
        "n_agents": formation.n_agents,
        "n_boundary": len(formation.boundary_ids),
        "n_initial_simplices": plan.graph.n_initial_simplices,
        "n_layers": plan.graph.n_layers,
        "n_cooperative": len(cooperative_ids(formation, plan.graph)),
        "n_uncooperative": len(formation.uncooperative_ids),
        "core_id": plan.graph.core_id,
        "leader_final": {str(b): [float(v) for v in plan.leader_p[b]] for b in formation.boundary_ids},
        "final_positions": {str(a): [float(v) for v in plan.desired.p[a]] for a in formation.ids},
        "captured_counts": {str(a): len(idx) for a, idx in sorted(plan.desired.captured.items())},
        "fallback_agents": sorted(plan.desired.fallback_ids),
        "uncovered_sample_count": len(
            plan.desired.uncovered_samples(len(plan.scenario.targets.samples))
        ),
    }


def plan_json(plan: Plan) -> str:
    return json.dumps(plan_document(plan), indent=2) + "\n"


def weights_table(plan: Plan) -> str:
    """Per-mentee endpoint weight vectors as plain text."""
    sched = plan.schedule
    ids = plan.scenario.formation.ids
    lines = ["# id\tmentors\tinitial_weights\tfinal_weights"]
    for k in np.argsort(sched.mentees):
        mentors = ",".join(str(ids[m]) for m in sched.mentors[k])
        w0 = ",".join(fmt(v) for v in sched.omega[k])
        w1 = ",".join(fmt(v) for v in sched.varpi[k])
        lines.append(f"{sched.mentees[k]}\t{mentors}\t{w0}\t{w1}")
    return "\n".join(lines) + "\n"


def setpoints_table(ids, times, setpoints: np.ndarray) -> str:
    """Planned set-point positions sampled on the output grid."""
    n = setpoints.shape[2]
    header = ",".join(["time", "agent_id"] + ["sx", "sy", "sz"][:n]) + "\n"
    return _frames(header, times, [f"%s,{a},{_float_fields(n)}\n" for a in ids], setpoints)


def build_summary(formation, graph) -> str:
    coop = cooperative_ids(formation, graph)
    return (
        f"N={formation.n_agents} N_B={len(formation.boundary_ids)} "
        f"N_L={graph.n_initial_simplices} M={graph.n_layers} "
        f"cooperative={len(coop)} uncooperative={len(formation.uncooperative_ids)} "
        f"core={graph.core_id}"
    )
