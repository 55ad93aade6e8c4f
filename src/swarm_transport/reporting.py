"""File outputs: trace tables, metrics, weight and set-point dumps.

Every writer goes through one atomic write (write to a temp file in the
same directory, then rename), and all float formatting is fixed so repeated
runs of the same scenario produce byte-identical files.

The two per-(time, agent) tables, ``trace.csv`` and ``setpoints.csv``, are
streamed to their file as bytes and format each distinct piece of text
once: a cell with the same bits in every output frame goes into the frame
template, a frame is one bytes ``%`` over its time and other cells, and a
frame that repeats the one before copies its text with the time replaced.
Frames are formatted a block of about 131,072 cells at a time and each
block is written as one piece, so the peak allocation is bounded by a
block's text, not by the file's. ``b"%.9g" % x``, ``"%.9g" % x`` and
``f"{x:.9g}"`` share CPython's correctly rounded float-to-string
conversion, -0, nan and inf included, so the bytes equal those of
formatting every cell on its own (``tests/test_reporting.py`` checks this
against that per-cell writer).
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

import numpy as np

from .engine import Plan, RunResult, SimTrace
from .formation import ROLE_COOPERATIVE


def _atomic_write(path, pieces) -> None:
    """Write the bytes ``pieces`` to a temp file beside ``path``, then rename
    it over ``path``; on any error the temp file goes and ``path`` is untouched."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.writelines(pieces)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    _atomic_write(path, [text.encode()])


def _frames(header: str, times, heads, tails, *blocks: np.ndarray):
    """Yield ``header`` and one frame of rows per output time as bytes, one
    piece per block of frames, each line ended by a newline.

    Row k of a frame is the time, ``heads[k]``, row k of the (T, N, ·)
    ``blocks`` side by side as ``%.9g`` cells, then ``tails[k]``. Bits are
    compared as int64, so -0.0 differs from 0.0 and a NaN equals itself.
    """
    times = [b"%.9g" % t for t in np.asarray(times, dtype=float).tolist()]
    if not times:
        yield header.encode() + b"\n"
        return
    blocks = [np.asarray(b, dtype=float) for b in blocks]
    step = max(1, (1 << 17) // sum(b[0].size for b in blocks))  # frames per block of ~131,072 cells

    def bits(s):  # frames s .. s+step-1 side by side, as (F, N, cells) int64
        return np.concatenate([b[s : s + step] for b in blocks], axis=2).view(np.int64)
    first = np.concatenate([b[0] for b in blocks], axis=1).view(np.int64)
    const = np.ones(first.shape, dtype=bool)
    for s in range(0, len(times), step):
        const &= (bits(s) == first).all(axis=0)
    cells = np.full(const.shape, "%.9g", dtype=object)
    cells[const] = ["%.9g" % v for v in first.view(float)[const].tolist()]
    # a line starts with its newline, so a newline is followed by a time only at a row start
    template = "".join(f"\n%s,{h},{','.join(row)}{t}" for h, row, t in zip(heads, cells.tolist(), tails)).encode()
    width = 1 + (~const).sum(axis=1)  # arguments of a row: its time and varying cells
    is_time = np.zeros(width.sum(), dtype=bool)
    is_time[np.cumsum(width) - width] = True
    args = np.empty(len(is_time), dtype=object)
    yield header.encode()
    prev = None
    for s in range(0, len(times), step):
        v = bits(s)[:, ~const]
        again = [prev is not None and np.array_equal(v[0], prev)] + (v[1:] == v[:-1]).all(axis=1).tolist()
        prev, block = v[-1], []
        for k, repeat in enumerate(again, start=s):
            if repeat:
                text = text.replace(b"\n" + times[k - 1] + b",", b"\n" + times[k] + b",")
            else:
                args[is_time] = times[k]
                args[~is_time] = v[k - s].view(float)
                text = template % tuple(args.tolist())
            block.append(text)
        yield b"".join(block)
    yield b"\n"


def trace_table(trace: SimTrace, path) -> None:
    """Write ``path``: one delimited row per (time, agent) on the output grid."""
    coords = ["x", "y", "z"][: trace.positions.shape[2]]
    header = ["time", "agent_id", "role", "layer", *coords, *(c + "d" for c in coords), "converged"]
    heads = [f"{a},{role},{layer}" for a, role, layer in zip(trace.ids, trace.roles, trace.layer)]
    tails = [f",{int(c)}" if s else ",-" for c, s in zip(trace.converged, trace.scored)]
    _atomic_write(path, _frames(",".join(header), trace.times, heads, tails, trace.positions, trace.desired))


def _team_counts(plan: Plan) -> dict:
    """The leading keys of ``metrics.json`` and ``plan.json``: the team and its graph."""
    formation, graph = plan.scenario.formation, plan.graph
    return {
        "n_agents": formation.n_agents,
        "n_boundary": len(formation.boundary),
        "n_initial_simplices": graph.n_initial_simplices,
        "n_layers": graph.n_layers,
        "n_cooperative": _n_cooperative(graph),
        "n_uncooperative": len(formation.clamped),
        "core_id": formation.ids[graph.core],
    }


def metrics_document(result: RunResult) -> dict:
    plan = result.plan
    trace = result.trace
    ids = plan.scenario.formation.ids
    uncovered = plan.desired.uncovered_samples(len(plan.scenario.targets.samples))
    return {
        **_team_counts(plan),
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
        **_team_counts(plan),
        "leader_final": {str(ids[b]): p[b] for b in formation.boundary.tolist()},
        "final_positions": {str(a): row for a, row in zip(ids, p)},
        "captured_counts": {str(ids[a]): len(idx) for a, idx in sorted(plan.desired.captured.items())},
        "fallback_agents": [ids[k] for k in sorted(plan.desired.fallback_ids)],
        "uncovered_sample_count": len(plan.desired.uncovered_samples(len(plan.scenario.targets.samples))),
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
        w0 = ",".join(f"{v:.9g}" for v in sched.omega[k])
        w1 = ",".join(f"{v:.9g}" for v in sched.varpi[k])
        lines.append(f"{ids[graph.mentees[k]]}\t{mentors}\t{w0}\t{w1}")
    return "\n".join(lines) + "\n"


def setpoints_table(ids, times, setpoints: np.ndarray, path) -> None:
    """Write ``path``: the planned set-point positions sampled on the output grid."""
    header = ",".join(["time", "agent_id"] + ["sx", "sy", "sz"][: setpoints.shape[2]])
    _atomic_write(path, _frames(header, times, ids, [""] * len(ids), setpoints))


def _n_cooperative(graph) -> int:
    return int(np.count_nonzero(graph.roles == ROLE_COOPERATIVE))


def build_summary(formation, graph) -> str:
    return (
        f"N={formation.n_agents} N_B={len(formation.boundary)} "
        f"N_L={graph.n_initial_simplices} M={graph.n_layers} "
        f"cooperative={_n_cooperative(graph)} uncooperative={len(formation.clamped)} "
        f"core={formation.ids[graph.core]}"
    )
