"""File outputs: trace tables, metrics, weight and set-point dumps.

Every writer goes through one atomic write (write to a temp file in the
same directory, then rename), and all float formatting is fixed so repeated
runs of the same scenario produce byte-identical files.

The two per-(time, agent) tables, ``trace.csv`` and ``setpoints.csv``, each
write one (T, N, k) array (``Run.log``, the set-point series) a block of
about 256 KB of rows at a time, so the peak allocation is bounded by a
block, not by the file. A block is one array of fixed-width slots (time,
leading fields, each cell and its comma, row end) whose unused bytes are
NUL, which no field holds, deleted by one ``bytes.translate``; a block
whose cells repeat the previous block's leading frames bit for bit (the
set-points after tf) keeps their text. Every cell is ``%.9g``: ``_g9``
formats in numpy each value of decimal exponent -4 to 8 (nearly every
coordinate of a team of radius 0.01 to 100) whose rounding it certifies:
scaled to 9 integer digits, it carries one rounding error below 6e-8, so
if it lies more than 1e-6 from a half it rounds to the digits of CPython's
correctly rounded conversion; the rest go through ``b"%.9g" % v``. So the
bytes equal those of formatting each cell alone, as the tests check.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

import numpy as np

from .engine import Plan, Run
from .errors import OutputError
from .formation import ROLE_COOPERATIVE


def _atomic_write(path, pieces) -> None:
    """Write the bytes ``pieces`` to a temp file beside ``path``, then rename
    it over ``path``; on any error the temp file goes and ``path`` is untouched.
    An ``OSError`` becomes ``OutputError`` naming ``path``."""
    path = Path(path)
    tmp = None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
        with os.fdopen(fd, "wb") as handle:
            handle.writelines(pieces)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OutputError(f"cannot write {path}: {exc.strerror}") from exc
        raise


def probe_dir(path) -> None:
    """Create the directory ``path`` and a file in it, or raise ``OutputError``."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
        tempfile.TemporaryFile(dir=path).close()
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc.strerror}") from exc


def atomic_write_text(path, text: str) -> None:
    _atomic_write(path, [text.encode()])


def _g9_tables():
    """ASCII of 0000..9999 (first digit in the low byte); 8 times their trailing
    zeros (4 for 0000); per exponent e = -4..8 of a positive, then a negative value:
    the prefix ("-", "0.", "-0.000", ...) and, in bits, its length, the ninth
    digit's place, the point's place, the digits written ahead of the point (all
    9 when it is in the prefix) and the fraction digits; and 10**(8 - e)."""
    k = np.arange(10000)
    digits = sum((k // 10 ** (3 - j) % 10 + 48).astype(np.uint64) << np.uint64(8 * j) for j in range(4))
    zeros = np.select([k == 0, k % 1000 == 0, k % 100 == 0, k % 10 == 0], [32, 24, 16, 8], 0).astype(np.uint64)
    layout = []
    for sign in (b"", b"-"):
        for e in range(-4, 9):
            pre = sign + (b"0." + b"0" * (-e - 1) if e < 0 else b"")
            q = e + 1 if e >= 0 else 9
            point = len(pre) + q if e >= 0 else len(sign) + 1
            ninth = len(pre) + 8 + (q < 9)
            layout.append((int.from_bytes(pre, "little"), 8 * len(pre), 8 * ninth - 64, 8 * point, 8 * q, 8 * (8 - e)))
    return digits, zeros, np.array(layout, dtype=np.uint64).T.copy(), (10 ** np.arange(12, -1, -1)).astype(float)


_DIGITS, _ZEROS, _LAYOUT, _SCALE = _g9_tables()


def _g9_fallback(values: list) -> list:
    return [b"%.9g" % v for v in values]


def _g9(x: np.ndarray) -> np.ndarray:
    """``b"%.9g" % v`` for every v of the float64 array ``x``, as an S16 array.

    A value of decimal exponent e in [-4, 8] whose m = |v| * 10**(8 - e) lies
    in [1e8, 1e9) more than 1e-6 from a half is written from the integer
    nearest m: its digits through ``_DIGITS`` into two little-endian words
    with the sign, the zeros of "0.000" and the point, cut after the last
    nonzero fraction digit. The rest go to ``_g9_fallback``. The words rely
    on numpy's shifts by 64 bits or more giving 0.
    """
    u8, full = np.uint64(8), np.uint64(2**64 - 1)
    a = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        i = np.fmin(np.fmax(np.floor(np.log10(a)) + 4, 0), 12).astype(np.intp)
        y = a * _SCALE[i]
        m = np.rint(y)
        ok = (y >= 1e8) & (m < 1e9) & (np.abs(y - m) < 0.5 - 1e-6)
    m = np.fmin(np.fmax(m, 1e8), 1e9 - 1).astype(np.int64)  # in range for the tables; the fallback rewrites the rest
    pre, s, s9, point, q, frac = np.take(_LAYOUT, np.where(np.signbit(x), i + 13, i), axis=1)
    top, mid = m // 100000000, m // 10000
    low, group = m - mid * 10000, mid - top * 10000
    zeros = np.where(low == 0, _ZEROS[group] + 32, _ZEROS[low])
    low = _DIGITS[low]
    digits = (top.astype(np.uint64) + 48) | _DIGITS[group] << u8 | low << np.uint64(40)  # all but the ninth
    head = digits & ~(full << q)  # before the point
    tail = digits ^ head
    end = np.where(zeros < frac, point + frac + u8 - zeros, point)
    words = np.empty((len(x), 2), dtype="<u8")
    words[:, 0] = (pre | head << s | tail << (s + u8) | np.uint64(46) << point) & ~(full << end)
    ninth = low >> np.uint64(24) << s9
    words[:, 1] = (head >> (64 - s) | tail >> (56 - s) | ninth | np.uint64(46) << (point - 64)) & full >> (128 - end)
    out = words.view("S16")[:, 0]
    bad = np.flatnonzero(~ok)
    if len(bad):
        out[bad] = _g9_fallback(x[bad].tolist())
    return out


def _frames(header: str, times, heads, tails, table: np.ndarray):
    """Yield ``header`` and its newline, then the rows as bytes, a block of
    frames at a time.

    Row k of a frame is the time, ``heads[k]``, row k of the (T, N, ·) float64
    ``table`` as ``%.9g`` cells, then ``tails[k]``, joined by commas, and a
    newline. Slots the same in every frame are written once, and so is the
    text of a block that repeats the last block's leading frames, bit for bit.
    """
    yield header.encode() + b"\n"
    times = _g9(np.asarray(times, dtype=float))
    heads = [b",%s," % str(h).encode() for h in heads]
    tails = [t.encode() + b"\n" for t in tails]
    time_w, head_w, tail_w = (max(map(len, x), default=1) for x in (times.tolist(), heads, tails))
    cells = ("cells", [("text", "S16"), ("comma", "S1")], (table.shape[2],))
    row = np.dtype([("time", f"S{time_w}"), ("head", f"S{head_w}"), cells, ("tail", f"S{tail_w}")])
    step = max(1, (1 << 18) // (len(heads) * row.itemsize))  # frames per block of about 256 KB
    raw = bytearray(step * len(heads) * row.itemsize)  # translated in place, without a copy
    buf = np.frombuffer(raw, row).reshape(step, len(heads))
    buf["head"], buf["tail"] = heads, tails
    buf["cells"]["comma"][..., :-1] = b","
    text = buf["cells"]["text"]
    for s in range(0, len(times), step):
        values = table[s : s + step]
        f = len(values)
        if not (s and np.array_equal(values.view(np.int64), table[s - step : s - step + f].view(np.int64))):
            text[:f] = _g9(values.ravel()).reshape(text[:f].shape)
        buf["time"][:f] = times[s : s + f, None]
        yield (raw if f == step else raw[: buf[:f].nbytes]).translate(None, b"\0")


def trace_table(run: Run, path) -> None:
    """Write ``path``: one delimited row per (time, agent) on the output grid."""
    ids, graph = run.plan.scenario.formation.ids, run.plan.graph
    coords = ["x", "y", "z"][: run.positions.shape[2]]
    header = ["time", "agent_id", "role", "layer", *coords, *(c + "d" for c in coords), "converged"]
    heads = [f"{a},{role},{layer}" for a, role, layer in zip(ids, graph.roles, graph.layer)]
    tails = [f",{int(c)}" if s else ",-" for c, s in zip(run.converged, run.scored)]
    _atomic_write(path, _frames(",".join(header), run.times, heads, tails, run.log))


def team_counts(formation, graph) -> dict:
    """The team and its graph: the leading keys of ``metrics.json`` and
    ``plan.json``, and the counts of the summary's team line."""
    return {
        "n_agents": formation.n_agents,
        "n_boundary": len(formation.boundary),
        "n_initial_simplices": graph.n_initial_simplices,
        "n_layers": graph.n_layers,
        "n_cooperative": int(np.count_nonzero(graph.roles == ROLE_COOPERATIVE)),
        "n_uncooperative": len(formation.clamped),
        "core_id": formation.ids[graph.core],
    }


def metrics_document(run: Run) -> dict:
    plan = run.plan
    ids = plan.scenario.formation.ids
    uncovered = plan.desired.uncovered_samples(len(plan.scenario.targets.samples))
    return {
        **team_counts(plan.scenario.formation, plan.graph),
        "convergence_rate": run.rate,
        "evaluated_count": int(run.scored.sum()),
        "converged_count": int(run.converged.sum()),
        "unconverged_ids": [ids[k] for k in np.flatnonzero(run.scored & ~run.converged)],
        "fallback_agents": [ids[k] for k in sorted(plan.desired.fallback_ids)],
        "uncovered_sample_count": len(uncovered),
        "uncovered_sample_indices": list(uncovered),
        "terminal_errors": [[a, e] for a, e in zip(ids, run.terminal_error.tolist())],
    }


def metrics_json(run: Run) -> str:
    return json.dumps(metrics_document(run), indent=2) + "\n"


def plan_document(plan: Plan) -> dict:
    formation = plan.scenario.formation
    ids = formation.ids
    p = plan.desired.p.tolist()
    return {
        **team_counts(plan.scenario.formation, plan.graph),
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
    order = np.argsort(graph.mentees)
    w = np.stack([sched.omega[order], sched.varpi[order]], axis=1)  # (M, 2, n+1) by ascending id
    lines = ["# id\tmentors\tinitial_weights\tfinal_weights"]
    for k, cells in zip(order.tolist(), _g9(w.ravel()).reshape(w.shape).tolist()):
        mentors = ",".join(str(ids[m]) for m in graph.mentors[k])
        w0, w1 = (b",".join(row).decode() for row in cells)
        lines.append(f"{ids[graph.mentees[k]]}\t{mentors}\t{w0}\t{w1}")
    return "\n".join(lines) + "\n"


def setpoints_table(ids, times, setpoints: np.ndarray, path) -> None:
    """Write ``path``: the planned set-point positions sampled on the output grid."""
    header = ",".join(["time", "agent_id"] + ["sx", "sy", "sz"][: setpoints.shape[2]])
    _atomic_write(path, _frames(header, times, ids, [""] * len(ids), setpoints))


def summary_lines(doc: dict) -> list[str]:
    """The summary every command prints of its document: ``team_counts``,
    ``plan_document``, ``metrics_document`` or a ``metrics.json`` read back.
    The team line comes first, then a line for each verdict or coverage
    entry the document holds and that is not empty."""
    lines = [
        "N={n_agents} N_B={n_boundary} N_L={n_initial_simplices} M={n_layers} "
        "cooperative={n_cooperative} uncooperative={n_uncooperative} core={core_id}".format(**doc)
    ]
    if "convergence_rate" in doc:
        lines.append(f"convergence rate {doc['convergence_rate']:.4f} ({doc['converged_count']}/{doc['evaluated_count']})")
    if doc.get("unconverged_ids"):
        lines.append(f"unconverged agents: {doc['unconverged_ids']}")
    if doc.get("fallback_agents"):
        lines.append(f"fallback mentees (empty capture): {doc['fallback_agents']}")
    if doc.get("uncovered_sample_count"):
        lines.append(f"uncovered target samples: {doc['uncovered_sample_count']}")
    if "terminal_errors" in doc:
        worst = sorted(doc["terminal_errors"], key=lambda row: -row[1])[:5]
        lines.append("largest terminal errors: " + ", ".join(f"{a}:{e:.3g}" for a, e in worst))
    return lines
