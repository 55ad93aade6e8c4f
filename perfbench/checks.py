"""Output checks. Each returns ``(ok, detail)``; every call is one operation."""

from __future__ import annotations

import math
from pathlib import Path

PIN_TOL = 1e-9  # terminal errors against pinned values
TRACE_TOL = 1e-6  # terminal errors re-derived from the 9-digit trace.csv


def files_present(out_dir: Path, names) -> tuple[bool, str]:
    missing = [n for n in names if not (out_dir / n).is_file()]
    return not missing, f"missing {missing}" if missing else ""


def parse_graph(text: str) -> dict[int, tuple[int, str, tuple[int, ...]]]:
    """graph.txt rows as ``id -> (layer, role, mentor ids)``."""
    rows = {}
    for line in text.splitlines()[1:]:
        agent, layer, role, mentors = line.split("\t")
        ms = () if mentors == "-" else tuple(int(m) for m in mentors.split(","))
        rows[int(agent)] = (int(layer), role, ms)
    return rows


def graph_laws(graph_text: str, scenario_doc: dict) -> tuple[bool, str]:
    """Mentor-graph laws: every agent once, n+1 earlier mentors per follower,
    clamped and hull agents in layer 0 without mentors, exactly one core."""
    rows = parse_graph(graph_text)
    roles = {a["id"]: a["role"] for a in scenario_doc["agents"]}
    if set(rows) != set(roles):
        return False, "graph agents differ from scenario agents"
    n_mentors = scenario_doc["dimension"] + 1
    cores = [a for a, (_l, role, _m) in rows.items() if role == "core"]
    if len(cores) != 1 or roles[cores[0]] != "cooperative":
        return False, f"expected one core drawn from the cooperative agents, got {cores}"
    for a, (layer, role, mentors) in rows.items():
        expected_role = role if a == cores[0] else roles[a]
        if role != expected_role:
            return False, f"agent {a}: role {role}, scenario says {roles[a]}"
        if layer == 0:
            if mentors or role == "cooperative":
                return False, f"agent {a}: layer 0 must be hull, core or clamped, without mentors"
            continue
        if role != "cooperative" or len(set(mentors)) != n_mentors:
            return False, f"agent {a}: a follower needs {n_mentors} distinct mentors"
        late = [m for m in mentors if rows[m][0] >= layer]
        if late:
            return False, f"agent {a}: mentors {late} are not in earlier layers"
    return True, ""


def metrics_consistent(doc: dict) -> tuple[bool, str]:
    evaluated, converged = doc["evaluated_count"], doc["converged_count"]
    rate = converged / evaluated if evaluated else 1.0
    if doc["convergence_rate"] != rate:
        return False, f"convergence_rate {doc['convergence_rate']} != {converged}/{evaluated}"
    if len(doc["unconverged_ids"]) != evaluated - converged:
        return False, "unconverged_ids does not match the counts"
    return True, ""


def terminal_matches_trace(doc: dict, trace_text: str, plan_doc: dict) -> tuple[bool, str]:
    """Terminal errors and verdicts re-derived from the last trace.csv rows."""
    n = doc["n_agents"]
    lines = trace_text.rstrip("\n").split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[-n:]]
    if len({r[0] for r in rows}) != 1:
        return False, "last trace.csv rows span more than one time"
    coord_cols = [header.index(c) for c in ("x", "y", "z") if c in header]
    final = plan_doc["final_positions"]
    errors = dict((a, e) for a, e in doc["terminal_errors"])
    unconverged = []
    for r in rows:
        a = int(r[1])
        pos = [float(r[k]) for k in coord_cols]
        err = math.dist(pos, final[str(a)])
        if abs(err - errors[a]) > TRACE_TOL * max(1.0, math.hypot(*final[str(a)])):
            return False, f"agent {a}: terminal error {errors[a]} but trace gives {err}"
        if r[-1] == "0":
            unconverged.append(a)
    if sorted(unconverged) != doc["unconverged_ids"]:
        return False, "trace.csv verdicts differ from metrics.json unconverged_ids"
    return True, ""


def equals_pin(name: str, value, pinned) -> tuple[bool, str]:
    return value == pinned, "" if value == pinned else f"{name} {value!r} != pinned {pinned!r}"


def terminal_matches_pin(errors, pinned) -> tuple[bool, str]:
    got = dict((a, e) for a, e in errors)
    want = dict((a, e) for a, e in pinned)
    if set(got) != set(want):
        return False, "terminal error agents differ from the pin"
    worst = max(abs(got[a] - want[a]) for a in want)
    return worst <= PIN_TOL, f"largest terminal error difference {worst:.3g}"
