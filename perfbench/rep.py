"""One phase of a workload, in a fresh interpreter started by ``run.py``.

    echo '{"workload": ..., "seed": ..., "phase": ..., "traced": ..., ...}' | python3 perfbench/rep.py

The ``generate`` phase generates the workload's scenarios and writes them
to scenario files, once. The ``commands`` phase runs the workload's CLI
commands in-process on those files, repeatedly until they have taken
``seconds``, and checks every output of every repetition. The last line
of output is one JSON object: for ``generate`` its operations with their
verdicts and, when traced, the layer metrics; for ``commands`` a list of
such records, one per repetition, each adding its timings, peak RSS,
digests of its outputs and the raw values ``pin.py`` records.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
import types
from pathlib import Path

import checks
import layers
from calibrate import calibration_s
from stats import ratio
from tracer import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def import_program() -> types.SimpleNamespace:
    """The program's modules, imported from this checkout's ``src``."""
    import swarm_transport
    from swarm_transport import cli, dynamics, engine, formation, geometry, reporting, scenario, svgplot

    src = (ROOT / "src").resolve()
    if src not in Path(swarm_transport.__file__).resolve().parents:
        raise ImportError(f"swarm_transport was imported from outside {src}")
    return types.SimpleNamespace(
        cli=cli,
        dynamics=dynamics,
        engine=engine,
        formation=formation,
        geometry=geometry,
        reporting=reporting,
        scenario=scenario,
        svgplot=svgplot,
    )


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, if it is one.

    Loading the library again returns the copy numpy already loaded.
    """
    import numpy

    for path in sorted(Path(numpy.__file__).parent.parent.glob("numpy.libs/*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                return int(getter())
    return None


def settings() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Ops:
    """Operations attempted in this repetition and their verdicts."""

    def __init__(self) -> None:
        self.rows: list[list] = []

    def record(self, name: str, ok: bool, detail: str = "") -> bool:
        self.rows.append([name, bool(ok), detail])
        return ok

    def check(self, name: str, verdict: tuple[bool, str]) -> bool:
        return self.record(name, *verdict)


def generate_phase(spec: dict, st, workload, tracer: Tracer, ops: Ops) -> dict:
    """Generate the workload's scenarios and save them as scenario files."""
    work = Path(spec["workdir"])
    params = st.scenario.GenerateParams(
        n_agents=workload.n_agents,
        n_boundary=workload.n_boundary,
        n_uncooperative=workload.n_uncooperative,
    )
    texts = {}
    try:
        for s in workload.scenario_seeds(spec["seed"]):
            with tracer.span(layers.GENERATE_ROOT):
                sc = st.scenario.generate_scenario(params, s)
            texts[s] = st.scenario.serialize_scenario(sc)
    finally:
        tracer.restore()
    for s, text in texts.items():
        (work / f"scenario_{s}.json").write_text(text)
        pin = spec["pins"].get(workload.pin_key(s))
        if pin:
            ops.check(f"scenario-pin:{s}", checks.equals_pin("scenario sha256", sha256(text.encode()), pin["scenario_sha256"]))
    return {}


def commands_phase(spec: dict, st, workload, tracer: Tracer, ops: Ops) -> dict:
    """Run the workload's commands on the saved scenario files and check the outputs."""
    work = Path(spec["workdir"])
    seeds = workload.scenario_seeds(spec["seed"])
    for s in seeds:
        shutil.rmtree(work / str(s), ignore_errors=True)
    e2e_s = 0.0
    codes = {}
    try:
        for s in seeds:
            argv = [workload.command[0], str(work / f"scenario_{s}.json"), "--out-dir", str(work / str(s))]
            argv += list(workload.command[1:])
            with contextlib.redirect_stdout(io.StringIO()):
                started = time.perf_counter()
                with tracer.span(layers.E2E_ROOT):
                    codes[s] = st.cli.main(argv)
                e2e_s += time.perf_counter() - started
    finally:
        tracer.restore()
    setup_s, integrate_s = layers.setup_and_integration(tracer.spans)

    digests, raw = {}, {}
    converged = evaluated = agent_steps = 0
    for s in seeds:
        out = work / str(s)
        key = workload.pin_key(s)
        pin = spec["pins"].get(key)
        text = (work / f"scenario_{s}.json").read_text()
        doc = json.loads(text)
        values = raw[key] = {"scenario_sha256": sha256(text.encode())}
        if not ops.record(f"exit-code:{s}", codes[s] == 0, f"exit code {codes[s]}"):
            continue
        if not ops.check(f"files:{s}", checks.files_present(out, workload.expected_files())):
            continue
        for path in sorted(out.iterdir()):
            digests[f"{s}/{path.name}"] = sha256(path.read_bytes())
        graph_text = (out / "graph.txt").read_text()
        values["graph_sha256"] = digests[f"{s}/graph.txt"]
        ops.check(f"graph-laws:{s}", checks.graph_laws(graph_text, doc))
        if pin:
            ops.check(f"graph-pin:{s}", checks.equals_pin("graph.txt sha256", values["graph_sha256"], pin["graph_sha256"]))
        metrics = json.loads((out / "metrics.json").read_text())
        plan_doc = json.loads((out / "plan.json").read_text())
        values["convergence_rate"] = metrics["convergence_rate"]
        values["unconverged_ids"] = metrics["unconverged_ids"]
        values["terminal_errors"] = metrics["terminal_errors"]
        converged += metrics["converged_count"]
        evaluated += metrics["evaluated_count"]
        steps = round((doc["times"]["t_end"] - doc["times"]["t0"]) / doc["times"]["dt"])
        agent_steps += metrics["n_agents"] * steps
        ops.check(f"metrics-consistent:{s}", checks.metrics_consistent(metrics))
        ops.check(
            f"terminal-vs-trace:{s}",
            checks.terminal_matches_trace(metrics, (out / "trace.csv").read_text(), plan_doc),
        )
        if pin:
            ops.check(f"convergence-pin:{s}", checks.equals_pin("convergence_rate", values["convergence_rate"], pin["convergence_rate"]))
            ops.check(f"unconverged-pin:{s}", checks.equals_pin("unconverged_ids", values["unconverged_ids"], pin["unconverged_ids"]))
            ops.check(f"terminal-pin:{s}", checks.terminal_matches_pin(values["terminal_errors"], pin["terminal_errors"]))
    return {
        "e2e_s": e2e_s,
        "setup_s": setup_s,
        "integrate_s": integrate_s,
        "agent_steps": agent_steps,
        "agent_steps_per_s": ratio(agent_steps, integrate_s),
        # counts summed over the scenarios of a repetition, so the rate is pooled
        "convergence_rate": ratio(converged, evaluated),
        "digests": digests,
        "raw": raw,
    }


def run_rep(spec: dict, st) -> dict:
    """One repetition of ``spec["phase"]``, traced or not."""
    workload = WORKLOADS[spec["workload"]]
    ops = Ops()
    tracer = Tracer()
    (layers.install_full if spec["traced"] else layers.install_light)(tracer, st)
    phase = generate_phase if spec["phase"] == "generate" else commands_phase
    result = phase(spec, st, workload, tracer, ops)
    result.update(phase=spec["phase"], traced=spec["traced"], ops=ops.rows)
    if spec["phase"] == "commands":
        # peak of this process so far; generation ran in another one
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if spec["traced"]:
        result["layers"] = layers.layer_metrics(tracer.spans, tracer.counts)
        if spec.get("spans_out"):
            Path(spec["spans_out"]).write_text(json.dumps({
                "columns": ["name", "start", "end", "parent"],
                "spans": tracer.spans,
                "counts": {str(k): v for k, v in tracer.counts.items()},
            }))
    return result


def run_commands(spec: dict, st) -> list[dict]:
    """Repeat the commands in this process until they have taken
    ``spec["seconds"]``, at least ``spec["min_repetitions"]`` times, and
    never past ``spec["deadline_s"]``. In a traced run the first repetition
    and every other one after it are traced. Each repetition carries the
    mean of the calibrations timed just before and just after it. A
    repetition that raises ends the loop as ``{"crashed": traceback}``.
    """
    reps: list[dict] = []
    started = time.perf_counter()
    last = 0.0
    before = calibration_s()
    while len(reps) < spec["min_repetitions"] or time.perf_counter() - started < spec["seconds"]:
        if time.perf_counter() - started + last > spec["deadline_s"]:
            break
        k = len(reps)
        rep_spec = dict(spec, traced=spec["traced"] and k % 2 == 0)
        if rep_spec["traced"]:
            rep_spec["spans_out"] = f"{spec['spans_prefix']}-rep{k}.json"
        rep_started = time.perf_counter()
        try:
            rep = run_rep(rep_spec, st)
        except Exception:  # report any crash of the program as a failed operation
            reps.append({"crashed": traceback.format_exc(), "traced": rep_spec["traced"]})
            break
        after = calibration_s()
        rep["calibration_s"] = (before + after) / 2.0
        before = after
        reps.append(rep)
        last = time.perf_counter() - rep_started
    return reps


def main() -> int:
    spec = json.loads(sys.stdin.read())
    try:
        st = import_program()
    except ImportError:
        traceback.print_exc()
        return 3
    if spec["phase"] == "commands":
        result = {"repetitions": run_commands(spec, st)}
    else:
        try:
            result = run_rep(spec, st)
        except Exception:  # report any crash of the program as a failed operation
            result = {"crashed": traceback.format_exc()}
    result["settings"] = settings()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
