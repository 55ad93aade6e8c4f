"""Benchmark entry point: run one workload for a while and print its metrics.

    python3 perfbench/run.py --workload transport-large --seed 1 --seconds 40 --trace 0

Run it from the root of a checkout. A run starts two fresh interpreters
(``rep.py``), one after the other, with BLAS pinned to one thread: the
first generates the scenarios into scenario files, the second runs the
commands on them repeatedly until they have taken ``--seconds``
(generation is not counted: it takes one to four draws, by seed).
``--trace 0`` prints the end-to-end metrics, medians over the
repetitions, with host times scaled by the calibration loop of
``calibrate.py`` timed around each repetition. ``--trace 1`` traces the
generation and every other commands repetition and prints the per-layer
metrics. The last line of output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. Details go to
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

from calibrate import REFERENCE_S
from stats import median, ratio, summarize
from layers import GENERATION_METRICS, PER_LAYER, WORK_COUNTS
from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
PINS = HERE / "pins.json"
DEADLINE_S = 165.0  # a run must end within 180 s
# A run generates once and re-runs the commands on the saved scenarios as
# often as time allows: generation redraws degenerate scenarios, so its cost
# varies with the seed.
MIN_COMMANDS = 3
CHILD_MARGIN_S = 5.0  # the commands child stops this long before its timeout

END_TO_END = {
    "e2e_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "convergence_rate": "ratio",
}
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    # Keep freed numpy temporaries in the heap instead of returning them to
    # the kernel. By default glibc maps each large array afresh, so the N=600
    # loop takes 1.8 million page faults and 3-5 s of system time a run, and
    # the time to serve them swings with the virtual machine's host.
    "MALLOC_MMAP_THRESHOLD_": str(256 << 20),
    "MALLOC_TRIM_THRESHOLD_": str(256 << 20),
}


def load_pins() -> dict:
    return json.loads(PINS.read_text()) if PINS.is_file() else {"scenarios": {}, "counts": {}}


def run_child(spec: dict, timeout: float) -> dict:
    """Run one phase in a fresh interpreter; a crash or timeout comes back
    as ``{"crashed": why}``."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **CHILD_ENV)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "rep.py")],
            input=json.dumps(spec),
            capture_output=True,
            text=True,
            env=env,
            cwd=ROOT,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"crashed": f"{spec['phase']} phase exceeded {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"crashed": f"exit code {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    return json.loads(lines[-1])


def run_reps(workload, seed: int, seconds: float, traced: bool, pins: dict) -> list[dict]:
    """The generate phase, then the commands repetitions, each as one record."""
    scenario_pins = {
        key: pins["scenarios"][key]
        for key in (workload.pin_key(s) for s in workload.scenario_seeds(seed))
        if key in pins["scenarios"]
    }
    # a directory of its own, so runs that share a checkout never share files
    work = OUT / f"work-{workload.name}-seed{seed}-trace{int(traced)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    (OUT / "spans").mkdir(parents=True, exist_ok=True)
    try:
        return _run_reps_in(work, workload, seed, seconds, traced, scenario_pins)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run_reps_in(work: Path, workload, seed: int, seconds: float, traced: bool, scenario_pins: dict) -> list[dict]:
    started = time.perf_counter()
    spec = {
        "workload": workload.name,
        "seed": seed,
        "traced": traced,
        "workdir": str(work),
        "pins": scenario_pins,
    }
    spans = OUT / "spans" / work.name
    generated = run_child(dict(spec, phase="generate", spans_out=f"{spans}-generate.json"), DEADLINE_S)
    reps = [dict(generated, phase="generate", traced=traced)]
    if "crashed" in generated:
        return reps  # nothing to run the commands on
    remaining = DEADLINE_S - (time.perf_counter() - started)
    commands = run_child(
        dict(spec, phase="commands", seconds=seconds, min_repetitions=MIN_COMMANDS,
             deadline_s=remaining - CHILD_MARGIN_S, spans_prefix=str(spans)),
        remaining,
    )
    if "crashed" in commands:
        return reps + [dict(commands, phase="commands", traced=False)]
    return reps + [dict(r, phase="commands") for r in commands["repetitions"]]


def differing(a: dict, b: dict) -> list[str]:
    return sorted(n for n in set(a) | set(b) if a.get(n) != b.get(n))


def collect_ops(reps: list[dict]) -> list[list]:
    """Every operation of every repetition, plus the cross-repetition checks:
    each commands repetition writes the same outputs as the first, and each
    traced one counts the same work as the first traced one."""
    ops: list[list] = []
    first = first_counts = None
    for k, rep in enumerate(reps):
        ok = "crashed" not in rep
        ops.append([f"rep{k}:completed", ok, rep.get("crashed", "")])
        if not ok:
            continue
        ops.extend([f"rep{k}:{name}", good, detail] for name, good, detail in rep["ops"])
        if rep["phase"] == "generate":
            continue
        if first is None:
            first = rep["digests"]
        else:
            diff = differing(first, rep["digests"])
            ops.append([f"rep{k}:repeat-identical", not diff, f"differs: {diff}" if diff else ""])
        if rep["traced"]:
            counts = {n: rep["layers"][n] for n in WORK_COUNTS if n not in GENERATION_METRICS}
            if first_counts is None:
                first_counts = counts
            else:
                diff = differing(first_counts, counts)
                ops.append([f"rep{k}:counts-repeat", not diff, f"differs: {diff}" if diff else ""])
    return ops


def scaled(rep: dict) -> dict:
    """A repetition's end-to-end values, its host times scaled to the
    reference speed of ``calibrate.REFERENCE_S``."""
    speed = REFERENCE_S / rep["calibration_s"]
    return {
        "e2e_s": rep["e2e_s"] * speed,
        "setup_s": rep["setup_s"] * speed,
        "peak_rss_mb": rep["peak_rss_mb"],
        "convergence_rate": rep["convergence_rate"],
    }


def end_to_end(good: list[dict]) -> tuple[dict, dict]:
    """Median, tail percentile, sample count and samples of each metric over
    the untraced commands repetitions: scaled, and as host values."""
    reps = [r for r in good if not r["traced"] and r["phase"] == "commands"]
    values = [scaled(r) for r in reps]
    metrics = {
        name: dict(summarize([v[name] for v in values]), samples=[v[name] for v in values])
        for name in END_TO_END
    }
    host = {
        name: dict(summarize([r[name] for r in reps]), samples=[r[name] for r in reps])
        for name in ("e2e_s", "setup_s", "agent_steps_per_s", "calibration_s")
    }
    return metrics, host


def per_layer(good: list[dict], pinned_counts: dict | None) -> tuple[dict, dict]:
    """Per-layer metrics: medians over the traced repetitions of the phase
    that measures each (a count that repeats exactly is taken as is), plus
    the traced-versus-untraced figures of the commands phase."""
    traced = {p: [r for r in good if r["traced"] and r["phase"] == p] for p in ("generate", "commands")}
    untraced = [r for r in good if not r["traced"] and r["phase"] == "commands"]
    out = {}
    for name in traced["commands"][0]["layers"]:
        reps = traced["generate" if name in GENERATION_METRICS else "commands"]
        values = [r["layers"][name] for r in reps]
        out[name] = values[0] if len(set(values)) == 1 else median(values)
    out["agent_steps_per_s"] = median([r["agent_steps_per_s"] for r in untraced])
    out["host.e2e_s"] = median([r["e2e_s"] for r in untraced])
    out["host.calibration_s"] = median([r["calibration_s"] for r in untraced])
    traced_e2e = median([r["e2e_s"] for r in traced["commands"]])
    out["trace.e2e_s"] = traced_e2e
    out["trace.overhead_s"] = traced_e2e - median([r["e2e_s"] for r in untraced])
    out["trace.accounted_share"] = ratio(out.pop("trace.accounted_s"), traced_e2e)
    flags = {}
    if pinned_counts is not None:
        flags = {n: [out[n], pinned_counts[n]] for n in WORK_COUNTS if out[n] != pinned_counts[n]}
    return {name: out[name] for name in PER_LAYER}, flags


def main(argv=None) -> int:
    # a terminated run raises SystemExit, so the running child is killed and
    # waited for and the work directory is removed on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "swarm_transport" / "__init__.py").is_file():
        print(f"no program source at {ROOT / 'src' / 'swarm_transport'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    pins = load_pins()
    reps = run_reps(workload, args.seed, args.seconds, bool(args.trace), pins)
    ops = collect_ops(reps)
    good = [r for r in reps if "crashed" not in r]
    needed = [("commands", False)] + [("generate", True), ("commands", True)] * args.trace
    if not all(any(r["phase"] == p and r["traced"] == t for r in good) for p, t in needed):
        for name, ok, detail in ops:
            if not ok:
                print(f"FAILED {name}: {detail}", file=sys.stderr)
        print("too few repetitions completed; no metrics to report", file=sys.stderr)
        return 1

    details = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "repetitions": len(reps),
        "settings": good[0]["settings"],
        "failed_ops": [op for op in ops if not op[1]],
    }
    details["end_to_end"], details["host"] = end_to_end(good)
    if args.trace:
        values, flags = per_layer(good, pins["counts"].get(f"{workload.name}:{args.seed}"))
        details["per_layer"] = values
        details["counts_differ_from_pins"] = flags
        metrics = {name: {"value": v, "unit": PER_LAYER[name]} for name, v in values.items()}
    else:
        metrics = {
            name: {"value": details["end_to_end"][name]["median"], "unit": unit}
            for name, unit in END_TO_END.items()
        }
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(details, indent=2) + "\n"
    )

    print(f"workload {workload.name} seed {args.seed}: {len(reps)} repetitions, settings {details['settings']}")
    for name, s in details["end_to_end"].items():
        tail = "" if s["percentile"] is None else f", p{s['percentile']:g} {s['percentile_value']:.6g}"
        print(f"  {name}: median {s['median']:.6g} {END_TO_END[name]}{tail} (n={s['n']})")
    for name, ok, detail in details["failed_ops"]:
        print(f"  FAILED {name}: {detail}")
    if args.trace and details["counts_differ_from_pins"]:
        print(f"  work counts differ from pins.json [now, pinned]: {details['counts_differ_from_pins']}")
    failed = len(details["failed_ops"])
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
