"""Run the benchmark over several seeds and summarize the spread of each metric.

    python3 perfbench/collect.py --seeds 1-10 [--workload NAME ...] [--out FILE]

For each workload it runs ``run.py --trace 0`` once per seed, then one
``--trace 1`` run at the default seed. It reports, per end-to-end metric,
the quartiles of the per-run medians (``statistics.quantiles(n=4)``), their
spread (IQR / median) against the metric's bound in ``BENCHMARK.json``, and
the tail percentile of all repetitions pooled; and the same quartiles of the
host times before scaling and of the calibration. ``--out`` writes the whole
summary as JSON, such as a point of the ``results/BENCH_*.json`` trajectory.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time

from pin import parse_range
from run import OUT, ROOT
from stats import quartile_spread, summarize
from workloads import DEFAULT_SEED, WORKLOADS


def bench(workload: str, seed: int, trace: int, seconds: float) -> tuple[dict, dict]:
    """One benchmark run: its result line and its details file."""
    argv = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[1:])} failed: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    details = json.loads((OUT / "results" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, details


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--out", help="write the summary JSON here")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {"seeds": parse_range(args.seeds), "run_seconds": args.seconds, "workloads": {}}
    for name in args.workload or [w["name"] for w in spec["workloads"]]:
        runs, wall = [], []
        for seed in summary["seeds"]:
            started = time.perf_counter()
            result, details = bench(name, seed, 0, args.seconds)
            wall.append(time.perf_counter() - started)
            runs.append((result, details))
            print(f"{name} seed {seed}: {json.dumps(result['metrics'])} "
                  f"correct={result['correct']} ({wall[-1]:.0f} s)", flush=True)
        entry = {
            "settings": runs[0][1]["settings"],
            "attempted": sum(r["attempted"] for r, _ in runs),
            "failed": sum(r["failed"] for r, _ in runs),
            "run_wall_s": quartile_spread(wall),
            "end_to_end": {},
        }
        for metric, bound in bounds.items():
            medians = [r["metrics"][metric]["value"] for r, _ in runs]
            pooled = [x for _, d in runs for x in d["end_to_end"][metric]["samples"]]
            spread = quartile_spread(medians)
            entry["end_to_end"][metric] = {
                **spread,
                "bound": bound,
                "within_third_of_bound": spread["spread"] < bound / 3,
                "run_medians": medians,
                "pooled_repetitions": summarize(pooled),
            }
            print(f"  {metric}: median {spread['median']:.6g} spread {spread['spread']:.4f} "
                  f"(bound {bound}, third {bound / 3:.4f})", flush=True)
        # the same runs before scaling, to show what the calibration removes
        entry["host"] = {
            metric: quartile_spread([d["host"][metric]["median"] for _, d in runs])
            for metric in ("e2e_s", "setup_s", "calibration_s")
        }
        for metric, spread in entry["host"].items():
            print(f"  host {metric}: median {spread['median']:.6g} spread {spread['spread']:.4f}", flush=True)
        result, details = bench(name, DEFAULT_SEED, 1, args.seconds)
        entry["traced_seed"] = DEFAULT_SEED
        entry["per_layer"] = details["per_layer"]
        entry["traced_correct"] = result["correct"]
        entry["counts_differ_from_pins"] = details["counts_differ_from_pins"]
        summary["workloads"][name] = entry
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
