"""Record ``pins.json``: the values each workload's outputs must keep.

    python3 perfbench/pin.py --seeds 0-15

For every workload and seed given it runs one traced repetition of each
phase and records the
sha256 of each generated scenario and of its ``graph.txt``, the convergence
rate, the unconverged ids and the terminal errors, plus the work counts.
``run.py`` fails an operation when an output differs from its pin, and
flags a work count that differs. Record pins only on a commit whose
outputs are known to be right. Entries of other workloads and seeds are
kept.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

from layers import GENERATION_METRICS, WORK_COUNTS
from run import OUT, PINS, load_pins, run_child
from workloads import DEFAULT_SEED, WORKLOADS


def parse_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-15", help="inclusive range, such as 0-15")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)

    pins = load_pins()  # entries of workloads and seeds not re-run are kept
    scenarios: dict[str, dict] = pins["scenarios"]
    counts: dict[str, dict] = pins["counts"]
    seeds = sorted(set(pins.get("pinned_seeds", [])) | set(parse_range(args.seeds)))
    work = OUT / "pin-work"
    for name in args.workload or sorted(WORKLOADS):
        for seed in parse_range(args.seeds):
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            rep = {}
            for phase in ("generate", "commands"):
                spec = {"workload": name, "seed": seed, "phase": phase, "traced": True,
                        "workdir": str(work), "pins": {},
                        # one traced repetition of the commands
                        "seconds": 0, "min_repetitions": 1, "deadline_s": 600,
                        "spans_prefix": str(work / "spans")}
                result = run_child(spec, timeout=600)
                rep[phase] = result["repetitions"][0] if "repetitions" in result else result
                failed = [op for op in rep[phase].get("ops", []) if not op[1]]
                if "crashed" in rep[phase] or failed:
                    print(f"{name} seed {seed}: {rep[phase].get('crashed') or failed}", file=sys.stderr)
                    return 1
            scenarios.update(rep["commands"]["raw"])
            counts[f"{name}:{seed}"] = {
                n: rep["generate" if n in GENERATION_METRICS else "commands"]["layers"][n]
                for n in WORK_COUNTS
            }
            print(f"pinned {name} seed {seed}", flush=True)
    shutil.rmtree(work, ignore_errors=True)

    def block(entries: dict) -> str:
        rows = [f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(entries.items())]
        return "{\n" + ",\n".join(rows) + "\n }"

    PINS.write_text(
        "{\n"
        f' "default_seed": {DEFAULT_SEED},\n'
        f' "pinned_seeds": {json.dumps(seeds)},\n'
        f' "scenarios": {block(scenarios)},\n'
        f' "counts": {block(counts)}\n'
        "}\n"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
