"""Byte-identity guard: the SHA-256 of every file ``simulate --export-setpoints``
writes, against digests recorded before the writers and the mentor blends
were last rewritten.

The digests hold for this toolchain (numpy 2.4.6 with its bundled
OpenBLAS). A different numpy or BLAS may round a product differently and
move a trajectory digit; re-record then, on a commit whose outputs are
trusted, with ``PYTHONPATH=src python tests/test_output_digests.py``, which
prints each (case, file) pair whose digest it changes before it writes.
"""

import dataclasses
import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from conftest import cube_scenario, quick_scenario
from swarm_transport.cli import main
from swarm_transport.engine import make_plan
from swarm_transport.scenario import parse_scenario_text, serialize_scenario

DIGESTS = Path(__file__).with_name("output_digests.json")


def explicit_planar_scenario():
    """A generated planar team whose document gives its anchors explicitly:
    the generated ones rounded to three decimals, listed in descending id
    order, so the parser puts them in hull order itself."""
    sc = quick_scenario(seed=2, n=12, nb=4, uncoop=1)
    form = sc.formation
    anchors = make_plan(sc).desired.p[form.boundary]
    rows = [
        {"id": form.ids[k], "x": round(x, 3), "y": round(y, 3)}
        for k, (x, y) in zip(form.boundary, anchors.tolist())
    ]
    doc = json.loads(serialize_scenario(sc))
    doc["leader_final"] = {"mode": "explicit", "positions": sorted(rows, key=lambda r: -r["id"])}
    return parse_scenario_text(json.dumps(doc))


def zoneless_scenario():
    """The quick-seed1-n40 team with its target zone deleted: scoring,
    anchor placement and the snapshots read the hull of the samples."""
    doc = json.loads(serialize_scenario(quick_scenario(seed=1, n=40, nb=10, uncoop=2)))
    del doc["targets"]["zone"]
    return parse_scenario_text(json.dumps(doc))


CASES = {
    "quick-seed1-n40": lambda: quick_scenario(seed=1, n=40, nb=10, uncoop=2),
    # a team of radius 100: trace cells of decimal exponent -3 to 1, most of them 0 or 1
    "quick-seed1-n40-radius100": lambda: quick_scenario(seed=1, n=40, nb=10, uncoop=2, radius=100.0),
    # the first draw fails to plan, so generation redraws before the plan
    "quick-seed11-n40": lambda: quick_scenario(seed=11, n=40, nb=10, uncoop=2),
    # transport-large's team: 6 frames to a writer block; its set-point frames
    # repeat after tf, some of them across a block's start
    "quick-seed1-n600": lambda: quick_scenario(seed=1, n=600, nb=100, uncoop=2),
    # planar anchors given explicitly, out of hull order
    "explicit-planar": explicit_planar_scenario,
    # no zone in the document: the zone is the samples' hull
    "zoneless-seed1-n40": zoneless_scenario,
    "cube": cube_scenario,
    "cube-leader-blend": lambda: dataclasses.replace(cube_scenario(), leader_blend=True),
}


def output_digests(case: str, tmp_path: Path) -> dict[str, str]:
    path = tmp_path / "scenario.json"
    path.write_text(serialize_scenario(CASES[case]()))
    out = tmp_path / "out"
    assert main(["simulate", str(path), "--out-dir", str(out), "--export-setpoints"]) == 0
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in sorted(out.iterdir())}


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_recorded_digests(case, tmp_path):
    assert output_digests(case, tmp_path) == json.loads(DIGESTS.read_text())[case]


if __name__ == "__main__":
    old = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    record = {}
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            record[case] = output_digests(case, Path(tmp))
    for case, files in record.items():
        for name in sorted(files.keys() | old.get(case, {}).keys()):
            if files.get(name) != old.get(case, {}).get(name):
                print(f"moved: {case} {name}")
    DIGESTS.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}")
