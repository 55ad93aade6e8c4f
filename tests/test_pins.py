"""The benchmark's recorded outputs, reproduced in-process.

``perfbench/pins.json`` holds, per generated scenario, the sha256 of the
scenario file and of its ``graph.txt`` plus the run's verdicts and terminal
errors. These tests read it (never write it), so a change that alters a
generated scenario, the mentor graph or a run's outcome fails here first.
"""

import hashlib
import json
from pathlib import Path

import pytest

from swarm_transport.engine import run
from swarm_transport.formation import build_actual, graph_records
from swarm_transport.reporting import metrics_document
from swarm_transport.scenario import GenerateParams, generate_scenario, parse_scenario_text, serialize_scenario

PINS = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "pins.json").read_text())
PARAMS = GenerateParams(n_agents=40, n_boundary=10, n_uncooperative=2)
LARGE = GenerateParams(n_agents=600, n_boundary=100, n_uncooperative=2)  # transport-large


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _scenario_text(seed: int, params: GenerateParams = PARAMS) -> str:
    return serialize_scenario(generate_scenario(params, seed))


# seed 11 is the one of 0-15 whose first draw fails to plan, so it pins the redraw
@pytest.mark.parametrize(
    "seed, params",
    [
        *(pytest.param(seed, PARAMS, id=str(seed)) for seed in (0, 1, 2, 3, 11)),
        pytest.param(1, LARGE, id="600-100-2:1"),
    ],
)
def test_scenario_and_graph_match_pins(seed, params):
    pin = PINS["scenarios"][f"{params.n_agents}-{params.n_boundary}-{params.n_uncooperative}:{seed}"]
    text = _scenario_text(seed, params)
    assert _sha256(text) == pin["scenario_sha256"]
    sc = parse_scenario_text(text)
    assert _sha256(graph_records(sc.formation, build_actual(sc.formation, sc.targets.center()))) == pin["graph_sha256"]


def test_run_matches_pins():
    pin = PINS["scenarios"]["40-10-2:0"]
    doc = metrics_document(run(parse_scenario_text(_scenario_text(0))))
    assert doc["convergence_rate"] == pin["convergence_rate"]
    assert doc["unconverged_ids"] == pin["unconverged_ids"]
    got = dict(doc["terminal_errors"])
    want = dict(pin["terminal_errors"])
    assert got.keys() == want.keys()
    assert max(abs(got[a] - want[a]) for a in want) <= 1e-9
