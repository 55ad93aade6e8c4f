"""The benchmark's recorded outputs, reproduced in-process.

``perfbench/pins.json`` holds, per generated scenario, the sha256 of the
scenario file and of its ``graph.txt`` plus the run's verdicts and terminal
errors. These tests read it (never write it), so a change that alters a
generated scenario, the mentor graph or a run's outcome fails here first.
Every scenario whose pins a default benchmark run checks (sweep-small seeds
1-16 and transport-large seed 1) is checked here as the benchmark checks it;
every other pinned 40-10-2 document, and the 600-100-2 ones of seeds 0-3, 8
and 10, by its sha256 alone.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from checks import terminal_matches_pin  # noqa: E402
from swarm_transport.engine import run  # noqa: E402
from swarm_transport.formation import build_actual, graph_records  # noqa: E402
from swarm_transport.reporting import metrics_document  # noqa: E402
from swarm_transport.scenario import GenerateParams, generate_scenario, parse_scenario_text, serialize_scenario  # noqa: E402

PINS = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "pins.json").read_text())
PARAMS = GenerateParams(n_agents=40, n_boundary=10, n_uncooperative=2)
LARGE = GenerateParams(n_agents=600, n_boundary=100, n_uncooperative=2)  # transport-large


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _scenario_text(seed: int, params: GenerateParams = PARAMS) -> str:
    return serialize_scenario(generate_scenario(params, seed))


def _pin(seed: int, params: GenerateParams = PARAMS) -> dict:
    return PINS["scenarios"][f"{params.n_agents}-{params.n_boundary}-{params.n_uncooperative}:{seed}"]


# the scenarios whose pins a default benchmark run checks: sweep-small seeds
# 1-16 and transport-large seed 1
BENCHMARK = [
    *(pytest.param(seed, PARAMS, id=str(seed)) for seed in range(1, 17)),
    pytest.param(1, LARGE, id="600-100-2:1"),
]


def _assert_run_matches(seed: int, params: GenerateParams = PARAMS):
    """The run's verdicts equal the pin's and its terminal errors lie within
    the benchmark's tolerance of them."""
    pin = _pin(seed, params)
    doc = metrics_document(run(parse_scenario_text(_scenario_text(seed, params))))
    assert doc["convergence_rate"] == pin["convergence_rate"]
    assert doc["unconverged_ids"] == pin["unconverged_ids"]
    ok, detail = terminal_matches_pin(doc["terminal_errors"], pin["terminal_errors"])
    assert ok, detail


# seed 11 is the one of 0-15 whose first draw fails to plan, so it pins the redraw
@pytest.mark.parametrize("seed, params", [pytest.param(0, PARAMS, id="0"), *BENCHMARK])
def test_scenario_and_graph_match_pins(seed, params):
    pin = _pin(seed, params)
    text = _scenario_text(seed, params)
    assert _sha256(text) == pin["scenario_sha256"]
    sc = parse_scenario_text(text)
    assert _sha256(graph_records(sc.formation, build_actual(sc.formation, sc.targets.center))) == pin["graph_sha256"]


# the other pinned draws whose bytes the batched interior draw must keep: the
# rest of the 40-10-2 seeds, and transport-large's team at seeds 0, 2, 3, 8
# and 10 (8 and 10 redraw)
GENERATED = [
    *(pytest.param(seed, PARAMS, id=str(seed)) for seed in range(17, 31)),
    *(pytest.param(seed, LARGE, id=f"600-100-2:{seed}") for seed in (0, 2, 3, 8, 10)),
]


@pytest.mark.parametrize("seed, params", GENERATED)
def test_generated_document_matches_pin(seed, params):
    assert _sha256(_scenario_text(seed, params)) == _pin(seed, params)["scenario_sha256"]


def test_run_matches_pins():
    _assert_run_matches(0)


@pytest.mark.parametrize("seed, params", BENCHMARK)
def test_benchmark_run_matches_pins(seed, params):
    _assert_run_matches(seed, params)
