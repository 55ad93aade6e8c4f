"""The benchmark's hooks into the program (``perfbench/layers.py``) must keep
finding what they wrap. Renaming or removing a wrapped function, or an
attribute a counter reads from its result, fails here instead of in a traced
benchmark run."""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import layers  # noqa: E402
import rep  # noqa: E402
from tracer import Tracer  # noqa: E402

from conftest import quick_scenario  # noqa: E402
from swarm_transport.dynamics import DEFAULT_GAINS, rk4_map  # noqa: E402
from swarm_transport.scenario import serialize_scenario  # noqa: E402


def test_traced_simulate_runs_through_every_hook(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(serialize_scenario(quick_scenario()))
    st = rep.import_program()
    step, compute_desired = st.dynamics.step, st.engine.compute_desired
    tracer = Tracer()
    try:
        layers.install_full(tracer, st)
        argv = ["simulate", str(path), "--out-dir", str(tmp_path / "out"), "--export-setpoints"]
        with tracer.span(layers.E2E_ROOT):
            assert st.cli.main(argv) == 0
            st.dynamics.step(np.zeros((1, 4, 2)), np.zeros((1, 2)), rk4_map(DEFAULT_GAINS, 0.01))
    finally:
        tracer.restore()
    names = {span[0] for span in tracer.spans}
    assert {"engine.integrate", "targets.compute_desired", "dynamics.step", "reporting.trace_table"} <= names
    counted = {key for bucket in tracer.counts.values() for key in bucket}
    assert {"captured", "fallbacks", "bytes", "simplex_tests", "propagate_calls"} <= counted
    assert st.dynamics.step is step and st.engine.compute_desired is compute_desired
