"""Tests of the benchmark's own arithmetic: self times, percentiles, ratios.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import statistics
import types

import pytest

import checks
import layers
import run
from calibrate import REFERENCE_S
from stats import quartile_spread, ratio, summarize, tail_percentile
from tracer import Tracer, aggregate, covered_length, root_names, self_times


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([], 0.0, 10.0) == 0.0
    assert covered_length([(1.0, 3.0), (2.0, 4.0)], 0.0, 10.0) == 3.0
    assert covered_length([(1.0, 2.0), (5.0, 6.0)], 0.0, 10.0) == 2.0
    assert covered_length([(-5.0, 1.0), (9.0, 20.0)], 0.0, 10.0) == 2.0
    assert covered_length([(1.0, 5.0), (2.0, 3.0)], 0.0, 10.0) == 4.0


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["a.inner", 2.0, 3.0, 1],
        ["b", 5.0, 9.0, 0],
        ["other", 20.0, 21.0, -1],
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0, 1.0]
    assert root_names(spans) == ["root", "root", "root", "root", "other"]
    # self times of a tree add up to the root's duration
    assert sum(self_times(spans)[:4]) == 10.0


def test_aggregate_keeps_to_one_root_and_sums_counts():
    spans = [
        ["cli.main", 0.0, 4.0, -1],
        ["engine.make_plan", 1.0, 2.0, 0],
        ["scenario.generate", 5.0, 9.0, -1],
        ["engine.make_plan", 6.0, 8.0, 2],
    ]
    counts = {1: {"solves": 3}, 3: {"solves": 5}}
    agg = aggregate(spans, counts, "cli.main")
    assert agg["inclusive"]["engine.make_plan"] == 1.0
    assert agg["calls"]["engine.make_plan"] == 1
    assert agg["self"]["cli.main"] == 3.0
    assert agg["counts"][("engine.make_plan", "solves")] == 3


def test_tracer_wraps_counts_and_restores():
    def work(x):
        return x * 2

    def leaf(x):
        return x

    mod = types.SimpleNamespace(work=work, leaf=leaf)
    tracer = Tracer()
    tracer.wrap_span(mod, "work", "mod.work", count=lambda a, k, r: {"out": r})
    tracer.wrap_count(mod, "leaf", lambda a, k, r: {"leaf": 1})
    with tracer.span("root"):
        assert mod.work(3) == 6
        mod.leaf(1)
        mod.leaf(2)
    tracer.restore()
    assert mod.work is work and mod.leaf is leaf
    assert [s[0] for s in tracer.spans] == ["root", "mod.work"]
    assert tracer.spans[1][3] == 0
    assert tracer.counts == {1: {"out": 6}, 0: {"leaf": 2}}


def test_span_closes_when_the_call_raises():
    def boom():
        raise RuntimeError("x")

    mod = types.SimpleNamespace(boom=boom)
    tracer = Tracer()
    tracer.wrap_span(mod, "boom", "mod.boom")
    with pytest.raises(RuntimeError):
        mod.boom()
    tracer.restore()
    assert tracer.spans[0][2] >= tracer.spans[0][1] and not tracer._stack


@pytest.mark.parametrize(
    "n, expected",
    [(10, None), (19, None), (20, (50.0, 10)), (40, (75.0, 30)), (100, (90.0, 90)),
     (200, (95.0, 190)), (1000, (99.0, 990)), (10_000, (99.9, 9990))],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    values = list(range(1, n + 1))
    assert tail_percentile(values) == (None if expected is None else (expected[0], float(expected[1])))
    if expected is not None:
        assert sum(v > expected[1] for v in values) >= 10


def test_summarize_reports_median_and_count():
    s = summarize([3.0, 1.0, 2.0])
    assert s == {"median": 2.0, "percentile": None, "percentile_value": None, "n": 3}


def test_quartile_spread_matches_statistics():
    values = [1.0, 2.0, 4.0, 8.0, 9.0, 10.0, 11.0, 12.0, 30.0, 31.0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert quartile_spread(values) == {"q1": q1, "median": q2, "q3": q3, "spread": (q3 - q1) / q2}


def test_ratio_of_nothing_attempted_is_zero():
    assert ratio(0, 0) == 0.0
    assert ratio(3, 4) == 0.75


def _traced_run():
    """A plan and a simulate command with known times and counts."""
    spans = [
        ["scenario.generate", 0.0, 3.0, -1],
        ["engine.make_plan", 1.0, 2.0, 0],
        ["cli.main", 10.0, 20.0, -1],
        ["scenario.load", 10.0, 10.5, 2],
        ["engine.run", 10.5, 16.5, 2],
        ["engine.make_plan", 10.5, 11.5, 4],
        ["formation.build_actual", 10.5, 11.0, 5],
        ["targets.compute_desired", 11.0, 11.25, 5],
        ["weights.build_schedule", 11.25, 11.5, 5],
        ["engine.integrate", 11.5, 16.5, 4],
        ["dynamics.step", 12.0, 13.0, 9],
        ["dynamics.step", 13.0, 14.0, 9],
        ["reporting.trace_table", 17.0, 19.0, 2],
        ["scenario.draw", 0.0, 0.9, 0],
    ]
    counts = {
        0: {"point_in_polygon": 7},
        1: {"simplex_tests": 99},  # under generate: not in the command's counts
        6: {"simplex_tests": 8, "rows": 80, "adoptions": 2},
        7: {"rows": 50, "captured": 10, "fallbacks": 1},
        8: {"solves": 4},
    }
    return spans, counts


def test_layer_metrics_ratio_bases():
    spans, counts = _traced_run()
    m = layers.layer_metrics(spans, counts)
    assert m["scenario.draws"] == 1 and m["geometry.point_in_polygon.calls"] == 7
    assert m["scenario.generate_s"] == 3.0
    assert m["scenario.draw_s"] == 3.0  # from the draw's start to the generation's end
    assert m["formation.simplex_tests"] == 8 and m["formation.point_tests"] == 80
    assert m["formation.adoption_ratio"] == 2 / 8  # adoptions / simplex tests
    assert m["targets.capture_ratio"] == 10 / 50  # captured / sample tests
    assert m["targets.fallbacks"] == 1 and m["weights.solves"] == 4
    assert m["engine.make_plan_s"] == 1.0  # inclusive, command scope only
    assert m["engine.integrate_s"] == 5.0
    assert m["engine.loop_self_s"] == 3.0
    assert m["engine.loop_self_us_per_step"] == pytest.approx(1.5e6)  # per RK4 step
    assert m["dynamics.step_calls"] == 2 and m["dynamics.step_us"] == pytest.approx(1e6)
    assert m["cli.self_s"] == 1.5
    assert m["trace.accounted_s"] == pytest.approx(10.0)  # the whole cli.main span


def test_draw_times_split_generation_at_each_draw():
    spans = [
        ["scenario.generate", 0.0, 10.0, -1],
        ["scenario.draw", 0.5, 2.0, 0],
        ["engine.make_plan", 2.0, 4.0, 0],
        ["scenario.draw", 4.0, 6.0, 0],
        ["engine.make_plan", 6.0, 9.0, 0],
        ["cli.main", 20.0, 30.0, -1],
        ["scenario.draw", 21.0, 22.0, 5],  # not generation
        ["scenario.generate", 40.0, 41.0, -1],
        ["scenario.draw", 40.0, 40.5, 7],
    ]
    assert layers.draw_times(spans) == [3.5, 6.0, 1.0]


def test_setup_and_integration_bases():
    spans, _counts = _traced_run()
    setup, integrate = layers.setup_and_integration(spans)
    assert setup == 1.5  # load 0.5 + make_plan 1.0; generation's plan excluded
    assert integrate == 5.0  # engine.run 6.0 minus its make_plan 1.0


def test_per_layer_list_covers_layer_metrics():
    spans, counts = _traced_run()
    m = layers.layer_metrics(spans, counts)
    derived_in_runner = {"agent_steps_per_s", "host.e2e_s", "host.calibration_s", "trace.e2e_s",
                         "trace.overhead_s", "trace.accounted_share"}
    assert set(m) - {"trace.accounted_s"} == set(layers.PER_LAYER) - derived_in_runner
    assert set(layers.SELF_TIME_METRICS) <= set(m)
    assert set(layers.WORK_COUNTS) <= set(m)


GRAPH = "# id\tlayer\trole\tmentors\n1\t0\tboundary\t-\n2\t0\tboundary\t-\n3\t0\tboundary\t-\n4\t0\tcore\t-\n5\t1\tcooperative\t1,2,4\n"
SCENARIO = {"dimension": 2, "agents": [
    {"id": 1, "role": "boundary"}, {"id": 2, "role": "boundary"}, {"id": 3, "role": "boundary"},
    {"id": 4, "role": "cooperative"}, {"id": 5, "role": "cooperative"}]}


def test_graph_laws():
    assert checks.graph_laws(GRAPH, SCENARIO)[0]
    late = GRAPH.replace("5\t1\tcooperative\t1,2,4", "5\t0\tcooperative\t1,2,4")
    assert not checks.graph_laws(late, SCENARIO)[0]
    short = GRAPH.replace("1,2,4", "1,2")
    assert not checks.graph_laws(short, SCENARIO)[0]


def test_metrics_consistency_and_pins():
    doc = {"evaluated_count": 4, "converged_count": 3, "convergence_rate": 0.75, "unconverged_ids": [9]}
    assert checks.metrics_consistent(doc)[0]
    assert not checks.metrics_consistent(dict(doc, convergence_rate=0.5))[0]
    assert checks.terminal_matches_pin([[1, 0.5]], [[1, 0.5 + 5e-10]])[0]
    assert not checks.terminal_matches_pin([[1, 0.5]], [[1, 0.5 + 2e-9]])[0]


def test_scaled_divides_host_times_by_the_relative_slowness():
    rep = {"e2e_s": 8.0, "setup_s": 0.4, "peak_rss_mb": 100.0, "convergence_rate": 0.9,
           "calibration_s": 2.0 * REFERENCE_S}  # machine at half speed
    assert run.scaled(rep) == {"e2e_s": 4.0, "setup_s": 0.2, "peak_rss_mb": 100.0,
                               "convergence_rate": 0.9}
    assert set(run.scaled(rep)) == set(run.END_TO_END)
