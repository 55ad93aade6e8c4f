"""Where the benchmark wraps the program, and the metrics derived from the spans.

Every command runs inside a ``cli.main`` span and every scenario generation
inside a ``scenario.generate`` span, both opened by ``rep.py``. Layer
metrics cover the ``cli.main`` spans (the end-to-end scope), except the
``GENERATION_METRICS``, which cover the ``scenario.generate`` spans.
"""

from __future__ import annotations

from stats import median, ratio
from tracer import aggregate

E2E_ROOT = "cli.main"
GENERATE_ROOT = "scenario.generate"

WRITERS = ("trace_table", "setpoints_table", "metrics_json", "plan_json", "weights_table")


def install_light(tracer, st) -> None:
    """The few spans and counters the untraced run needs for its metrics."""
    tracer.wrap_span(st.scenario, "_draw_scenario", "scenario.draw")
    tracer.wrap_span(st.scenario, "load_scenario", "scenario.load")
    tracer.wrap_span(st.engine, "run", "engine.run")
    tracer.wrap_span(st.engine, "make_plan", "engine.make_plan")


def _text_length(args, kwargs, _result) -> dict:
    text = args[1] if len(args) > 1 else kwargs["text"]
    return {"bytes": len(text)}  # writers emit ASCII, so characters are bytes


def _capture(_args, _kwargs, desired) -> dict:
    return {
        "captured": sum(len(idx) for idx in desired.captured.values()),
        "fallbacks": len(desired.fallback_ids),
    }


def install_full(tracer, st) -> None:
    """Spans at every layer boundary plus the work counters."""
    install_light(tracer, st)
    engine = st.engine
    tracer.wrap_span(engine, "build_actual", "formation.build_actual")
    tracer.wrap_span(engine, "compute_desired", "targets.compute_desired", count=_capture)
    tracer.wrap_span(engine, "build_schedule", "weights.build_schedule")
    tracer.wrap_span(engine, "_integrate", "engine.integrate")
    tracer.wrap_span(engine, "convergence_check", "engine.convergence_check")
    tracer.wrap_span(engine, "setpoint_series", "engine.setpoint_series")
    tracer.wrap_span(st.dynamics, "step", "dynamics.step")
    for attr in WRITERS:
        tracer.wrap_span(st.reporting, attr, f"reporting.{attr}")
    tracer.wrap_span(st.reporting, "atomic_write_text", "reporting.atomic_write", count=_text_length)
    tracer.wrap_span(st.svgplot, "formation_svg", "svgplot.formation_svg")
    tracer.wrap_span(st.svgplot, "snapshot_svg", "svgplot.snapshot_svg")
    tracer.wrap_span(st.cli, "graph_records", "formation.graph_records")

    tracer.wrap_count(engine, "propagate_setpoints", lambda a, k, r: {"propagate_calls": 1})
    tracer.wrap_count(st.geometry, "point_in_polygon", lambda a, k, r: {"point_in_polygon": 1})
    tracer.wrap_count(
        st.geometry, "barycentric_many", lambda a, k, r: {"simplex_tests": 1, "rows": len(r)}
    )
    tracer.wrap_count(st.geometry, "barycentric", lambda a, k, r: {"solves": 1})
    tracer.wrap_count(st.formation, "_pick_mentee", lambda a, k, r: {"adoptions": int(r is not None)})


# Every per-layer metric with its unit, in the order the runner prints them.
PER_LAYER = {
    "scenario.generate_s": "s",
    "scenario.draw_s": "s",
    "scenario.load_s": "s",
    "scenario.draws": "count",
    "geometry.point_in_polygon.calls": "count",
    "formation.build_actual_s": "s",
    "formation.simplex_tests": "count",
    "formation.point_tests": "count",
    "formation.adoptions": "count",
    "formation.adoption_ratio": "ratio",
    "formation.graph_records_s": "s",
    "targets.compute_desired_s": "s",
    "targets.sample_tests": "count",
    "targets.captured": "count",
    "targets.capture_ratio": "ratio",
    "targets.fallbacks": "count",
    "weights.build_schedule_s": "s",
    "weights.solves": "count",
    "engine.make_plan_s": "s",
    "engine.self_s": "s",
    "engine.integrate_s": "s",
    "engine.loop_self_s": "s",
    "engine.loop_self_us_per_step": "us",
    "engine.convergence_check_s": "s",
    "dynamics.step_calls": "count",
    "dynamics.step_s": "s",
    "dynamics.step_us": "us",
    "engine.setpoint_series_s": "s",
    "setpoints.propagate_calls": "count",
    "reporting.trace_table_s": "s",
    "reporting.setpoints_table_s": "s",
    "reporting.metrics_json_s": "s",
    "reporting.plan_json_s": "s",
    "reporting.weights_table_s": "s",
    "reporting.atomic_write_s": "s",
    "reporting.bytes_written": "bytes",
    "svgplot.formation_svg_s": "s",
    "svgplot.snapshot_svg_s": "s",
    "cli.self_s": "s",
    # host values of the untraced repetitions, not scaled
    "agent_steps_per_s": "1/s",
    "host.e2e_s": "s",
    "host.calibration_s": "s",
    # traced against untraced
    "trace.e2e_s": "s",
    "trace.overhead_s": "s",
    "trace.accounted_share": "ratio",
}

# Self times that partition the traced ``cli.main`` time between them.
SELF_TIME_METRICS = (
    "scenario.load_s",
    "formation.build_actual_s",
    "formation.graph_records_s",
    "targets.compute_desired_s",
    "weights.build_schedule_s",
    "engine.self_s",
    "engine.loop_self_s",
    "engine.convergence_check_s",
    "dynamics.step_s",
    "engine.setpoint_series_s",
    "reporting.trace_table_s",
    "reporting.setpoints_table_s",
    "reporting.metrics_json_s",
    "reporting.plan_json_s",
    "reporting.weights_table_s",
    "reporting.atomic_write_s",
    "svgplot.formation_svg_s",
    "svgplot.snapshot_svg_s",
    "cli.self_s",
)

# Metrics of the generation scope, measured only by repetitions that generate.
GENERATION_METRICS = (
    "scenario.generate_s",
    "scenario.draw_s",
    "scenario.draws",
    "geometry.point_in_polygon.calls",
)

# Work counts; each must repeat exactly between runs of the same code and seed.
WORK_COUNTS = (
    "scenario.draws",
    "geometry.point_in_polygon.calls",
    "formation.simplex_tests",
    "formation.point_tests",
    "formation.adoptions",
    "targets.sample_tests",
    "targets.captured",
    "targets.fallbacks",
    "weights.solves",
    "dynamics.step_calls",
    "setpoints.propagate_calls",
    "reporting.bytes_written",
)


def layer_metrics(spans, counts) -> dict:
    """Per-layer metrics of one traced repetition."""
    e2e = aggregate(spans, counts, E2E_ROOT)
    gen = aggregate(spans, counts, GENERATE_ROOT)
    s, inc, calls, c = e2e["self"], e2e["inclusive"], e2e["calls"], e2e["counts"]

    steps = calls["dynamics.step"]
    m = {
        "scenario.generate_s": gen["inclusive"][GENERATE_ROOT],
        "scenario.draw_s": median(draws) if (draws := draw_times(spans)) else 0.0,
        "scenario.load_s": s["scenario.load"],
        "scenario.draws": gen["calls"]["scenario.draw"],
        "geometry.point_in_polygon.calls": sum(
            n for (_name, key), n in gen["counts"].items() if key == "point_in_polygon"
        ),
        "formation.build_actual_s": s["formation.build_actual"],
        "formation.simplex_tests": c[("formation.build_actual", "simplex_tests")],
        "formation.point_tests": c[("formation.build_actual", "rows")],
        "formation.adoptions": c[("formation.build_actual", "adoptions")],
        "formation.graph_records_s": s["formation.graph_records"],
        "targets.compute_desired_s": s["targets.compute_desired"],
        "targets.sample_tests": c[("targets.compute_desired", "rows")],
        "targets.captured": c[("targets.compute_desired", "captured")],
        "targets.fallbacks": c[("targets.compute_desired", "fallbacks")],
        "weights.build_schedule_s": s["weights.build_schedule"],
        "weights.solves": c[("weights.build_schedule", "solves")],
        "engine.make_plan_s": inc["engine.make_plan"],
        "engine.self_s": s["engine.run"] + s["engine.make_plan"],
        "engine.integrate_s": inc["engine.integrate"],
        "engine.loop_self_s": s["engine.integrate"],
        "engine.loop_self_us_per_step": ratio(s["engine.integrate"], steps) * 1e6,
        "engine.convergence_check_s": s["engine.convergence_check"],
        "dynamics.step_calls": steps,
        "dynamics.step_s": s["dynamics.step"],
        "dynamics.step_us": ratio(s["dynamics.step"], steps) * 1e6,
        "engine.setpoint_series_s": s["engine.setpoint_series"],
        "setpoints.propagate_calls": c[("engine.setpoint_series", "propagate_calls")],
        "reporting.atomic_write_s": s["reporting.atomic_write"],
        "reporting.bytes_written": c[("reporting.atomic_write", "bytes")],
        "svgplot.formation_svg_s": s["svgplot.formation_svg"],
        "svgplot.snapshot_svg_s": s["svgplot.snapshot_svg"],
        "cli.self_s": s[E2E_ROOT],
    }
    for attr in WRITERS:
        m[f"reporting.{attr}_s"] = s[f"reporting.{attr}"]
    m["formation.adoption_ratio"] = ratio(m["formation.adoptions"], m["formation.simplex_tests"])
    m["targets.capture_ratio"] = ratio(m["targets.captured"], m["targets.sample_tests"])
    m["trace.accounted_s"] = sum(m[name] for name in SELF_TIME_METRICS)
    return m


def draw_times(spans) -> list[float]:
    """Host time of each generation draw (attempt), redraws included.

    A draw runs from the start of its ``scenario.draw`` span to the start of
    the next draw, or to the end of its ``scenario.generate`` span, so it
    covers the sampling and the validating ``make_plan`` that follows.
    """
    ends = {k: end for k, (name, _start, end, _parent) in enumerate(spans) if name == GENERATE_ROOT}
    starts: dict[int, list[float]] = {k: [] for k in ends}
    for name, start, _end, parent in spans:
        if name == "scenario.draw" and parent in starts:
            starts[parent].append(start)
    out = []
    for k, marks in starts.items():
        bounds = marks + [ends[k]]
        out.extend(b - a for a, b in zip(bounds, bounds[1:]))
    return out


def setup_and_integration(spans) -> tuple[float, float]:
    """``setup_s`` and integration host time of one repetition.

    Set-up is every ``scenario.load`` plus every ``engine.make_plan`` below
    ``cli.main``. Integration is ``engine.run`` minus the ``make_plan`` it
    calls, so it covers the loop, RK4 and the convergence verdicts.
    """
    e2e = aggregate(spans, {}, E2E_ROOT)
    inc = e2e["inclusive"]
    setup = inc["scenario.load"] + inc["engine.make_plan"]
    inner_plan = sum(
        end - start
        for name, start, end, parent in spans
        if name == "engine.make_plan" and parent >= 0 and spans[parent][0] == "engine.run"
    )
    return setup, inc["engine.run"] - inner_plan
