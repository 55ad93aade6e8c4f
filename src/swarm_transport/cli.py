"""Command-line front end: generate, build-graph, plan, simulate, report."""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import engine, reporting, scenario as scenario_io, svgplot
from .errors import SwarmTransportError
from .formation import build_actual, graph_records
from .geometry import ensure_ccw, scale_polygon
from .scenario import GenerateParams

OUT_DIR_ENV = "SWARM_TRANSPORT_OUT"


def _out_dir(args) -> Path:
    if args.out_dir:
        return Path(args.out_dir)
    return Path(os.environ.get(OUT_DIR_ENV, "out"))


def _apply_overrides(sc, args):
    overrides = {}
    if getattr(args, "dt", None) is not None:
        overrides["dt"] = args.dt
    if getattr(args, "margin", None) is not None:
        overrides["margin"] = args.margin
    if getattr(args, "leader_blend", False):
        overrides["leader_blend"] = True
    return scenario_io.with_overrides(sc, **overrides) if overrides else sc


def cmd_generate(args) -> int:
    params = GenerateParams(
        n_agents=args.agents,
        n_boundary=args.boundary,
        n_uncooperative=args.uncooperative,
        radius=args.radius,
        zone_scale=args.zone_scale,
        sample_spacing=args.sample_spacing,
    )
    sc = scenario_io.generate_scenario(params, args.seed)
    reporting.atomic_write_text(args.out, scenario_io.serialize_scenario(sc))
    print(f"wrote {args.out}")
    return 0


def cmd_build_graph(args) -> int:
    sc = scenario_io.load_scenario(args.scenario)
    graph = build_actual(sc.formation)
    out = _out_dir(args)
    reporting.atomic_write_text(out / "graph.txt", graph_records(sc.formation, graph))
    reporting.atomic_write_text(out / "formation.svg", svgplot.formation_svg(sc.formation, graph))
    print(reporting.build_summary(sc.formation, graph))
    return 0


def _write_plan_outputs(plan, out: Path) -> None:
    reporting.atomic_write_text(out / "graph.txt", graph_records(plan.scenario.formation, plan.graph))
    reporting.atomic_write_text(
        out / "formation.svg", svgplot.formation_svg(plan.scenario.formation, plan.graph)
    )
    reporting.atomic_write_text(out / "plan.json", reporting.plan_json(plan))
    reporting.atomic_write_text(out / "weights.txt", reporting.weights_table(plan))


def cmd_plan(args) -> int:
    sc = _apply_overrides(scenario_io.load_scenario(args.scenario), args)
    plan = engine.make_plan(sc)
    _write_plan_outputs(plan, _out_dir(args))
    print(reporting.build_summary(sc.formation, plan.graph))
    if plan.desired.fallback_ids:
        print(f"coverage warning: fallback mentees {list(plan.desired.fallback_ids)}")
    return 0


def _write_snapshots(result, out: Path, snapshot_times) -> None:
    plan = result.plan
    trace = result.trace
    zone = plan.scenario.targets.zone_polygon()
    if zone.shape[1] != 2:
        return  # snapshots are drawn for planar scenes only
    inflated = scale_polygon(ensure_ccw(zone), 1.0 + plan.scenario.margin)
    for t_snap in snapshot_times:
        k = int(np.argmin(np.abs(trace.times - t_snap)))
        svg = svgplot.snapshot_svg(
            trace.positions[k],
            trace.roles,
            float(trace.times[k]),
            zone=zone,
            inflated_zone=inflated,
            samples=plan.scenario.targets.samples,
            edges=plan.graph.edges,
            ids=trace.ids,
        )
        name = f"snapshot_t{trace.times[k]:g}.svg"
        reporting.atomic_write_text(out / name, svg)


def cmd_simulate(args) -> int:
    sc = _apply_overrides(scenario_io.load_scenario(args.scenario), args)
    out = _out_dir(args)
    if args.dry_run:
        plan = engine.make_plan(sc)
        _write_plan_outputs(plan, out)
        print(reporting.build_summary(sc.formation, plan.graph))
        print("dry run: no integration")
        return 0
    started = time.perf_counter()
    result = engine.run(sc)
    elapsed = time.perf_counter() - started
    _write_plan_outputs(result.plan, out)
    reporting.atomic_write_text(out / "trace.csv", reporting.trace_table(result.trace))
    reporting.atomic_write_text(out / "metrics.json", reporting.metrics_json(result))
    snapshot_times = [float(s) for s in args.snapshot_times.split(",")] if args.snapshot_times else [sc.t0, 10.0, sc.t_end]
    _write_snapshots(result, out, snapshot_times)
    if args.export_setpoints:
        series = engine.setpoint_series(result.plan, result.trace.times)
        reporting.atomic_write_text(
            out / "setpoints.csv",
            reporting.setpoints_table(result.trace.ids, result.trace.times, series),
        )
    print(reporting.build_summary(sc.formation, result.plan.graph))
    unconverged = sorted(a for a, ok in result.trace.converged.items() if not ok)
    print(
        f"convergence rate {result.trace.rate:.4f} "
        f"({sum(result.trace.converged.values())}/{len(result.trace.converged)}), "
        f"runtime {elapsed:.2f} s"
    )
    if unconverged:
        print(f"unconverged agents: {unconverged}")
    return 0


def cmd_report(args) -> int:
    with open(args.metrics) as handle:
        doc = json.load(handle)
    print(
        f"N={doc['n_agents']} boundary={doc['n_boundary']} "
        f"cooperative={doc['n_cooperative']} uncooperative={doc['n_uncooperative']} "
        f"layers={doc['n_layers']}"
    )
    print(
        f"convergence rate {doc['convergence_rate']:.4f} "
        f"({doc['converged_count']}/{doc['evaluated_count']})"
    )
    if doc["unconverged_ids"]:
        print(f"unconverged agents: {doc['unconverged_ids']}")
    if doc["fallback_agents"]:
        print(f"fallback mentees (empty capture): {doc['fallback_agents']}")
    if doc["uncovered_sample_count"]:
        print(f"uncovered target samples: {doc['uncovered_sample_count']}")
    worst = sorted(doc["terminal_errors"], key=lambda row: -row[1])[:5]
    print("largest terminal errors: " + ", ".join(f"{a}:{e:.3g}" for a, e in worst))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swarm-transport",
        description="Plan and simulate decentralized swarm transport to a target zone.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a seeded random scenario file")
    gen.add_argument("--out", required=True, help="scenario file to write")
    gen.add_argument("--agents", type=int, required=True)
    gen.add_argument("--boundary", type=int, required=True)
    gen.add_argument("--uncooperative", type=int, default=0)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--radius", type=float, default=10.0)
    gen.add_argument("--zone-scale", type=float, default=0.45, dest="zone_scale")
    gen.add_argument("--sample-spacing", type=float, default=None, dest="sample_spacing")
    gen.set_defaults(func=cmd_generate)

    for name, func, with_sim_flags in (
        ("build-graph", cmd_build_graph, False),
        ("plan", cmd_plan, True),
        ("simulate", cmd_simulate, True),
    ):
        cmd = sub.add_parser(name)
        cmd.add_argument("scenario", help="scenario JSON file")
        cmd.add_argument("--out-dir", default=None, help=f"output directory (${OUT_DIR_ENV} or ./out)")
        if with_sim_flags:
            cmd.add_argument("--dt", type=float, default=None)
            cmd.add_argument("--margin", type=float, default=None)
            cmd.add_argument("--leader-blend", action="store_true", dest="leader_blend")
        if name == "simulate":
            cmd.add_argument("--snapshot-times", default=None, dest="snapshot_times")
            cmd.add_argument("--dry-run", action="store_true", dest="dry_run")
            cmd.add_argument("--export-setpoints", action="store_true", dest="export_setpoints")
        cmd.set_defaults(func=func)

    rep = sub.add_parser("report", help="summarize a metrics.json file")
    rep.add_argument("metrics")
    rep.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SwarmTransportError as exc:
        record = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(record), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
