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
from .errors import BadConfig, ParseError, SwarmTransportError
from .formation import build_actual, graph_records
from .scenario import GenerateParams

OUT_DIR_ENV = "SWARM_TRANSPORT_OUT"


def _out_dir(args) -> Path:
    out = Path(args.out_dir or os.environ.get(OUT_DIR_ENV, "out"))
    reporting.probe_dir(out)
    return out


def cmd_generate(args) -> int:
    params = GenerateParams(
        n_agents=args.agents,
        n_boundary=args.boundary,
        n_uncooperative=args.uncooperative,
        radius=args.radius,
        sample_spacing=args.sample_spacing,
    )
    sc = scenario_io.generate_scenario(params, args.seed)
    reporting.atomic_write_text(args.out, scenario_io.serialize_scenario(sc))
    print(f"wrote {args.out}")
    return 0


def cmd_build_graph(args) -> int:
    sc = scenario_io.load_scenario(args.scenario)
    out = _out_dir(args)
    graph = build_actual(sc.formation, sc.targets.center)
    _write_graph_files(sc.formation, graph, out)
    print("\n".join(reporting.summary_lines(reporting.team_counts(sc.formation, graph))))
    return 0


def _write_graph_files(formation, graph, out: Path) -> None:
    reporting.atomic_write_text(out / "graph.txt", graph_records(formation, graph))
    reporting.atomic_write_text(out / "formation.svg", svgplot.formation_svg(formation, graph))


def _write_plan_outputs(plan, out: Path) -> None:
    _write_graph_files(plan.scenario.formation, plan.graph, out)
    reporting.atomic_write_text(out / "plan.json", reporting.plan_json(plan))
    reporting.atomic_write_text(out / "weights.txt", reporting.weights_table(plan))


def cmd_plan(args) -> int:
    sc = scenario_io.load_scenario(args.scenario)
    out = _out_dir(args)
    plan = engine.make_plan(sc)
    _write_plan_outputs(plan, out)
    print("\n".join(reporting.summary_lines(reporting.plan_document(plan))))
    return 0


def _write_snapshots(run, out: Path, snapshot_times) -> None:
    if run.plan.scenario.formation.dim != 2:
        return  # snapshots are drawn for planar scenes only
    frames = [int(np.argmin(np.abs(run.times - t_snap))) for t_snap in snapshot_times]
    for k in dict.fromkeys(frames):  # each output frame once, in first-asked order
        reporting.atomic_write_text(out / f"snapshot_t{run.times[k]:.15g}.svg", svgplot.snapshot_svg(run, k))


def _snapshot_times(text: str | None, sc) -> list[float]:
    """The ``--snapshot-times`` list, or t0, 10 s and t_end; ``BadConfig``
    for an entry that is not a finite number."""
    if not text:
        return [sc.t0, 10.0, sc.t_end]
    times = []
    for item in text.split(","):
        try:
            value = float(item)
        except ValueError:
            value = float("nan")
        if not np.isfinite(value):
            raise BadConfig(f"--snapshot-times entry {item!r} is not a finite number")
        times.append(value)
    return times


def cmd_simulate(args) -> int:
    sc = scenario_io.load_scenario(args.scenario)
    snapshot_times = _snapshot_times(args.snapshot_times, sc)
    out = _out_dir(args)
    started = time.perf_counter()
    run = engine.run(sc)
    elapsed = time.perf_counter() - started
    _write_plan_outputs(run.plan, out)
    reporting.trace_table(run, out / "trace.csv")
    reporting.atomic_write_text(out / "metrics.json", reporting.metrics_json(run))
    _write_snapshots(run, out, snapshot_times)
    if args.export_setpoints:
        series = engine.setpoint_series(run.plan, run.times)
        reporting.setpoints_table(sc.formation.ids, run.times, series, out / "setpoints.csv")
    print("\n".join(reporting.summary_lines(reporting.metrics_document(run))))
    print(f"runtime {elapsed:.2f} s")
    return 0


def cmd_report(args) -> int:
    try:
        doc = json.loads(scenario_io.read_text(args.metrics, "metrics file"))
        if "convergence_rate" not in doc:  # a plan's document, or no summary at all
            raise KeyError("convergence_rate")
        lines = reporting.summary_lines(doc)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{args.metrics}: invalid JSON: {exc.msg}", line=exc.lineno) from exc
    except (LookupError, TypeError, ValueError) as exc:
        raise ParseError(f"{args.metrics}: not a metrics document ({exc!r})") from exc
    print("\n".join(lines))
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
    gen.add_argument("--radius", type=float, default=GenerateParams.radius)
    gen.add_argument("--sample-spacing", type=float, default=None, dest="sample_spacing")
    gen.set_defaults(func=cmd_generate)

    for name, func in (("build-graph", cmd_build_graph), ("plan", cmd_plan), ("simulate", cmd_simulate)):
        cmd = sub.add_parser(name)
        cmd.add_argument("scenario", help="scenario JSON file")
        cmd.add_argument("--out-dir", default=None, help=f"output directory (${OUT_DIR_ENV} or ./out)")
        if name == "simulate":
            cmd.add_argument("--snapshot-times", default=None, dest="snapshot_times")
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
