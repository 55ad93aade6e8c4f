"""The array-form SVG writers against the per-element oracle, byte for byte."""

import numpy as np
import pytest

from conftest import cube_scenario, quick_scenario, square_core_formation
from oracles import elementwise_formation_svg, elementwise_snapshot_svg
from swarm_transport.engine import run
from swarm_transport.formation import build_actual
from swarm_transport.geometry import ensure_ccw, scale_polygon
from swarm_transport.svgplot import formation_svg, snapshot_svg


def assert_same_svg(got, want):
    if got != want:
        pairs = zip(got.split("\n"), want.split("\n"))
        k, (a, b) = next((k, ab) for k, ab in enumerate(pairs) if ab[0] != ab[1])
        pytest.fail(f"line {k}: {a!r} != {b!r}")


def snapshot_inputs(res, k, inflated=True):
    trace, sc = res.trace, res.plan.scenario
    zone = sc.targets.zone_polygon()
    center = zone.mean(axis=0)
    return dict(
        positions=trace.positions[k],
        roles=trace.roles,
        t=float(trace.times[k]),
        zone=zone,
        inflated_zone=scale_polygon(ensure_ccw(zone), 1.1) if inflated else center + 1.1 * (zone - center),
        samples=sc.targets.samples,
        graph=res.plan.graph,
        ids=trace.ids,
    )


@pytest.fixture(scope="module")
def clamped_run():
    return run(quick_scenario(seed=1, n=40, nb=10, uncoop=2))


def test_2d_team_with_clamped_agents(clamped_run):
    res = clamped_run
    form = res.plan.scenario.formation
    svg = formation_svg(form, res.plan.graph)
    assert_same_svg(svg, elementwise_formation_svg(form, res.plan.graph))
    assert "#d62728" in svg and svg.count("<title>") == form.n_agents
    for k in (0, 100, len(res.trace.times) - 1):
        args = snapshot_inputs(res, k)
        svg = snapshot_svg(**args)
        assert_same_svg(svg, elementwise_snapshot_svg(**args))
        assert svg.count("<circle") == form.n_agents + len(args["samples"])


def test_3d_cube_drawn_as_xy_projection():
    res = run(cube_scenario())
    form = res.plan.scenario.formation
    assert_same_svg(formation_svg(form, res.plan.graph), elementwise_formation_svg(form, res.plan.graph))
    for k in (0, len(res.trace.times) - 1):
        args = snapshot_inputs(res, k, inflated=False)
        assert_same_svg(snapshot_svg(**args), elementwise_snapshot_svg(**args))


@pytest.mark.parametrize(
    "changes",
    [
        dict(samples=None),
        dict(samples=np.empty((0, 2))),
        dict(ids=None),
        dict(graph=None),
        dict(samples=None, graph=None, ids=None, zone=None, inflated_zone=None),
    ],
    ids=["no-samples", "empty-samples", "no-ids", "no-graph", "team-only"],
)
def test_optional_inputs(clamped_run, changes):
    args = {**snapshot_inputs(clamped_run, 50), **changes}
    svg = snapshot_svg(**args)
    assert_same_svg(svg, elementwise_snapshot_svg(**args))
    assert "\n\n" not in svg


def test_formation_without_mentees():
    form = square_core_formation()
    graph = build_actual(form)
    assert len(graph.mentees) == 0
    svg = formation_svg(form, graph)
    assert_same_svg(svg, elementwise_formation_svg(form, graph))
    assert "<line" not in svg and "\n\n" not in svg
