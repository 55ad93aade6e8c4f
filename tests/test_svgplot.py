"""The array-form SVG writers against the per-element oracle, byte for byte."""

import dataclasses

import numpy as np
import pytest

from conftest import cube_scenario, quick_scenario, square_core_formation
from oracles import elementwise_formation_svg, elementwise_snapshot_svg
from swarm_transport.engine import run
from swarm_transport.formation import build_actual
from swarm_transport.svgplot import formation_svg, snapshot_svg


def assert_same_svg(got, want):
    if got != want:
        pairs = zip(got.split("\n"), want.split("\n"))
        k, (a, b) = next((k, ab) for k, ab in enumerate(pairs) if ab[0] != ab[1])
        pytest.fail(f"line {k}: {a!r} != {b!r}")


@pytest.fixture(scope="module")
def clamped_run():
    return run(quick_scenario(seed=1, n=40, nb=10, uncoop=2))


def test_2d_team_with_clamped_agents(clamped_run):
    res = clamped_run
    form = res.plan.scenario.formation
    svg = formation_svg(form, res.plan.graph)
    assert_same_svg(svg, elementwise_formation_svg(form, res.plan.graph))
    assert "#d62728" in svg and svg.count("<title>") == form.n_agents
    for k in (0, 100, len(res.times) - 1):
        svg = snapshot_svg(res, k)
        assert_same_svg(svg, elementwise_snapshot_svg(res, k))
        assert svg.count("<circle") == form.n_agents + len(res.plan.scenario.targets.samples)


def test_3d_cube_drawn_as_xy_projection():
    res = run(cube_scenario())
    form = res.plan.scenario.formation
    assert_same_svg(formation_svg(form, res.plan.graph), elementwise_formation_svg(form, res.plan.graph))
    for k in (0, len(res.times) - 1):
        assert_same_svg(snapshot_svg(res, k), elementwise_snapshot_svg(res, k))


@pytest.mark.parametrize("samples", [np.empty((0, 2))], ids=["empty-samples"])
def test_optional_inputs(clamped_run, samples):
    # the one input a run may lack is target samples: a zone without them draws no sample dots
    sc = clamped_run.plan.scenario
    scenario = dataclasses.replace(sc, targets=dataclasses.replace(sc.targets, samples=samples))
    res = dataclasses.replace(clamped_run, plan=dataclasses.replace(clamped_run.plan, scenario=scenario))
    svg = snapshot_svg(res, 50)
    assert_same_svg(svg, elementwise_snapshot_svg(res, 50))
    assert svg.count("<circle") == sc.formation.n_agents and "\n\n" not in svg


def test_formation_without_mentees():
    form = square_core_formation()
    graph = build_actual(form, (2.0, 2.0))
    assert len(graph.mentees) == 0
    svg = formation_svg(form, graph)
    assert_same_svg(svg, elementwise_formation_svg(form, graph))
    assert "<line" not in svg and "\n\n" not in svg
