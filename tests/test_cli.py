import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import swarm_transport
from conftest import cube_scenario, manual_scenario
from swarm_transport import cli, engine, geometry
from swarm_transport.cli import main
from swarm_transport.formation import Formation
from swarm_transport.scenario import serialize_scenario


def _generate(tmp_path, name="scenario.json", agents=30, boundary=8, uncoop=0, seed=0):
    path = tmp_path / name
    code = main(
        [
            "generate",
            "--out",
            str(path),
            "--agents",
            str(agents),
            "--boundary",
            str(boundary),
            "--uncooperative",
            str(uncoop),
            "--seed",
            str(seed),
        ]
    )
    assert code == 0
    return path


class TestGenerate:
    def test_writes_file(self, tmp_path):
        path = _generate(tmp_path)
        doc = json.loads(path.read_text())
        assert len(doc["agents"]) == 30

    def test_same_seed_same_bytes(self, tmp_path):
        a = _generate(tmp_path, "a.json", seed=7)
        b = _generate(tmp_path, "b.json", seed=7)
        assert a.read_bytes() == b.read_bytes()


    @pytest.mark.parametrize(
        "flag, value, named",
        [
            ("--sample-spacing", "0", "sample_spacing must be"),
            ("--sample-spacing", "nan", "sample_spacing must be"),
            ("--sample-spacing", "-1", "sample_spacing must be"),
            ("--sample-spacing", "1e-9", "sample_spacing 1e-09 gives a grid"),
            ("--radius", "0", "radius must be"),
            ("--radius", "nan", "radius must be"),
            ("--radius", "inf", "radius must be"),
            # beyond the divergence bound, overflowing the hull's geometry,
            # and below the absolute hull tolerances
            ("--radius", "1e12", "radius must lie in [0.001, 1000], got 1e+12"),
            ("--radius", "1e300", "radius must lie in [0.001, 1000], got 1e+300"),
            ("--radius", "1e-12", "radius must lie in [0.001, 1000], got 1e-12"),
            ("--seed", "-1", "seed must be"),
        ],
    )
    def test_bad_sizes_are_refused(self, tmp_path, capsys, no_grid_axes, flag, value, named):
        path = tmp_path / "scenario.json"
        argv = ["generate", "--out", str(path), "--agents", "24", "--boundary", "6", flag, value]
        assert main(argv) == 1
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "InfeasibleParams"
        assert named in record["message"]
        assert not path.exists()

    @pytest.mark.parametrize("radius", ["1e-3", "1e3"])
    def test_radius_range_ends_generate_and_simulate(self, tmp_path, capsys, radius):
        path = tmp_path / "scenario.json"
        argv = ["generate", "--out", str(path), "--agents", "24", "--boundary", "6", "--radius", radius]
        assert main(argv) == 0
        assert main(["simulate", str(path), "--out-dir", str(tmp_path / "out")]) == 0
        assert "convergence rate 1.0000 (17/17)" in capsys.readouterr().out


class TestBuildGraph:
    def test_prints_team_summary(self, tmp_path, capsys):
        path = _generate(tmp_path, agents=95, boundary=16, seed=1)
        out = tmp_path / "out"
        assert main(["build-graph", str(path), "--out-dir", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "N=95" in printed
        assert "N_B=16" in printed
        assert "N_L=16" in printed
        assert "cooperative=78" in printed
        assert (out / "graph.txt").exists()
        assert (out / "formation.svg").exists()

    def test_clamped_team_counts(self, tmp_path, capsys):
        path = _generate(tmp_path, agents=100, boundary=14, uncoop=5, seed=2)
        out = tmp_path / "out"
        assert main(["build-graph", str(path), "--out-dir", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "N=100" in printed
        assert "uncooperative=5" in printed
        assert "cooperative=80" in printed

    def test_parse_error_is_machine_readable(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dimension": 2, "agents": []}')
        assert main(["build-graph", str(bad)]) == 1
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ParseError"

    def test_missing_file_fails_cleanly(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["build-graph"])  # argparse: missing positional


class TestSimulate:
    def test_full_run_outputs(self, tmp_path, capsys):
        path = _generate(tmp_path, agents=24, boundary=6, seed=3)
        out = tmp_path / "run"
        code = main(
            [
                "simulate",
                str(path),
                "--out-dir",
                str(out),
                "--snapshot-times",
                "0,10,25",
                "--export-setpoints",
            ]
        )
        assert code == 0
        for name in ("graph.txt", "formation.svg", "plan.json", "weights.txt",
                     "trace.csv", "metrics.json", "setpoints.csv",
                     "snapshot_t0.svg", "snapshot_t10.svg", "snapshot_t25.svg"):
            assert (out / name).exists(), name
        assert not list(out.glob("*.tmp"))
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["convergence_rate"] == 1.0
        printed = capsys.readouterr().out
        assert "convergence rate" in printed

    def test_plan_stops_before_integration(self, tmp_path):
        path = _generate(tmp_path, agents=24, boundary=6, seed=3)
        out = tmp_path / "dry"
        assert main(["plan", str(path), "--out-dir", str(out)]) == 0
        assert (out / "plan.json").exists()
        assert not (out / "trace.csv").exists()

    def test_repeat_runs_bit_identical(self, tmp_path):
        # every output, the SVGs and set-points included
        path = _generate(tmp_path, agents=24, boundary=6, uncoop=1, seed=5)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["simulate", str(path), "--out-dir", str(out1), "--export-setpoints"]) == 0
        assert main(["simulate", str(path), "--out-dir", str(out2), "--export-setpoints"]) == 0
        names = sorted(p.name for p in out1.iterdir())
        assert len(names) == 10 and names == sorted(p.name for p in out2.iterdir())
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_2d_simulate_imports_no_scipy(self, tmp_path):
        path = _generate(tmp_path, agents=24, boundary=6, uncoop=1, seed=5)
        script = (
            "import sys\n"
            "from swarm_transport.cli import main\n"
            f"assert main(['simulate', {str(path)!r}, '--out-dir', {str(tmp_path / 'out')!r}]) == 0\n"
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
        )
        src = str(Path(swarm_transport.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"
        assert (tmp_path / "out" / "trace.csv").exists()

    def test_document_margin_changes_converged_count(self, tmp_path):
        # a ramp cut short at 4 s leaves some followers outside the zone,
        # and the margin decides how many of them still count
        path = _generate(tmp_path, agents=24, boundary=6, seed=3)
        doc = json.loads(path.read_text())
        doc["times"].update(tf=4.0, t_end=4.0)
        counts = []
        for margin in (doc["margin"], 0.0):
            doc["margin"] = margin
            path.write_text(json.dumps(doc))
            out = tmp_path / f"margin{margin}"
            assert main(["simulate", str(path), "--out-dir", str(out)]) == 0
            counts.append(json.loads((out / "metrics.json").read_text())["converged_count"])
        assert counts[1] < counts[0]

    def test_out_dir_env_var(self, tmp_path, monkeypatch):
        path = _generate(tmp_path, agents=24, boundary=6, seed=3)
        env_out = tmp_path / "envout"
        monkeypatch.setenv("SWARM_TRANSPORT_OUT", str(env_out))
        assert main(["plan", str(path)]) == 0
        assert (env_out / "plan.json").exists()


class TestPlanAndReport:
    def test_plan_writes_documents(self, tmp_path, capsys):
        path = _generate(tmp_path, agents=26, boundary=7, seed=4)
        out = tmp_path / "plan"
        assert main(["plan", str(path), "--out-dir", str(out)]) == 0
        doc = json.loads((out / "plan.json").read_text())
        assert doc["n_agents"] == 26
        assert len(doc["final_positions"]) == 26

    def test_report_summarizes_metrics(self, tmp_path, capsys):
        path = _generate(tmp_path, agents=24, boundary=6, seed=3)
        out = tmp_path / "run"
        assert main(["simulate", str(path), "--out-dir", str(out)]) == 0
        capsys.readouterr()
        assert main(["report", str(out / "metrics.json")]) == 0
        printed = capsys.readouterr().out
        assert "convergence rate" in printed
        assert "N=24" in printed

    def test_every_command_prints_one_summary(self, tmp_path, capsys):
        # a team with empty-capture fallbacks, which do not converge, and uncovered samples
        path = _generate(tmp_path, agents=40, boundary=10, uncoop=2, seed=11)
        out = tmp_path / "run"
        capsys.readouterr()
        assert main(["simulate", str(path), "--out-dir", str(out)]) == 0
        simulated = capsys.readouterr().out.splitlines()
        assert main(["report", str(out / "metrics.json")]) == 0
        reported = capsys.readouterr().out.splitlines()
        assert main(["plan", str(path), "--out-dir", str(tmp_path / "plan")]) == 0
        planned = capsys.readouterr().out.splitlines()
        assert main(["build-graph", str(path), "--out-dir", str(tmp_path / "graph")]) == 0
        built = capsys.readouterr().out.splitlines()
        assert simulated[-1].startswith("runtime ") and simulated[:-1] == reported
        assert reported[0] == planned[0] == built[0] == "N=40 N_B=10 N_L=10 M=4 cooperative=27 uncooperative=2 core=11"
        coverage = ["fallback mentees (empty capture): [20, 21, 22]", "uncovered target samples: 30"]
        assert planned[1:] == coverage and built[1:] == []
        assert [line for line in reported if line in coverage] == coverage


@pytest.mark.parametrize(
    "edit, flags, error, named",
    [
        (lambda doc: doc["times"].update(dt=float("nan")), [], "ParseError", "dt"),
        (lambda doc: doc["times"].update(t_end=float("inf")), [], "ParseError", "t_end"),
        (lambda doc: doc["times"].update(t_end=10**400), [], "ParseError", "t_end"),
        (lambda doc: doc.update(margin=float("nan")), [], "ParseError", "margin"),
        (lambda doc: doc.update(margin=1e308), [], "BadConfig", "margin"),
        (lambda doc: doc.update(margin=1e200), [], "BadConfig", "margin"),
        # without a zone the samples' hull is scored, and inflated as far
        (lambda doc: (doc["targets"].pop("zone"), doc.update(margin=1e200)), [], "BadConfig", "margin"),
        (lambda doc: doc.update(gains={"k1": 1, "k2": 1, "k3": 1, "k4": 1}), [], "BadConfig", "Hurwitz"),
        (
            lambda doc: doc.update(gains={"k1": 1200, "k2": 5.4e5, "k3": 1.08e8, "k4": 8.1e9}),
            [],
            "BadConfig",
            "RK4",
        ),
        (None, ["--snapshot-times", "abc"], "BadConfig", "snapshot-times"),
        (None, ["--snapshot-times", "0,nan,25"], "BadConfig", "'nan'"),
        (None, ["--snapshot-times", "10,1e400"], "BadConfig", "'1e400'"),
    ],
    ids=[
        "dt-nan", "t_end-inf", "t_end-huge-int", "margin-nan",
        "margin-1e308", "margin-1e200", "zoneless-margin-1e200", "gains-not-hurwitz",
        "gains-rk4-unstable", "snapshot-times-text", "snapshot-times-nan",
        "snapshot-times-overflow",
    ],
)
def test_non_finite_inputs_rejected(tmp_path, capsys, edit, flags, error, named):
    path = _generate(tmp_path, agents=24, boundary=6, seed=3)
    if edit is not None:
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))  # writes NaN, Infinity and huge literals as given
    capsys.readouterr()
    code = main(["simulate", str(path), "--out-dir", str(tmp_path / "out"), *flags])
    assert code == 1
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == error
    assert named in record["message"]
    assert not (tmp_path / "out").exists()  # refused before any output is written


def test_huge_finite_margin_still_scores(tmp_path, capsys):
    # the inflated zone's squared edges stay finite, so scoring runs without overflow
    path = _generate(tmp_path, agents=40, boundary=10, uncoop=2, seed=1)
    doc = json.loads(path.read_text())
    doc["margin"] = 1e100
    path.write_text(json.dumps(doc))
    assert main(["simulate", str(path), "--out-dir", str(tmp_path / "out")]) == 0
    assert "convergence rate 1.0000 (27/27)" in capsys.readouterr().out


def _edited_simulate(tmp_path, capsys, edit, scenario=None):
    """Exit code and stderr of ``simulate`` on a scenario document after
    ``edit(doc)``: sweep-small's seed 1 unless ``scenario`` is given."""
    if scenario is None:
        path = _generate(tmp_path, agents=40, boundary=10, uncoop=2, seed=1)
    else:
        path = tmp_path / "scenario.json"
        path.write_text(serialize_scenario(scenario))
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    code = main(["simulate", str(path), "--out-dir", str(tmp_path / "out")])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("times", [{"t_end": 1e9}, {"dt": 1e-9}], ids=["t_end-1e9", "dt-1e-9"])
def test_step_count_beyond_the_cap_is_refused(tmp_path, capsys, times):
    code, err = _edited_simulate(tmp_path, capsys, lambda doc: doc["times"].update(times))
    assert code == 1
    record = json.loads(err)
    assert record["error"] == "BadConfig"
    assert all(name in record["message"] for name in ("t0", "t_end", "dt", "steps"))
    assert not (tmp_path / "out").exists()


def _shifted(offset, **times):
    def edit(doc):
        doc["times"].update({k: doc["times"][k] + offset for k in ("t0", "tf", "t_end")}, **times)

    return edit


@pytest.mark.parametrize(
    "edit",
    [
        _shifted(1e15),
        _shifted(1e17),
        # a horizon wide enough to survive the shift: its times all round to
        # 1e20 or 1e20 + 16384
        _shifted(1e20, tf=1e20 + 16384, t_end=1e20 + 16384, dt=0.1, output_period=0.1),
    ],
    ids=["t0-1e15", "t0-1e17", "t0-1e20"],
)
def test_time_grid_the_floats_cannot_resolve_is_refused(tmp_path, capsys, edit):
    code, err = _edited_simulate(tmp_path, capsys, edit)
    assert code == 1
    record = json.loads(err)
    assert record["error"] == "BadConfig" and record["message"].startswith("times t0 ")
    assert not (tmp_path / "out").exists()


def test_time_grid_far_from_zero_still_runs(tmp_path, capsys):
    code, err = _edited_simulate(tmp_path, capsys, _shifted(1e6))
    assert code == 0, err
    trace = (tmp_path / "out" / "trace.csv").read_text().splitlines()
    assert trace[1].startswith("1000000,") and trace[-1].startswith("1000025,")


@pytest.mark.parametrize(
    "scenario, zone",
    [
        (None, [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]),
        (cube_scenario, [[x, y, 1.0] for x in (1.0, 3.0) for y in (1.0, 3.0)]),
    ],
    ids=["2d-collinear", "3d-coplanar"],
)
def test_zone_without_area_or_volume_is_refused(tmp_path, capsys, scenario, zone):
    edit = lambda doc: doc["targets"].update(zone=zone)  # noqa: E731
    code, err = _edited_simulate(tmp_path, capsys, edit, scenario and scenario())
    assert code == 1
    record = json.loads(err)
    assert record["error"] == "BadConfig"
    assert "targets.zone" in record["message"]
    assert not (tmp_path / "out").exists()


def test_zone_repeating_a_corner_ends_in_one_error_record(tmp_path, capsys):
    # its grid is filtered before the zone is checked, and the repeated
    # corner's zero-length edge must add no facet and raise no warning
    def edit(doc):
        zone = doc["targets"]["zone"]
        doc["targets"] = {"zone": zone[:3] + zone[2:], "sample_spacing": 0.3}

    code, err = _edited_simulate(tmp_path, capsys, edit)
    assert code == 1
    assert err.count("\n") == 1
    assert json.loads(err) == {"error": "BadConfig", "message": "targets.zone must list the corners of a convex polygon in order"}
    assert not (tmp_path / "out").exists()


def test_zoneless_simulate_takes_the_sample_hull_once(tmp_path, capsys, monkeypatch):
    # scoring, anchor placement and the snapshots all read the one outline
    path = _generate(tmp_path, agents=40, boundary=10, uncoop=2, seed=1)
    doc = json.loads(path.read_text())
    del doc["targets"]["zone"]
    path.write_text(json.dumps(doc))
    samples = np.array(doc["targets"]["samples"])
    hull, calls = geometry.convex_hull, []
    monkeypatch.setattr(geometry, "convex_hull", lambda pts: calls.append(np.array_equal(pts, samples)) or hull(pts))
    assert main(["simulate", str(path), "--out-dir", str(tmp_path / "out")]) == 0
    assert calls.count(True) == 1


def test_empty_sample_list_runs_with_every_mentee_on_its_fallback(tmp_path, capsys):
    # no layer has a candidate pair, so no simplex is inverted
    code, err = _edited_simulate(tmp_path, capsys, lambda doc: doc["targets"].update(samples=[]))
    assert code == 0, err
    metrics = json.loads((tmp_path / "out" / "metrics.json").read_text())
    assert len(metrics["fallback_agents"]) == metrics["n_agents"] - metrics["n_boundary"] - 3


def test_collapsed_final_simplex_without_samples_is_a_plan_error(tmp_path, capsys):
    # every anchor at the origin flattens the fan's final simplices; with no
    # samples to capture, compute_desired still checks them before any weight
    path = _generate(tmp_path, agents=40, boundary=10, uncoop=2, seed=1)
    doc = json.loads(path.read_text())
    doc["targets"]["samples"] = []
    doc["leader_final"] = {"mode": "explicit", "positions": [{"id": b, "x": 0.0, "y": 0.0} for b in range(1, 11)]}
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["plan", str(path), "--out-dir", str(tmp_path / "out")]) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "DegenerateMentorSimplex",
        "message": "agent 14: mentors (4, 5, 11) have affinely dependent final positions",
    }


@pytest.mark.parametrize("command", ["plan", "simulate"])
def test_mentee_off_its_sliver_mentor_simplex_is_a_plan_error(tmp_path, capsys, command):
    # the core and agent 6 sit 1e-7 inside the bottom edge of a square turned
    # by 5 degrees; agent 6's mentor triangle (1, 2, 5) is a sliver whose
    # inverse puts it -1.863e-09 outside, past the weights' tolerance
    turn = np.deg2rad(5.0)
    rotation = np.array([[np.cos(turn), -np.sin(turn)], [np.sin(turn), np.cos(turn)]])
    square = [(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)]
    pos = np.array(square + [(0.0, -1.0 + 1e-7), (0.3, -1.0 + 1e-7 / 3)]) @ rotation.T
    form = Formation.build(range(1, 7), pos, core_id=5)
    samples = [pos[0] + f * (pos[1] - pos[0]) for f in (0.6, 0.75, 0.9)]
    anchors = {k + 1: pos[k] for k in range(4)}
    path = tmp_path / "sliver.json"
    path.write_text(serialize_scenario(manual_scenario(form, samples, zone=pos[:4], leader_positions=anchors)))
    capsys.readouterr()
    assert main([command, str(path), "--out-dir", str(tmp_path / "out")]) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "DegenerateMentorSimplex",
        "message": "agent 6: barycentric weight -1.863e-09 below tolerance; "
        "the point lies outside the simplex of its mentors (1, 2, 5)",
    }


@pytest.mark.parametrize("command", ["simulate", "plan", "build-graph"])
@pytest.mark.parametrize(
    "listed, message",
    [
        (range(1, 6), "explicit leader positions missing agents [6]"),
        (range(1, 8), "explicit leader positions name non-boundary agents [7]"),
    ],
    ids=["missing", "non-boundary"],
)
def test_explicit_anchors_off_the_boundary_are_a_parse_error(tmp_path, capsys, command, listed, message):
    # the hull agents are ids 1-6; every command refuses the file at load
    path = _generate(tmp_path, agents=24, boundary=6, seed=3)
    doc = json.loads(path.read_text())
    doc["leader_final"] = {"mode": "explicit", "positions": [{"id": b, "x": 0.0, "y": 0.0} for b in listed]}
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main([command, str(path), "--out-dir", str(tmp_path / "out")]) == 1
    assert json.loads(capsys.readouterr().err) == {"error": "ParseError", "message": f"{path}: {message}"}
    assert not (tmp_path / "out").exists()


def _bad_input_files(tmp_path):
    """A missing path, a directory, and files that are not JSON or not UTF-8."""
    (tmp_path / "folder").mkdir()
    (tmp_path / "text.json").write_text("not json at all\n")
    (tmp_path / "binary.json").write_bytes(b"\xff\xfe\x00{")
    return [tmp_path / "missing.json", tmp_path / "folder", tmp_path / "text.json", tmp_path / "binary.json"]


@pytest.mark.parametrize("command", ["simulate", "plan", "build-graph"])
def test_unreadable_scenario_file_is_a_parse_error(tmp_path, capsys, command):
    for path in _bad_input_files(tmp_path):
        capsys.readouterr()
        assert main([command, str(path), "--out-dir", str(tmp_path / "out")]) == 1, path
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ParseError"
        assert str(path) in record["message"]
    assert not (tmp_path / "out").exists()


def test_unreadable_metrics_file_is_a_parse_error(tmp_path, capsys):
    scenario = _generate(tmp_path, agents=12, boundary=4, seed=1)  # JSON, but not metrics
    short_row = tmp_path / "short_row.json"  # a terminal_errors row without its error
    short_row.write_text(json.dumps({
        "n_agents": 3, "n_boundary": 3, "n_initial_simplices": 1, "n_cooperative": 0, "n_uncooperative": 0,
        "n_layers": 1, "core_id": 1,
        "convergence_rate": 1.0, "converged_count": 0, "evaluated_count": 0, "unconverged_ids": [],
        "fallback_agents": [], "uncovered_sample_count": 0, "terminal_errors": [[1]],
    }))
    for path in _bad_input_files(tmp_path) + [scenario, short_row]:
        capsys.readouterr()
        assert main(["report", str(path)]) == 1, path
        captured = capsys.readouterr()
        record = json.loads(captured.err)
        assert record["error"] == "ParseError"
        assert str(path) in record["message"]
        assert captured.out == ""


@pytest.mark.parametrize(
    "argv, named",
    [
        (["simulate", "{scenario}", "--out-dir", "{file}"], "{file}"),
        (["plan", "{scenario}", "--out-dir", "{file}/out"], "{file}/out"),
        (["build-graph", "{scenario}", "--out-dir", "{file}"], "{file}"),
        (["generate", "--out", "{folder}", "--agents", "12", "--boundary", "4"], "{folder}"),
        (["generate", "--out", "{file}/x.json", "--agents", "12", "--boundary", "4"], "{file}"),
    ],
    ids=[
        "simulate-out-dir-is-a-file", "plan-out-dir-under-a-file", "build-graph-out-dir-is-a-file",
        "generate-out-is-a-directory", "generate-out-under-a-file",
    ],
)
def test_unwritable_output_path_is_an_output_error(tmp_path, capsys, monkeypatch, argv, named):
    # a file where a directory must be, or a directory where a file must be
    paths = {"scenario": _generate(tmp_path, agents=12, boundary=4, seed=1),
             "file": tmp_path / "a_file", "folder": tmp_path / "a_dir"}
    paths["file"].write_text("kept\n")
    paths["folder"].mkdir()
    calls = []  # the output directory is probed before any planning
    for owner, name in ((engine, "run"), (engine, "make_plan"), (cli, "build_actual")):
        monkeypatch.setattr(owner, name, lambda *a, name=name: calls.append(name))
    capsys.readouterr()
    assert main([arg.format(**paths) for arg in argv]) == 1
    assert calls == []
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "OutputError"
    assert named.format(**paths) in record["message"]
    assert paths["file"].read_text() == "kept\n"
    assert list(paths["folder"].iterdir()) == []
    assert not list(tmp_path.rglob("*.tmp"))


def test_each_module_imports_on_its_own():
    # the package root imports nothing, so an import cycle shows only when a module comes first
    src = Path(swarm_transport.__file__).resolve().parent
    names = sorted(p.stem for p in src.glob("*.py") if p.stem not in ("__init__", "__main__"))
    script = (
        "import importlib, sys\n"
        f"for name in {names!r}:\n"
        "    for key in [k for k in sys.modules if k == 'swarm_transport' or k.startswith('swarm_transport.')]:\n"
        "        del sys.modules[key]\n"
        "    importlib.import_module('swarm_transport.' + name)\n"
        "    print(name)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src.parent), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == names
    assert len(names) == 12


def test_degenerate_3d_team_error_is_the_same_in_every_process(tmp_path):
    # agent 1 pushed far out along x flattens the hull; Qhull's own
    # diagnostic names a per-process run id, so it is not passed on
    doc = json.loads(serialize_scenario(cube_scenario()))
    doc["agents"][0]["x"] = 1e17
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    src = str(Path(swarm_transport.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    argv = [sys.executable, "-m", "swarm_transport", "simulate", str(path), "--out-dir", str(tmp_path / "out")]
    records = [subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120) for _ in range(2)]
    assert [proc.returncode for proc in records] == [1, 1]
    assert records[0].stderr == records[1].stderr
    record = json.loads(records[0].stderr)
    assert record["error"] == "DegenerateInput"
    assert "run-id" not in record["message"] and "QH" not in record["message"]


def test_snapshot_drawn_once_per_output_frame(tmp_path, monkeypatch):
    # 10 and 10.04 both pick the 10 s frame of the 0.1 s output grid
    from swarm_transport import svgplot

    drawn = []
    snapshot_svg = svgplot.snapshot_svg
    monkeypatch.setattr(svgplot, "snapshot_svg", lambda run, k: drawn.append(float(run.times[k])) or snapshot_svg(run, k))
    path = _generate(tmp_path, agents=12, boundary=4, seed=1)
    out = tmp_path / "run"
    assert main(["simulate", str(path), "--out-dir", str(out), "--snapshot-times", "10,25,10.04"]) == 0
    assert drawn == [10.0, 25.0]
    assert sorted(p.name for p in out.glob("snapshot_*.svg")) == ["snapshot_t10.svg", "snapshot_t25.svg"]


def test_snapshot_names_tell_frames_apart_far_from_time_zero(tmp_path):
    # a run from t0 = 1e6 s: 6 significant digits would name all three
    # frames snapshot_t1.00001e+06.svg, one drawn over another
    path = _generate(tmp_path, agents=12, boundary=4, seed=1)
    doc = json.loads(path.read_text())
    for key in ("t0", "tf", "t_end"):
        doc["times"][key] += 1e6
    path.write_text(json.dumps(doc))
    out = tmp_path / "run"
    assert main(["simulate", str(path), "--out-dir", str(out), "--snapshot-times", "1000010.1,1000010.2,1000010.3"]) == 0
    names = sorted(p.name for p in out.glob("snapshot_*.svg"))
    assert names == ["snapshot_t1000010.1.svg", "snapshot_t1000010.2.svg", "snapshot_t1000010.3.svg"]
    assert len({(out / name).read_text() for name in names}) == 3
