import json

import pytest

from swarm_transport.cli import main


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

    def test_dry_run_skips_integration(self, tmp_path):
        path = _generate(tmp_path, agents=24, boundary=6, seed=3)
        out = tmp_path / "dry"
        assert main(["simulate", str(path), "--out-dir", str(out), "--dry-run"]) == 0
        assert (out / "plan.json").exists()
        assert not (out / "trace.csv").exists()

    def test_repeat_runs_bit_identical(self, tmp_path):
        path = _generate(tmp_path, agents=24, boundary=6, seed=5)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["simulate", str(path), "--out-dir", str(out1)]) == 0
        assert main(["simulate", str(path), "--out-dir", str(out2)]) == 0
        assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()
        assert (out1 / "metrics.json").read_bytes() == (out2 / "metrics.json").read_bytes()

    def test_margin_override_changes_outcome(self, tmp_path):
        path = _generate(tmp_path, agents=24, boundary=6, seed=3)
        out = tmp_path / "strict"
        assert main(["simulate", str(path), "--out-dir", str(out), "--margin", "0.0"]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert 0.0 <= metrics["convergence_rate"] <= 1.0

    def test_out_dir_env_var(self, tmp_path, monkeypatch):
        path = _generate(tmp_path, agents=24, boundary=6, seed=3)
        env_out = tmp_path / "envout"
        monkeypatch.setenv("SWARM_TRANSPORT_OUT", str(env_out))
        assert main(["simulate", str(path), "--dry-run"]) == 0
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


@pytest.mark.parametrize(
    "edit, flags, error, named",
    [
        (lambda doc: doc["times"].update(dt=float("nan")), [], "ParseError", "dt"),
        (lambda doc: doc["times"].update(t_end=float("inf")), [], "ParseError", "t_end"),
        (lambda doc: doc["times"].update(t_end=10**400), [], "ParseError", "t_end"),
        (lambda doc: doc.update(margin=float("nan")), [], "ParseError", "margin"),
        (None, ["--dt", "nan"], "BadConfig", "dt"),
        (None, ["--margin", "nan"], "BadConfig", "margin"),
        (None, ["--dt", "inf"], "BadConfig", "dt"),
    ],
    ids=["dt-nan", "t_end-inf", "t_end-huge-int", "margin-nan", "flag-dt-nan", "flag-margin-nan", "flag-dt-inf"],
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
    assert not (tmp_path / "out" / "trace.csv").exists()
