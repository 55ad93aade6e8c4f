"""The frame-at-a-time table writers against a per-cell oracle."""

import dataclasses
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import cube_scenario, quick_scenario, written
from swarm_transport import reporting
from swarm_transport.engine import Run, run, setpoint_series
from swarm_transport.reporting import setpoints_table, trace_table


def fmt(value):
    return f"{value:.9g}"


def trace_table_oracle(res):
    """The per-cell writer the frame form replaced."""
    ids, graph = res.plan.scenario.formation.ids, res.plan.graph
    n = res.positions.shape[2]
    coords = ["x", "y", "z"][:n]
    header = ["time", "agent_id", "role", "layer"] + coords + [c + "d" for c in coords] + ["converged"]
    lines = [",".join(header)]
    scored = res.scored
    positions, desired = res.positions.tolist(), res.desired.tolist()
    for ti, t in enumerate(res.times):
        for k, a in enumerate(ids):
            row = [fmt(float(t)), str(a), graph.roles[k], str(graph.layer[k])]
            row += [fmt(v) for v in positions[ti][k]]
            row += [fmt(v) for v in desired[ti][k]]
            row.append(str(int(res.converged[k])) if scored[k] else "-")
            lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def setpoints_table_oracle(ids, times, setpoints):
    n = setpoints.shape[2]
    coords = ["sx", "sy", "sz"][:n]
    lines = [",".join(["time", "agent_id"] + coords)]
    for ti, t in enumerate(times):
        for k, a in enumerate(ids):
            lines.append(",".join([fmt(float(t)), str(a)] + [fmt(v) for v in setpoints[ti, k]]))
    return "\n".join(lines) + "\n"


def assert_same_text(got, want):
    """Byte equality; a mismatch names the first differing line instead of
    diffing megabytes of text."""
    if got != want:
        pairs = zip(got.split("\n"), want.split("\n"))
        k, (a, b) = next((k, ab) for k, ab in enumerate(pairs) if ab[0] != ab[1])
        pytest.fail(f"line {k}: {a!r} != {b!r}")


def assert_tables_match(res, series):
    text = written(trace_table, res)
    assert_same_text(text, trace_table_oracle(res))
    assert text.endswith("\n") and not text.endswith("\n\n")
    assert text.count("\n") == 1 + res.positions.shape[0] * res.positions.shape[1]
    ids = res.plan.scenario.formation.ids
    sp = written(setpoints_table, ids, res.times, series)
    assert_same_text(sp, setpoints_table_oracle(ids, res.times, series))
    assert sp.endswith("\n") and not sp.endswith("\n\n")


def weights_table_oracle(plan):
    """The per-value writer of ``weights.txt`` that one ``_g9`` call replaced."""
    graph, sched, ids = plan.graph, plan.schedule, plan.scenario.formation.ids
    lines = ["# id\tmentors\tinitial_weights\tfinal_weights"]
    for k in np.argsort(graph.mentees):
        mentors = ",".join(str(ids[m]) for m in graph.mentors[k])
        w0, w1 = (",".join(fmt(v) for v in w[k]) for w in (sched.omega, sched.varpi))
        lines.append(f"{ids[graph.mentees[k]]}\t{mentors}\t{w0}\t{w1}")
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def clamped_run():
    # seed 1 at N=40 with two clamped agents leaves agent 34 unconverged
    res = run(quick_scenario(seed=1, n=40, nb=10, uncoop=2))
    return res, setpoint_series(res.plan, res.times)


def test_2d_trace_with_clamped_agent(clamped_run):
    res, series = clamped_run
    verdicts = {row.split(",")[-1] for row in written(trace_table, res).splitlines()[1:]}
    assert verdicts == {"-", "0", "1"}
    assert "uncooperative" in res.plan.graph.roles
    assert_tables_match(res, series)


def test_headers(clamped_run):
    res, series = clamped_run
    assert written(trace_table, res).startswith("time,agent_id,role,layer,x,y,xd,yd,converged\n0,1,")
    assert written(setpoints_table, res.plan.scenario.formation.ids, res.times, series).startswith("time,agent_id,sx,sy\n0,1,")


def test_weights_table(clamped_run):
    plan = clamped_run[0].plan
    assert reporting.weights_table(plan) == weights_table_oracle(plan)
    # exponent-form, signed-zero and tie cells take the fallback; no mentee gives the header alone
    rng = np.random.default_rng(5)
    w = rng.uniform(-1.0, 1.0, (6, 2, 3)) * 10.0 ** rng.integers(-7, 3, (6, 2, 3))
    w[0, 0] = [-0.0, 1e-5, 0.5 + 2**-40]
    for m in (6, 0):
        graph = SimpleNamespace(mentees=np.arange(m)[::-1], mentors=np.arange(3 * m).reshape(m, 3) % 9)
        odd = SimpleNamespace(
            graph=graph,
            schedule=SimpleNamespace(omega=w[:m, 0], varpi=w[:m, 1]),
            scenario=SimpleNamespace(formation=SimpleNamespace(ids=tuple(range(10, 19)))),
        )
        assert reporting.weights_table(odd) == weights_table_oracle(odd)


def test_3d_cube_run():
    res = run(cube_scenario())
    series = setpoint_series(res.plan, res.times)
    assert written(trace_table, res).startswith("time,agent_id,role,layer,x,y,z,xd,yd,zd,converged\n")
    assert written(setpoints_table, res.plan.scenario.formation.ids, res.times, series).startswith("time,agent_id,sx,sy,sz\n")
    assert_tables_match(res, series)


def test_synthetic_values():
    special = [-0.0, 0.0, 1e-5, 1e16, 123456789.5, 3.0, -42.0, 1e-300, 5e-324, 0.1, 2.0 / 3.0, 1e22]
    values = np.array(special + [np.nan, np.inf, -np.inf, np.finfo(float).max])
    positions = np.resize(values, (3, 4, 2))
    desired = -np.resize(values[::-1], (3, 4, 2))
    res = Run(
        plan=stand_in_plan((3, 7, 11, 20), ["boundary", "cooperative", "uncooperative", "cooperative"], [0, 1, 0, 2]),
        times=np.array([0.0, 0.1, 123456789.5]),
        log=np.concatenate((positions, desired), axis=2),
        converged=np.array([False, True, False, False]),
        terminal_error=np.zeros(4),
    )
    assert_tables_match(res, positions)
    rows = written(trace_table, res).splitlines()
    assert rows[1] == "0,3,boundary,0,-0,0,-1.79769313e+308,inf,-"
    assert rows[2] == "0,7,cooperative,1,1e-05,1e+16,-inf,nan,1"
    assert rows[3] == "0,11,uncooperative,0,123456790,3,-1e+22,-0.666666667,-"
    assert rows[-1] == "123456790,20,cooperative,2,-42,1e-300,-0.1,-4.94065646e-324,0"

    # cells that only look constant, and frames that repeat
    rng = np.random.default_rng(5)
    a, b = rng.normal(size=(4, 2)), rng.normal(size=(4, 2))
    cases = {
        "mixed": np.resize(rng.normal(size=(4, 2)), (6, 4, 2)),
        "AABA": np.stack([a, a, b, a]),
        "T=1": a[None],
    }
    cases["mixed"][:, 0, 0] = [0.0, -0.0] * 3  # equal as floats, not as bits
    cases["mixed"][:, 1, 1] = np.nan  # constant NaN
    cases["mixed"][:, 2, :] = 7.25  # constant, then one frame differs
    cases["mixed"][3, 2, 1] = 7.5
    for pos in cases.values():
        times = np.arange(len(pos)) * 0.1
        synthetic = dataclasses.replace(res, times=times, log=np.concatenate((pos, pos[:, ::-1] * 3.0), axis=2))
        assert_tables_match(synthetic, pos)
    mixed = cases["mixed"]
    mixed_run = dataclasses.replace(res, times=np.arange(6) * 0.1, log=np.concatenate((mixed, mixed), axis=2))
    rows = written(trace_table, mixed_run)
    cells = [row.split(",") for row in rows.splitlines()[1:]]
    assert [r[4] for r in cells[0::4]] == ["0", "-0"] * 3
    assert {r[5] for r in cells[1::4]} == {"nan"}
    assert [r[5] for r in cells[2::4]] == ["7.25"] * 3 + ["7.5"] + ["7.25"] * 2


def test_leader_blend_run():
    # with the blend, anchors' reference positions move, so their cells vary
    sc = dataclasses.replace(quick_scenario(seed=1, n=40, nb=10, uncoop=2), leader_blend=True)
    res = run(sc)
    anchors = np.isin(res.plan.graph.roles, ["boundary", "core"])
    assert not np.array_equal(res.desired[0, anchors], res.desired[-1, anchors])
    assert_tables_match(res, setpoint_series(res.plan, res.times))


def test_no_output_times(clamped_run):
    res, series = clamped_run
    empty = dataclasses.replace(res, times=res.times[:0], log=res.log[:0])
    header = written(trace_table, res).split("\n")[0] + "\n"
    assert written(trace_table, empty) == trace_table_oracle(empty) == header
    ids = res.plan.scenario.formation.ids
    assert written(setpoints_table, ids, empty.times, series[:0]) == "time,agent_id,sx,sy\n"


def stand_in_plan(ids, roles, layer):
    """The plan fields that the table writers read: ids, roles and layers."""
    formation = SimpleNamespace(ids=tuple(ids))
    graph = SimpleNamespace(roles=np.array(roles, dtype=object), layer=np.asarray(layer))
    return SimpleNamespace(scenario=SimpleNamespace(formation=formation), graph=graph)


def synthetic_run(positions, desired, times, ids=None):
    """A run of any shape around given arrays; every other agent is scored."""
    n_agents = positions.shape[1]
    roles = np.resize(np.array(["cooperative", "boundary"], dtype=object), n_agents)
    return Run(
        plan=stand_in_plan(ids or range(1, n_agents + 1), roles, np.arange(n_agents) % 3),
        times=times,
        log=np.concatenate((positions, desired), axis=2),
        converged=np.arange(n_agents) % 4 == 0,
        terminal_error=np.zeros(n_agents),
    )


def test_frames_across_blocks():
    # 1,024 agents in 2-D: rows of 95 and 45 bytes give blocks of 2 trace
    # and 5 set-point frames, so 130 frames are 65 and 26 blocks
    rng = np.random.default_rng(11)
    pos = rng.normal(size=(130, 1024, 2)) * 10.0 ** rng.integers(-5, 6, size=(1, 1024, 1))
    # repeated frames, which the writer formats like any other frame
    pos[40] = pos[39]  # at the start of a block of both tables
    pos[36] = pos[35]  # and of the trace's blocks only
    pos[64] = pos[63]
    pos[70] = pos[69]  # and two in a row from a start of both
    pos[71] = pos[70]
    pos[:, 5, 0] = np.nan  # constant NaN cells
    pos[:, 6, 1] = [0.0, -0.0] * 65  # cells that differ only in the sign of zero
    pos[:, 7, 0] = -0.0  # a constant -0.0 cell
    pos[:, 8] = -np.abs(pos[:, 8])  # negative coordinates
    times = np.arange(130) * 0.1
    assert_tables_match(synthetic_run(pos, pos[:, ::-1] * -2.0, times), pos)


def test_repeated_blocks_keep_their_text(monkeypatch):
    # the layout above over 133 frames: 67 trace blocks of 2 frames and 27
    # set-point blocks of 5, the last ones short (1 and 3 frames). From frame
    # 40 on every frame repeats frame 40, as the set-points do after tf, but
    # for a -0.0 in frame 80 and one moved cell in frame 101
    rng = np.random.default_rng(12)
    pos = rng.normal(size=(133, 1024, 2)) * 10.0 ** rng.integers(-5, 6, size=(1, 1024, 1))
    pos[40:] = pos[40]
    pos[:, 5, 0] = np.nan  # constant NaN cells
    pos[40:, 6, 1] = 0.0
    pos[80, 6, 1] = -0.0  # a block that differs only in the sign of a zero
    pos[101, 3, 1] += 1.0  # and one that differs in a single cell
    formatted = []
    g9 = reporting._g9
    monkeypatch.setattr(reporting, "_g9", lambda x: formatted.append(len(x)) or g9(x))
    assert_tables_match(synthetic_run(pos, pos[:, ::-1] * -2.0, np.arange(133) * 0.1), pos)
    # the times, then each block that is not the one before it: the first 40
    # frames, the block of frame 40, those of frames 80 and 101 and the
    # blocks after these two
    assert formatted == [133] + [2 * 1024 * 4] * 25 + [133] + [5 * 1024 * 2] * 13


@pytest.mark.parametrize(
    "case", ["full-width-cells", "exponent-times", "wide-ids", "one-agent", "one-frame", "frame-per-block"]
)
def test_table_slot_widths(case):
    # each row is laid out in fixed-width slots: cells and times that fill
    # their 16 bytes, ids of 1 to 13 digits, the smallest tables, and frames
    # too wide for two to share a block
    rng = np.random.default_rng(13)
    pos = rng.normal(size=(7, 5, 2))
    times = np.arange(7) * 0.1
    if case == "full-width-cells":
        pos = np.resize([-1.23456789e-100, 1.23456789e-100, -9.87654321e200, -4.94065646e-324], (7, 5, 2))
    elif case == "exponent-times":
        times = np.array([-1.23456789e-100, 0.0, 1e-5, 2.5e-5, 1e16, 1.2345e20, 1e300])
    elif case == "one-agent":
        # 7,000 frames: blocks of 2,818 trace and 6,096 set-point frames, each
        # frame repeated ten times, so most blocks start with a repeat
        pos = np.repeat(rng.normal(size=(700, 1, 2)), 10, axis=0)
        times = np.arange(7000) * 0.1
    elif case == "one-frame":
        pos, times = pos[:1], times[:1]
    elif case == "frame-per-block":
        # 3,000 agents: trace and set-point frames of 282 and 132 KB, one to a block
        pos = rng.normal(size=(4, 3000, 2))
        pos[2] = pos[1]
        times = times[:4]
    ids = (1, 10, 10**6, 10**9, 10**12) if case == "wide-ids" else None
    res = synthetic_run(pos, pos[:, ::-1] * -3.0, times, ids=ids)
    assert_tables_match(res, pos)
    text = written(trace_table, res)
    if case == "full-width-cells":
        assert "\n0,1,cooperative,0,-1.23456789e-100,1.23456789e-100," in text
    if case == "exponent-times":
        assert "\n-1.23456789e-100,1,cooperative,0," in text and "\n1.2345e+20,5," in text
    if case == "wide-ids":
        assert "\n0.6,1000000000000,cooperative,1," in text

def test_table_memory_is_bounded_by_a_block(tmp_path):
    # 1,004 frames of 600 agents, about 40 MB of text: the peak of the
    # writer's allocations is a block's slots and the formatting of its
    # cells, 2.5 MB, not the file's (84 MB when the whole table was one
    # string, 4.8 MB with the text of a block of 131,072 cells joined, 0.8 MB
    # when the cells that never change went into a frame template once).
    # Ten agents move; the rest stand still. When the last 400 frames
    # repeat, as set-points do after tf, those blocks keep the text of the
    # block before; the writer compares the series with itself, so its peak
    # stays that of writing the first block alone (2.5 MB): no copy of the
    # previous block's 86 KB of cells is kept alongside.
    rng = np.random.default_rng(2)
    pos = np.repeat(rng.normal(size=(1, 600, 2)) * 100.0, 1004, axis=0)
    pos[:, :10] = rng.normal(size=(1004, 10, 2)) * 100.0
    res = synthetic_run(pos, pos + 1.0, np.arange(1004) * 0.1)
    repeating = pos.copy()
    repeating[604:] = pos[603]
    ids = res.plan.scenario.formation.ids
    writers = {
        "trace.csv": lambda path: trace_table(res, path),
        "setpoints.csv": lambda path: setpoints_table(ids, res.times, repeating, path),
        "first-block.csv": lambda path: setpoints_table(ids, res.times[:9], repeating[:9], path),
    }
    peaks = {}
    for name, write in writers.items():
        tracemalloc.start()
        try:
            write(tmp_path / name)
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert (tmp_path / "trace.csv").stat().st_size > 35e6
    assert max(peaks.values()) < 10e6
    assert peaks["setpoints.csv"] < peaks["first-block.csv"] + 43e3


def test_failed_write_leaves_no_temp_file_and_keeps_the_target(tmp_path):
    target = tmp_path / "trace.csv"
    target.write_bytes(b"previous run\n")

    def pieces():
        yield b"time,agent_id\n"
        raise RuntimeError("stopped mid-stream")

    with pytest.raises(RuntimeError, match="mid-stream"):
        reporting._atomic_write(target, pieces())
    assert target.read_bytes() == b"previous run\n"
    assert [f.name for f in tmp_path.iterdir()] == ["trace.csv"]
    bad = synthetic_run(np.zeros((3, 2, 2)), np.zeros((3, 2, 2)), np.arange(2) * 0.1)  # more frames than times
    with pytest.raises(ValueError):
        trace_table(bad, target)
    assert target.read_bytes() == b"previous run\n"
    assert [f.name for f in tmp_path.iterdir()] == ["trace.csv"]


def floats_from_bits(bits):
    return np.array(bits, dtype=np.uint64).view(np.float64)


def tens(e):
    return float(np.float64(10.0) ** e)


NEG_NAN = 0xFFF8000000000000
# every float64 bit pattern, subnormals among them
BIT_PATTERNS = st.one_of(st.integers(0, 2**64 - 1), st.integers(1, 2**52 - 1), st.integers(2**63 + 1, 2**63 + 2**52 - 1))
# a value of each decimal exponent from -6 to 10, either sign
BY_EXPONENT = st.builds(lambda e, m, sign: sign * m * tens(e), st.integers(-6, 10), st.floats(1.0, 10.0), st.sampled_from([1.0, -1.0]))
# powers of ten and the floats a few ulps either side
NEAR_TENS = st.builds(
    lambda e, k, sign: sign * floats_from_bits([int(np.float64(tens(e)).view(np.uint64)) + k])[0],
    st.integers(-6, 10), st.integers(-4, 4), st.sampled_from([1.0, -1.0]),
)
# (k + 1/2) * 10**(e - 8) for a 9-digit k: halfway between two 9-digit roundings
NEAR_TIES = st.builds(lambda k, e: (k + 0.5) * tens(e - 8), st.integers(10**8, 10**9 - 1), st.integers(-6, 10))
CARRIES = [9.9999999995, 999999999.5, 99999999.95, 9.99999999949999, 0.000099999999995, 0.00099999999995, 99999999.5]
SPECIALS = [0.0, -0.0, np.inf, -np.inf, np.nan, float(floats_from_bits([NEG_NAN])[0]), 5e-324, -5e-324, 1e-4, 1e9]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.one_of(BIT_PATTERNS.map(lambda b: float(floats_from_bits([b])[0])), BY_EXPONENT, NEAR_TENS, NEAR_TIES), max_size=64)
)
@example(CARRIES + [-v for v in CARRIES])
@example(SPECIALS)
def test_g9_equals_cpython_percent_9g(values):
    x = np.array(values, dtype=float)
    assert reporting._g9(x).tolist() == [b"%.9g" % v for v in x.tolist()]


@pytest.mark.parametrize("radius", [0.01, 100.0])
def test_tables_of_teams_far_from_radius_ten(radius):
    # cells of decimal exponent -7 to -3 at radius 0.01, 1,437 of them in
    # exponent form, and -3 to 1 at radius 100
    res = run(quick_scenario(seed=1, n=40, nb=10, uncoop=2, radius=radius))
    assert_tables_match(res, setpoint_series(res.plan, res.times))


def test_fixed_notation_cells_never_fall_back(monkeypatch):
    sent = []

    def fallback(values):
        sent.extend(values)
        return [b"%.9g" % v for v in values]

    monkeypatch.setattr(reporting, "_g9_fallback", fallback)
    # every cell and time in fixed notation, exponents -4 to 8 and either sign
    rng = np.random.default_rng(3)
    pos = rng.uniform(1.0, 4.5, size=(40, 200, 2)) * 10.0 ** rng.integers(-4, 9, size=(1, 200, 2))
    pos[:, ::3] *= -1.0
    res = synthetic_run(pos, pos[:, ::-1] * 2.0, np.arange(1, 41) * 0.1)
    assert_tables_match(res, pos)
    assert sent == []
    reporting._g9(np.array([1e-5, 1.0, 0.0]))
    assert sent == [1e-5, 0.0]
