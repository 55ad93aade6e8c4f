"""Acceptance suite.

Each test covers one release criterion at its stated tolerance and prints a
single PASS/FAIL line (visible with ``pytest -s`` or on failure). Scenario
batches are seed-controlled, so every run exercises the same population.
"""

import time

import numpy as np

from conftest import final_positions
from swarm_transport import engine
from swarm_transport.dynamics import DEFAULT_GAINS, Gains, check_hurwitz, initial_state, step
from swarm_transport.formation import ancestor_ids, build_actual, cooperative_ids
from swarm_transport.geometry import barycentric
from swarm_transport.reporting import metrics_json, trace_table
from swarm_transport.scenario import GenerateParams, generate_scenario
from swarm_transport.setpoints import propagate_setpoints, setpoint_residual, solve_setpoints_dense
from swarm_transport.weights import beta, weights_at


def _verdict(name: str, ok: bool) -> bool:
    print(f"{'PASS' if ok else 'FAIL'}  {name}")
    return ok


def _coop_params(k: int) -> tuple[GenerateParams, int]:
    n = 30 + round(65 * k / 19)  # sweeps 30..95
    return GenerateParams(n_agents=n, n_boundary=max(6, n // 6)), 1000 + k


def _clamped_params(k: int) -> tuple[GenerateParams, int]:
    n = 40 + round(60 * k / 19)  # sweeps 40..100
    return (
        GenerateParams(
            n_agents=n,
            n_boundary=max(7, n // 6),
            n_uncooperative=max(1, round(0.05 * n)),
        ),
        2000 + k,
    )


def test_criterion_1_full_cooperation_converges():
    """20 seed-controlled cooperative scenarios all reach 100% convergence
    inside the 10%-inflated zone by t = 25 s, each under the runtime budget."""
    rates, runtimes = [], []
    for k in range(20):
        params, seed = _coop_params(k)
        sc = generate_scenario(params, seed)
        started = time.perf_counter()
        res = engine.run(sc)
        runtimes.append(time.perf_counter() - started)
        rates.append(res.trace.rate)

    # structural constants on a 95-agent look-alike with 16 hull agents
    look = generate_scenario(GenerateParams(n_agents=95, n_boundary=16), seed=1)
    graph = build_actual(look.formation)
    structural = (
        len(look.formation.boundary_ids) == 16
        and graph.n_initial_simplices == 16
        and len(cooperative_ids(look.formation, graph)) == 78
    )

    ok = all(r == 1.0 for r in rates) and max(runtimes) < 30.0 and structural
    assert _verdict(
        "criterion 1: full-cooperation convergence "
        f"(rates all 1.0: {all(r == 1.0 for r in rates)}, "
        f"max runtime {max(runtimes):.2f} s, look-alike constants {structural})",
        ok,
    )


def test_criterion_2_resilience_to_clamped_agents():
    """20 scenarios with 5% clamped agents: population mean rate >= 85% and
    every follower with a clean mentor ancestry converges."""
    rates = []
    clean_all = True
    for k in range(20):
        params, seed = _clamped_params(k)
        sc = generate_scenario(params, seed)
        res = engine.run(sc)
        rates.append(res.trace.rate)
        graph = res.plan.graph
        for a, converged in res.trace.converged.items():
            clean = not (ancestor_ids(graph, a) & sc.formation.uncooperative_ids)
            if clean and not converged:
                clean_all = False
    mean_rate = float(np.mean(rates))
    ok = mean_rate >= 0.85 and clean_all
    assert _verdict(
        f"criterion 2: clamped-agent resilience (mean rate {mean_rate:.4f}, "
        f"min {min(rates):.4f}, clean-ancestry all converge: {clean_all})",
        ok,
    )


def test_criterion_3_dense_solve_oracle_equivalence():
    """Forward propagation agrees with the partitioned dense solve to 1e-9,
    and the stacked linear relation has residual below 1e-9."""
    rng = np.random.default_rng(33)
    worst_gap, worst_residual = 0.0, 0.0
    for k in range(10):
        n = 24 + 4 * k
        sc = generate_scenario(
            GenerateParams(n_agents=n, n_boundary=max(6, n // 5), n_uncooperative=k % 3),
            seed=3000 + k,
        )
        plan = engine.make_plan(sc)
        anchors = final_positions(plan)
        times = rng.uniform(sc.t0 - 1.0, sc.tf + 5.0, 20)
        fast = propagate_setpoints(plan.graph, plan.schedule, anchors, times)
        for s, t in zip(fast, times):
            dense = solve_setpoints_dense(plan.schedule, anchors, float(t))
            worst_gap = max(worst_gap, float(np.max(np.abs(s - dense))))
            worst_residual = max(
                worst_residual, setpoint_residual(plan.schedule, anchors, s, float(t))
            )
    ok = worst_gap < 1e-9 and worst_residual < 1e-9
    assert _verdict(
        f"criterion 3: dense-solve equivalence (max gap {worst_gap:.2e}, "
        f"max residual {worst_residual:.2e})",
        ok,
    )


def test_criterion_4_boundary_condition_exactness():
    """At t0 with anchors placed at initial positions the set-points rebuild
    the initial formation; at t >= tf they rebuild the final positions."""
    worst_start, worst_end = 0.0, 0.0
    for seed in (4000, 4001, 4002):
        sc = generate_scenario(
            GenerateParams(n_agents=36, n_boundary=8, n_uncooperative=seed % 3), seed=seed
        )
        plan = engine.make_plan(sc)
        form = sc.formation
        start = propagate_setpoints(plan.graph, plan.schedule, form.positions, [sc.t0])
        worst_start = max(worst_start, float(np.max(np.abs(start - form.positions))))
        final = final_positions(plan)
        end = propagate_setpoints(plan.graph, plan.schedule, final, [sc.tf, sc.tf + 3.0])
        worst_end = max(worst_end, float(np.max(np.abs(end - final))))
    ok = worst_start < 1e-9 and worst_end < 1e-9
    assert _verdict(
        f"criterion 4: boundary-condition exactness (start {worst_start:.2e}, "
        f"final {worst_end:.2e})",
        ok,
    )


def test_criterion_5_weight_law_properties():
    """1000 random (agent, t) samples: unit row sums to 1e-12, nonnegative
    weights, and the quintic ramp hits its exact dyadic value at tau = 1/4."""
    sc = generate_scenario(
        GenerateParams(n_agents=48, n_boundary=10, n_uncooperative=2), seed=77
    )
    plan = engine.make_plan(sc)
    rng = np.random.default_rng(5)
    sums_ok = True
    nonneg_ok = True
    for _ in range(1000):
        t = float(rng.uniform(sc.t0 - 2.0, sc.tf + 4.0))
        k = int(rng.integers(len(plan.schedule.mentees)))
        w = weights_at(plan.schedule, t)[k]
        if abs(float(w.sum()) - 1.0) >= 1e-12:
            sums_ok = False
        if float(w.min()) < 0.0:
            nonneg_ok = False
    beta_exact = beta(0.25, 0.0, 1.0) == 0.103515625
    ok = sums_ok and nonneg_ok and beta_exact
    assert _verdict(
        f"criterion 5: weight-law properties (unit sums {sums_ok}, "
        f"nonnegative {nonneg_ok}, quintic exact {beta_exact})",
        ok,
    )


def test_criterion_6_stability_gate():
    """Gain gate plus closed-loop checks: micron-level settling inside 30 s
    and fourth-order integrator convergence under step halving."""
    gate = check_hurwitz(Gains(8.0, 24.0, 32.0, 16.0)) and not check_hurwitz(
        Gains(1.0, 1.0, 1.0, 1.0)
    )

    def integrate(dt, t_final):
        state = initial_state([0.0])
        for _ in range(int(round(t_final / dt))):
            state = step(state, np.array([1.0]), DEFAULT_GAINS, dt)
        return state

    settled = integrate(0.01, 30.0)
    settle_ok = abs(float(settled[0, 0]) - 1.0) < 1e-6

    exact = 1.0 - np.exp(-2.0) * (1.0 + 2.0 + 2.0 + 4.0 / 3.0)
    e1 = abs(float(integrate(0.02, 1.0)[0, 0]) - exact)
    e2 = abs(float(integrate(0.01, 1.0)[0, 0]) - exact)
    ratio = e1 / e2
    order_ok = 12.0 <= ratio <= 20.0

    ok = gate and settle_ok and order_ok
    assert _verdict(
        f"criterion 6: stability gate (gate {gate}, settle {settle_ok}, "
        f"dt-halving ratio {ratio:.1f})",
        ok,
    )


def test_criterion_7_graph_laws_over_population():
    """100 generated formations obey the structural laws: one mentee slot per
    follower, 3 edges per follower, no edges into clamped agents, mentees
    start inside their mentor simplex."""
    ok = True
    detail = ""
    for k in range(100):
        n = 18 + (k % 14) * 4
        n_uncoop = k % 4 if n - max(6, n // 5) > 4 else 0
        sc = generate_scenario(
            GenerateParams(n_agents=n, n_boundary=max(6, n // 5), n_uncooperative=n_uncoop),
            seed=5000 + k,
        )
        form = sc.formation
        graph = build_actual(form)
        coop = cooperative_ids(form, graph)
        mentees = [a for layer in graph.layers[1:] for a in layer]
        if sorted(mentees) != sorted(coop) or len(set(mentees)) != len(mentees):
            ok, detail = False, f"partition broken at seed {5000 + k}"
            break
        if len(graph.edges) != 3 * len(coop):
            ok, detail = False, f"edge count law broken at seed {5000 + k}"
            break
        if any(m in form.uncooperative_ids for _, m in graph.edges):
            ok, detail = False, f"edge into clamped agent at seed {5000 + k}"
            break
        for a in coop:
            verts = np.array([form.position(m) for m in graph.mentors[a]])
            if float(barycentric(form.position(a), verts).min()) < -1e-9:
                ok, detail = False, f"containment broken at seed {5000 + k}"
                break
        if not ok:
            break
    assert _verdict(f"criterion 7: graph laws over 100 formations {detail}".rstrip(), ok)


def test_criterion_8_bitwise_determinism():
    """The same scenario and seed produce byte-identical trace and metrics."""
    sc = generate_scenario(
        GenerateParams(n_agents=42, n_boundary=9, n_uncooperative=2), seed=4242
    )
    res1 = engine.run(sc)
    res2 = engine.run(sc)
    same_trace = trace_table(res1.trace) == trace_table(res2.trace)
    same_metrics = metrics_json(res1) == metrics_json(res2)
    ok = same_trace and same_metrics
    assert _verdict(
        f"criterion 8: determinism (trace {same_trace}, metrics {same_metrics})", ok
    )
