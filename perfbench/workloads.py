"""The benchmark's workloads: scenario sizes and the CLI command each runs."""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 1

# default snapshot times are t0, 10 s and t_end = 25 s
SIMULATE_FILES = (
    "graph.txt",
    "formation.svg",
    "plan.json",
    "weights.txt",
    "trace.csv",
    "metrics.json",
    "snapshot_t0.svg",
    "snapshot_t10.svg",
    "snapshot_t25.svg",
)


@dataclass(frozen=True)
class Workload:
    name: str
    n_agents: int
    n_boundary: int
    n_uncooperative: int
    n_scenarios: int  # scenario k of a run uses seed + k
    command: tuple[str, ...]  # CLI command and flags, before the scenario path

    def scenario_seeds(self, seed: int) -> list[int]:
        return [seed + k for k in range(self.n_scenarios)]

    def pin_key(self, scenario_seed: int) -> str:
        """Key of one generated scenario in ``pins.json``, shared across workloads."""
        return f"{self.n_agents}-{self.n_boundary}-{self.n_uncooperative}:{scenario_seed}"

    def expected_files(self) -> tuple[str, ...]:
        if "--export-setpoints" in self.command:
            return SIMULATE_FILES + ("setpoints.csv",)
        return SIMULATE_FILES


WORKLOADS = {
    w.name: w
    for w in (
        # the dense closed loop and the trace / set-point writers dominate
        Workload("transport-large", 600, 100, 2, 1, ("simulate", "--export-setpoints")),
        # per-call overhead at small N, over 16 scenarios
        Workload("sweep-small", 40, 10, 2, 16, ("simulate",)),
    )
}
