"""Ablation: gating KILL_RESTART on the cluster scheduler's pending time.

AntDT-ND only fires KILL_RESTART when the cluster is idle; in a congested
cluster the relaunch would cost more than the straggler itself.
"""

from dataclasses import replace

from conftest import BENCH_SCALE, run_once

from repro.experiments import worker_scenario
from repro.orchestrator import simulate_spec
from repro.scenarios import ScenarioSpec, TopologySpec


def _compare():
    spec = ScenarioSpec.for_scale(BENCH_SCALE, name="ablation-pending-gate-idle",
                                  method="antdt-nd", stragglers=worker_scenario(0.8), seed=1)
    idle = simulate_spec(spec).run
    busy = simulate_spec(replace(spec, name="ablation-pending-gate-busy",
                                 topology=TopologySpec(cluster_busy=True))).run
    return {
        "idle": {"jct_s": idle.jct,
                 "worker_restarts": sum(v for k, v in idle.restarts_per_node.items()
                                        if k.startswith("worker"))},
        "busy": {"jct_s": busy.jct,
                 "worker_restarts": sum(v for k, v in busy.restarts_per_node.items()
                                        if k.startswith("worker"))},
    }


def test_ablation_pending_time_gate(benchmark):
    result = run_once(benchmark, _compare)
    print("\nAblation — KILL_RESTART gating on cluster pending time:")
    for state, row in result.items():
        print(f"  cluster {state:<5} jct={row['jct_s']:8.1f}s  worker restarts={row['worker_restarts']}")
    assert result["idle"]["worker_restarts"] >= 1
    assert result["busy"]["worker_restarts"] == 0
