"""Quickstart: run one AntDT-ND training job against native BSP.

Builds the paper's worker-straggler operating condition as a *declarative
scenario* (transient stragglers on ~30% of the workers plus one severe
persistent straggler on a non-dedicated cluster), runs it once under native
BSP and once under AntDT-ND, and prints the comparison plus each run's
golden-trace fingerprint summary.

Run with::

    python examples/quickstart.py
"""

from dataclasses import replace

from repro.experiments import format_table, percent_faster
from repro.orchestrator import simulate_spec
from repro.scenarios import get_scenario


def main() -> None:
    antdt_spec = get_scenario("nd-persistent-worker")
    bsp_spec = replace(antdt_spec, name="nd-persistent-worker-bsp", method="bsp")
    scale = antdt_spec.resolve_scale()
    print(f"Scenario: {antdt_spec.name} — {antdt_spec.description}")
    print(f"Cluster:  {scale.num_workers} workers, {scale.num_servers} servers, "
          f"global batch {scale.global_batch_size}\n")

    bsp = simulate_spec(bsp_spec)
    antdt = simulate_spec(antdt_spec)

    rows = [
        ["native BSP", f"{bsp.run.jct:.1f}", bsp.run.samples_confirmed,
         sum(bsp.run.restarts_per_node.values())],
        ["AntDT-ND", f"{antdt.run.jct:.1f}", antdt.run.samples_confirmed,
         sum(antdt.run.restarts_per_node.values())],
    ]
    print(format_table(["method", "JCT (s)", "samples trained", "kill/restarts"], rows))
    faster = percent_faster(bsp.run.jct, antdt.run.jct)
    print(f"\nAntDT-ND finishes {faster:.1f}% faster than native BSP "
          f"on the same data.")
    print("Actions taken by the AntDT Controller:")
    for action in antdt.run.action_log:
        print(f"  - {action.describe()}")
    print("\nGolden-trace fingerprint (what tests/golden pins):")
    fp = antdt.fingerprint
    print(f"  jct_s={fp['jct_s']}  throughput={fp['throughput_samples_per_s']:.1f} "
          f"samples/s  actions={fp['actions']}  restarts={fp['restarts']}")


if __name__ == "__main__":
    main()
