"""Non-dedicated CPU cluster: the registered straggler matrix, method by method.

Reproduces the core of the paper's evaluation (Figs. 10 and 11) through the
declarative scenario registry: every BSP-family and ASP-family method runs
under the registered worker-straggler and server-straggler conditions, and
the resulting JCTs are printed side by side.

Run with::

    python examples/nondedicated_cpu_cluster.py
"""

from dataclasses import replace

from repro.baselines import asp_methods, bsp_methods
from repro.experiments import format_table
from repro.orchestrator import simulate_spec
from repro.scenarios import get_scenario

#: Registered operating conditions the methods are compared under.
CONDITIONS = {
    "worker stragglers": "nd-persistent-worker",
    "server straggler": "nd-server-straggler",
}


def main() -> None:
    for family_name, methods in (("BSP family", bsp_methods()), ("ASP family", asp_methods())):
        rows = []
        for method in methods:
            jcts = {}
            for label, scenario_name in CONDITIONS.items():
                base = get_scenario(scenario_name)
                spec = replace(base, name=f"{base.name}@{method.name}", method=method.name)
                jcts[label] = simulate_spec(spec).run.jct
            rows.append([
                method.name,
                f"{jcts['worker stragglers']:.1f}",
                f"{jcts['server straggler']:.1f}",
                method.description,
            ])
        print(f"\n=== {family_name} (JCT in seconds) ===")
        print(format_table(["method", "worker stragglers", "server straggler", "description"],
                           rows))


if __name__ == "__main__":
    main()
