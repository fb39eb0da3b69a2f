"""Scenario-matrix quickstart: define, register, sweep, and golden-test.

Walks through the full life of a custom scenario:

1. declare an operating condition as a :class:`~repro.scenarios.ScenarioSpec`
   (here: a non-dedicated cluster hit by transient stragglers *and* a pod
   eviction mid-epoch);
2. check it round-trips losslessly through JSON (what the property tests
   guarantee for every spec);
3. register it and sweep a tagged subset of the registry plus the new
   scenario through :class:`~repro.orchestrator.SweepRunner`;
4. fingerprint the run twice to show the golden-trace determinism guarantee
   that ``tests/golden`` pins for every registered scenario.

To pin a scenario of your own, register it inside
``src/repro/scenarios/registry.py`` and run ``make golden-update`` once to
write its trace and its ``costs.json`` row; from then on any behavioural
drift fails ``pytest -m golden``.

Run with::

    python examples/scenario_matrix.py
"""

from repro.orchestrator import SweepRunner, simulate_spec
from repro.scenarios import (
    FailureEvent,
    FailureTraceSpec,
    ScenarioSpec,
    TopologySpec,
    all_scenarios,
    register_scenario,
)
from repro.experiments import worker_scenario


def main() -> None:
    # 1. Declare: every knob is data, so the spec can be diffed and pinned.
    custom = ScenarioSpec(
        name="demo-evicted-transients",
        method="antdt-nd",
        seed=42,
        topology=TopologySpec(dedicated=False),
        stragglers=worker_scenario(0.5, include_persistent=False),
        failures=FailureTraceSpec(events=(
            FailureEvent(time_s=40.0, node="worker-1", code="job_eviction"),
        )),
        description="Transient stragglers plus one mid-epoch eviction.",
        tags=("demo", "failures"),
    )

    # 2. Serialize: ScenarioSpec -> JSON -> ScenarioSpec is lossless.
    assert ScenarioSpec.from_json(custom.to_json()) == custom
    print("Spec round-trips losslessly through JSON:")
    print(custom.to_json())

    # 3. Register and sweep it next to the built-in failure scenarios.  The
    #    sweep runs through the orchestrator (see examples/sweep_cli.py), so
    #    REPRO_JOBS=4 parallelizes it and repeat runs hit the
    #    content-addressed result cache; exclude_tags trims the grid.
    register_scenario(custom)
    specs = all_scenarios(tags=("failures",), exclude_tags=("slow",))
    print(f"\nSweeping {len(specs)} failure scenarios through the orchestrator:\n")
    report = SweepRunner().run(specs).raise_on_error()
    print(report.summary_table())
    print(report.stats_line())

    # 4. Fingerprint twice: deterministic runs make golden traces possible.
    first = simulate_spec(custom).golden_trace()
    second = simulate_spec(custom).golden_trace()
    assert first == second
    print("\nTwo runs produced byte-identical golden traces "
          f"({len(first.splitlines())} lines); safe to pin under tests/golden/traces/.")


if __name__ == "__main__":
    main()
