"""Perf smoke test: fast floor checks on engine throughput.

Tier-1-safe (runs in well under five seconds, no pytest-benchmark rounds):
it fails fast when a change regresses the simulation engine below a very
conservative events/second floor, or when the optimised engine stops beating
the frozen seed snapshot on the pure-engine workload.  Timing comparisons
across changes belong to ``perfbench/`` (``python3 perfbench/run.py``).
"""

from conftest import BENCH_SCALE

from repro.experiments.stragglers import worker_scenario
from repro.perf import Stopwatch, measure_seed_speedup
from repro.scenarios import ScenarioSpec, build_scenario_job

#: Very conservative floor (events processed per wall second) so the check
#: stays green on slow CI machines; the optimised engine sustains well over
#: 100k events/s on a developer machine.
EVENTS_PER_SEC_FLOOR = 20_000.0


def _floor_margin(label: str, measured: float) -> str:
    """Measured-vs-floor message so a floor failure shows how far off it was."""
    return (f"{label}: measured {measured:,.0f} ev/s vs floor "
            f"{EVENTS_PER_SEC_FLOOR:,.0f} ev/s "
            f"({measured / EVENTS_PER_SEC_FLOOR:.2f}x of floor)")


def test_perf_smoke_engine_floor_and_report():
    """Both stages clear the floor; the printed report shows the margin."""
    # 1. Engine-only comparison: optimised engine vs. frozen seed snapshot on
    # the identical PS-shaped event workload, interleaved on this machine.
    comparison = measure_seed_speedup(num_workers=BENCH_SCALE.num_workers,
                                      num_servers=BENCH_SCALE.num_servers,
                                      iterations=BENCH_SCALE.iterations, repeats=3)
    micro_eps = comparison["optimized"]["events_per_sec"]
    assert micro_eps >= EVENTS_PER_SEC_FLOOR, _floor_margin(
        "engine microbench", micro_eps)
    assert comparison["speedup_vs_seed"] > 1.0, (
        "optimised engine no longer beats the seed snapshot: "
        f"{comparison['speedup_vs_seed']:.2f}x"
    )

    # 2. Full bench-scale scenario throughput (engine + consumers), read from
    # the engine counters the run result now carries.
    spec = ScenarioSpec.for_scale(BENCH_SCALE, name="bench-nd-scenario", method="antdt-nd",
                                  stragglers=worker_scenario(0.8))
    # The window spans the build and the run; each phase's share is read
    # off the same stopwatch, so a stall names the phase it lay in.
    watch = Stopwatch()
    with watch:
        job, _ = build_scenario_job(spec)
        build_s = watch.elapsed
        result = job.run()
    wall = watch.elapsed
    phases = (f"build_scenario_job {build_s * 1e3:.1f} ms, "
              f"job.run() {(wall - build_s) * 1e3:.1f} ms")
    assert result.completed
    scenario_events = result.engine_events_processed
    assert scenario_events > 0
    scenario_eps = scenario_events / wall if wall > 0 else float("inf")
    assert scenario_eps >= EVENTS_PER_SEC_FLOOR, (
        f"{_floor_margin('bench ND scenario', scenario_eps)}; {phases}")

    print("\nPerf smoke:")
    print(f"  engine microbench: seed {comparison['seed']['events_per_sec']:,.0f} ev/s, "
          f"optimized {comparison['optimized']['events_per_sec']:,.0f} ev/s "
          f"({comparison['speedup_vs_seed']:.2f}x)")
    print(f"  bench ND scenario: {scenario_events} events in {wall*1e3:.1f} ms "
          f"({scenario_eps:,.0f} ev/s; {phases})")
    print(f"  floor margin: {_floor_margin('worst stage', min(micro_eps, scenario_eps))}")
