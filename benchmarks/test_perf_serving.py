"""Serving sweep benchmark: what open-loop request traffic costs the engine.

Runs the serving scenario family (colocated request traffic, overload
shedding, SLO-driven server autoscaling, hot-key fan-out, promotion under a
burst) through the orchestrator and prints wall times and request volumes,
so the cost of the serving tier — thousands of request events per run on top
of the training pushes — is visible next to the engine and elastic numbers.

Assertions pin semantics, not machine-dependent timings: every serving
scenario completes with closed request accounting, and a 2-process sweep is
byte-identical to the serial one (arrival traces are precomputed from the
spec seed, so fan-out cannot perturb them).
"""

from repro.orchestrator import SweepRunner
from repro.scenarios import all_scenarios


def test_serving_sweep_benchmark():
    family = [spec for spec in all_scenarios(tags=("serving",))]
    assert len(family) >= 4, "the serving scenario family shrank"

    serial = SweepRunner(jobs=1, store=None).run(family)
    assert not serial.errors and serial.simulated == len(family)

    parallel = SweepRunner(jobs=2, store=None).run(family)
    assert not parallel.errors
    assert parallel.fingerprints() == serial.fingerprints()

    arrivals = completed = shed = 0
    for fp in serial.fingerprints().values():
        serving = fp["serving"]
        arrivals += serving["arrivals"]
        completed += serving["completed"]
        shed += sum(serving["shed"].values())
        # Open-loop accounting closes on every scenario in the family.
        assert (serving["completed"] + sum(serving["shed"].values())
                + serving["in_flight_at_end"] == serving["arrivals"])
    assert completed > 0 and shed > 0

    print(f"\nServing sweep benchmark ({len(family)} scenarios, "
          f"{arrivals} requests, {completed} served, {shed} shed):")
    print(f"  serial : {serial.wall_s:.3f}s ({serial.stats_line()})")
    print(f"  2-proc : {parallel.wall_s:.3f}s ({parallel.stats_line()})")
    for outcome in serial.outcomes:
        print(f"    {outcome.name:<28s} {outcome.wall_s*1e3:7.1f}ms")
