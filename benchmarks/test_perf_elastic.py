"""Elastic sweep benchmark: what membership churn costs the simulator.

Runs the elastic scenario family (scale-out, scale-in, churn storm,
autoscaler-driven runs) through the orchestrator and prints per-scenario wall
times, so the cost of elastic membership — extra provisioning processes,
membership-log bookkeeping, autoscaler control rounds — is visible in the
benchmark output.

Assertions pin semantics, not machine-dependent timings: every elastic
scenario completes, fingerprints deterministically, and a 2-process sweep is
byte-identical to the serial one.
"""

from repro.orchestrator import SweepRunner
from repro.scenarios import all_scenarios


def test_elastic_sweep_benchmark():
    elastic = [spec for spec in all_scenarios(tags=("elastic",))
               if "slow" not in spec.tags]
    assert len(elastic) >= 6, "the elastic scenario family shrank"

    serial = SweepRunner(jobs=1, store=None).run(elastic)
    assert not serial.errors and serial.simulated == len(elastic)

    parallel = SweepRunner(jobs=2, store=None).run(elastic)
    assert not parallel.errors
    assert parallel.fingerprints() == serial.fingerprints()

    per_scenario = {outcome.name: outcome.wall_s for outcome in serial.outcomes}
    churn = sum(fp.get("elastic", {}).get("joined", 0)
                + fp.get("elastic", {}).get("left", 0)
                for fp in serial.fingerprints().values())

    print(f"\nElastic sweep benchmark ({len(elastic)} scenarios, "
          f"{churn} membership transitions):")
    print(f"  serial : {serial.wall_s:.3f}s ({serial.stats_line()})")
    print(f"  2-proc : {parallel.wall_s:.3f}s ({parallel.stats_line()})")
    for name in sorted(per_scenario):
        print(f"    {name:<32s} {per_scenario[name]*1e3:7.1f}ms")


def test_elastic_server_sweep_benchmark():
    """The server-elastic family: membership + resharding cost tracking.

    Acceptance guard: a 2-process sweep over the server-elastic scenarios is
    byte-identical to the serial one (the rendezvous shard map hashes with
    SHA-256, so the assignment — and the resharding fingerprint section — is
    a pure function of the membership, not of process scheduling).
    """
    family = [spec for spec in all_scenarios(tags=("elastic-server",))]
    assert len(family) >= 4, "the server-elastic scenario family shrank"

    serial = SweepRunner(jobs=1, store=None).run(family)
    assert not serial.errors and serial.simulated == len(family)

    parallel = SweepRunner(jobs=2, store=None).run(family)
    assert not parallel.errors
    assert parallel.fingerprints() == serial.fingerprints()

    reshards = sum(
        fp.get("elastic", {}).get("resharding", {}).get("total_moved_shards", 0)
        for fp in serial.fingerprints().values())
    churn = sum(fp.get("elastic", {}).get("servers", {}).get("joined", 0)
                + fp.get("elastic", {}).get("servers", {}).get("left", 0)
                for fp in serial.fingerprints().values())

    print(f"\nElastic server sweep benchmark ({len(family)} scenarios, "
          f"{churn} server transitions, {reshards} shards moved):")
    print(f"  serial : {serial.wall_s:.3f}s ({serial.stats_line()})")
    print(f"  2-proc : {parallel.wall_s:.3f}s ({parallel.stats_line()})")
