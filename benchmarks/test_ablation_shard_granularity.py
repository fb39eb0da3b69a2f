"""Ablation: shard granularity (samples per shard) vs JCT and DDS overhead.

Smaller shards give the DDS finer control over workload distribution (shorter
job tails when a straggler holds the last shard) at the cost of more DDS round
trips — the trade-off behind the paper's ``M`` hyper-parameter.
"""

from conftest import BENCH_SCALE, run_once

from repro.core.sharding import StatefulDDS
from repro.core.shuffler import ShardShuffler
from repro.experiments import worker_scenario
from repro.experiments.workloads import antdt_config
from repro.scenarios import ScenarioSpec, build_scenario_job


def _run_with_shard_size(samples_per_shard: int):
    job, _ = build_scenario_job(ScenarioSpec.for_scale(
        BENCH_SCALE, name=f"ablation-shard-{samples_per_shard}", method="antdt-nd",
        stragglers=worker_scenario(0.8), seed=1))
    cfg = antdt_config(BENCH_SCALE)
    job.allocator = StatefulDDS(
        num_samples=BENCH_SCALE.num_samples,
        global_batch_size=BENCH_SCALE.global_batch_size,
        epochs=BENCH_SCALE.epochs,
        shuffler=ShardShuffler(seed=1),
        op_cost_s=cfg.dds_op_overhead_s,
        samples_per_shard=samples_per_shard,
    )
    result = job.run()
    return result.jct, job.allocator.total_overhead_s


def _sweep():
    rows = []
    for factor in (1, 2, 8):
        samples_per_shard = BENCH_SCALE.per_worker_batch * factor
        jct, overhead = _run_with_shard_size(samples_per_shard)
        rows.append({"samples_per_shard": samples_per_shard, "jct_s": jct,
                     "dds_overhead_s": overhead})
    return rows


def test_ablation_shard_granularity(benchmark):
    rows = run_once(benchmark, _sweep)
    print("\nAblation — shard granularity:")
    print(f"  {'samples/shard':>14} {'JCT (s)':>9} {'DDS overhead (s)':>17}")
    for row in rows:
        print(f"  {row['samples_per_shard']:>14d} {row['jct_s']:>9.1f} "
              f"{row['dds_overhead_s']:>17.2f}")
    # Finer shards cost more DDS round trips.
    assert rows[0]["dds_overhead_s"] >= rows[-1]["dds_overhead_s"]
    # All granularities complete in the same ballpark (within 2x).
    jcts = [row["jct_s"] for row in rows]
    assert max(jcts) < 2.0 * min(jcts)
