"""Orchestrator sweep benchmark: parallel fan-out and cache-hit economics.

Sweeps the fast (non-slow) scenario registry three ways — serial cold,
2-process cold, warm cache — and prints the measured wall times and the
warm-cache speedup, so the orchestrator's execution cost shows beside raw
engine throughput in the benchmark output.

The numbers are machine-dependent (a single-core container shows little
fan-out gain; the cache hit path is orders of magnitude faster everywhere),
so the assertions only pin the semantics: parallel results match serial ones
and the warm sweep must not simulate.
"""

from repro.orchestrator import ResultStore, SweepRunner
from repro.scenarios import all_scenarios


def test_orchestrator_sweep_benchmark(tmp_path):
    fast = [spec for spec in all_scenarios() if "slow" not in spec.tags]

    serial = SweepRunner(jobs=1, store=None).run(fast)
    assert not serial.errors and serial.simulated == len(fast)

    parallel = SweepRunner(jobs=2, store=None).run(fast)
    assert not parallel.errors
    assert parallel.fingerprints() == serial.fingerprints()

    store = ResultStore(tmp_path / "results.jsonl")
    SweepRunner(jobs=1, store=store).run(fast)
    warm = SweepRunner(jobs=1, store=ResultStore(store.path)).run(fast)
    assert warm.simulated == 0 and warm.hits == len(fast)
    cache_speedup = serial.wall_s / warm.wall_s if warm.wall_s > 0 else float("inf")

    print("\nOrchestrator sweep benchmark "
          f"({len(fast)} scenarios, fast registry subset):")
    print(f"  serial cold : {serial.wall_s:.3f}s ({serial.stats_line()})")
    print(f"  2-proc cold : {parallel.wall_s:.3f}s ({parallel.stats_line()})")
    print(f"  warm cache  : {warm.wall_s*1e3:.1f}ms "
          f"({cache_speedup:,.0f}x vs serial cold)")
