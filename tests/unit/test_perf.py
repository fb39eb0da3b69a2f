"""Unit tests for the perf subsystem (repro.perf)."""

import time

import pytest

from repro.perf import (
    Counter,
    EngineStats,
    Stopwatch,
    measure_engine,
    measure_seed_speedup,
    run_engine_scenario,
)
from repro.perf import seed_engine
from repro.sim import engine as live_engine
from repro.sim.engine import Environment


# -- Stopwatch / Counter -----------------------------------------------------------
def test_stopwatch_measures_elapsed_time():
    watch = Stopwatch()
    with watch:
        time.sleep(0.01)
    assert watch.elapsed >= 0.01
    assert not watch.running


def test_stopwatch_accumulates_across_restarts():
    watch = Stopwatch()
    watch.start()
    first = watch.stop()
    watch.start()
    total = watch.stop()
    assert total >= first


def test_stopwatch_double_start_raises():
    watch = Stopwatch().start()
    with pytest.raises(RuntimeError):
        watch.start()


def test_stopwatch_stop_without_start_raises():
    with pytest.raises(RuntimeError):
        Stopwatch().stop()


def test_stopwatch_elapsed_includes_the_running_interval():
    watch = Stopwatch().start()
    time.sleep(0.01)
    assert watch.running and watch.elapsed >= 0.01
    total = watch.stop()
    assert watch.elapsed == total >= 0.01


def test_counter_accumulates_by_name():
    counter = Counter()
    counter.add("events", 3)
    counter.add("events")
    counter.add("drops", 0.5)
    assert counter["events"] == 4.0
    assert counter["drops"] == 0.5
    assert counter["missing"] == 0.0
    assert counter.as_dict() == {"events": 4.0, "drops": 0.5}


def test_counter_update_merges_a_sub_report():
    counter = Counter()
    counter.add("hits", 2)
    counter.update({"hits": 3, "misses": 1})
    assert counter.as_dict() == {"hits": 5.0, "misses": 1.0}
    assert "misses" in counter and "drops" not in counter


# -- EngineStats --------------------------------------------------------------------
def test_engine_stats_counts_native_counters():
    env = Environment()
    stats = EngineStats(env)

    def proc(env):
        yield env.timeout(1.0)

    env.process(proc(env))
    env.run()
    assert stats.scheduled > 0
    assert stats.processed == stats.scheduled


def test_engine_stats_reset_rebases_window():
    env = Environment()
    env.timeout(1.0)
    env.run()
    stats = EngineStats(env)
    assert stats.processed == 0
    env.timeout(1.0)
    env.run()
    assert stats.processed > 0


def test_engine_stats_seed_engine_fallback():
    env = seed_engine.Environment()
    stats = EngineStats.absolute(env)

    def proc(env):
        yield env.timeout(1.0)

    env.process(proc(env))
    env.run()
    # Seed environments have no native counters; the fallback derives the
    # totals from the event-id counter and the residual heap.
    assert stats.scheduled > 0
    assert stats.processed == stats.scheduled


# -- engine workload -----------------------------------------------------------------
def test_engine_scenario_is_deterministic_across_engines():
    seed_env = run_engine_scenario(seed_engine, num_workers=3, num_servers=2, iterations=5)
    live_env = run_engine_scenario(live_engine, num_workers=3, num_servers=2, iterations=5)
    assert seed_env.now == live_env.now


def test_measure_engine_reports_event_stats():
    run = measure_engine(live_engine, num_workers=2, num_servers=1, iterations=4)
    assert run["events_processed"] > 0
    assert run["wall_s"] > 0
    assert run["events_per_sec"] > 0
    assert run["sim_time"] > 0


def test_measure_seed_speedup_structure():
    result = measure_seed_speedup(num_workers=2, num_servers=1, iterations=4, repeats=1)
    assert set(result) == {"seed", "optimized", "speedup_vs_seed"}
    assert result["speedup_vs_seed"] > 0
    assert result["seed"]["sim_time"] == result["optimized"]["sim_time"]


def test_measure_seed_speedup_rejects_zero_repeats():
    with pytest.raises(ValueError):
        measure_seed_speedup(repeats=0)

