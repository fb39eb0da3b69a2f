"""Performance-tracking subsystem (``repro.perf``).

The simulator's throughput is the ceiling on how large a cluster the
reproduction can replay, so this package makes engine performance a tracked,
first-class quantity:

* :class:`Stopwatch` / :class:`Counter` — wall-clock timing and tallies for
  benchmark harnesses (:mod:`repro.perf.timing`).
* :class:`EngineStats` — events scheduled/processed per run, read from the
  engine's native counters (:mod:`repro.perf.stats`).
* :mod:`repro.perf.workload` — a pure-engine PS-shaped scenario replayable on
  both the live engine and the frozen seed snapshot
  (:mod:`repro.perf.seed_engine`), yielding an honest speedup figure.

See BENCHMARKS.md at the repository root for the perf floors and ``perfbench/``.
"""

from .profiling import (
    PROFILE_ENV,
    profiling_requested,
    run_profiled,
    warn_multiprocess_profile,
)
from .stats import EngineStats
from .timing import Counter, Stopwatch
from .workload import measure_engine, measure_seed_speedup, run_engine_scenario

__all__ = [
    "Counter",
    "EngineStats",
    "PROFILE_ENV",
    "Stopwatch",
    "measure_engine",
    "measure_seed_speedup",
    "profiling_requested",
    "run_profiled",
    "run_engine_scenario",
    "warn_multiprocess_profile",
]
