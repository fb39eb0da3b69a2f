"""Shared configuration for the benchmark harness.

Every benchmark regenerates one table or figure of the paper on a scaled-down
workload and prints the same rows/series the paper reports; the figure and
table files are named after what they regenerate (``test_fig10_bsp_jct.py``
is Fig. 10).  README.md describes the simulator and BENCHMARKS.md the perf
floors and measured results.  Simulated runs are deterministic, so each
benchmark executes a single round.
"""

import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    try:
        import repro  # noqa: F401
    except ImportError:
        sys.path.insert(0, str(_SRC))

from repro.experiments.workloads import ExperimentScale  # noqa: E402

#: Scale used by the benchmark suite: small enough to complete in seconds,
#: large enough that straggler delays, monitoring windows and restart costs
#: keep the same proportions as the paper-scale configuration.
BENCH_SCALE = ExperimentScale(
    name="bench",
    num_workers=6,
    num_servers=3,
    per_worker_batch=4096,
    iterations=60,
    batches_per_shard=1,
    control_interval_s=20.0,
    transient_window_s=20.0,
    persistent_window_s=45.0,
    kill_restart_cooldown_s=60.0,
    straggler_period_s=90.0,
    straggler_active_s=45.0,
    idle_pending_time_s=5.0,
    node_init_time_s=10.0,
    worker_recovery_s=8.0,
    server_recovery_s=12.0,
)


@pytest.fixture(scope="session")
def bench_scale() -> ExperimentScale:
    """The common benchmark scale."""
    return BENCH_SCALE


def run_once(benchmark, func, *args, **kwargs):
    """Run a deterministic experiment exactly once under pytest-benchmark."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1,
                              warmup_rounds=0)
