"""`repro.serving` — an open-loop traffic tier against the sharded PS.

The subsystem splits into a dependency-light declarative layer and a
runtime layer:

- :mod:`~repro.serving.spec` — :class:`ServingSpec` / :class:`TenantSpec`
  (lossless JSON round-trip, named presets for the orchestrator grid);
- :mod:`~repro.serving.arrivals` — seeded arrival traces (uniform,
  diurnal, bursty, flash-crowd) and Zipf key sampling;
- :mod:`~repro.serving.tenants` — per-tenant token-bucket throttling;
- :mod:`~repro.serving.slo` — per-arrival columns (handled time, outcome,
  acknowledgement time) and the p50/p99 latency, shed rate and goodput
  derived from them, cumulative (fingerprint) and windowed (autoscaler
  policy);
- :mod:`~repro.serving.driver` — the :class:`ServingTier` runtime that
  walks every tenant's arrivals in one process against a training job,
  with bounded per-server admission (queue-based load leveling with an
  explicit shed path).
"""

from .arrivals import arrival_times, zipf_keys
from .driver import SERVING_WORKER_PREFIX, ServingTier
from .slo import SLOTracker
from .spec import NO_SERVING, SERVING_PRESETS, ServingSpec, TenantSpec
from .tenants import TokenBucket

__all__ = [
    "arrival_times",
    "zipf_keys",
    "SERVING_WORKER_PREFIX",
    "ServingTier",
    "SLOTracker",
    "NO_SERVING",
    "SERVING_PRESETS",
    "ServingSpec",
    "TenantSpec",
    "TokenBucket",
]
