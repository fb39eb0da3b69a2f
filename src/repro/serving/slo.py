"""SLO accounting for the serving tier.

The :class:`SLOTracker` keeps two views of the same request stream:

- **Cumulative per-tenant totals** (arrivals, completions, sheds by
  reason, latency samples) that become the run fingerprint's ``serving``
  section — nearest-rank p50/p99, shed rate, goodput, and a digest of the
  per-request latency series, all derived from simulation-time quantities
  that are identical in both engine coalescing modes.
- **A sliding window** (pruned lazily at snapshot time) that feeds the
  ``serving-slo`` autoscaler policy: recent arrival rate, shed rate, and
  windowed p99.  Snapshots are only taken at autoscaler decision rounds,
  which occur at fixed simulation times, so policy inputs are
  mode-invariant too.

Latency is measured arrival-to-acknowledgement: it includes time spent
queued behind training pushes, so colocation contention is visible in the
p99 — exactly the signal the SLO policy scales on.
"""

from __future__ import annotations

import math
from collections import defaultdict, deque
from operator import itemgetter
from typing import DefaultDict, Deque, Dict, List, Tuple

__all__ = ["SLOTracker"]

#: Shed reasons, in fingerprint order.
SHED_REASONS = ("overload", "throttled")


def _nearest_rank(sorted_values: List[float], quantile: float) -> float:
    """Nearest-rank percentile of an ascending-sorted, non-empty list."""
    rank = math.ceil(quantile * len(sorted_values))
    return sorted_values[min(len(sorted_values), max(1, rank)) - 1]


class _TenantStats:
    __slots__ = ("arrivals", "completed", "shed", "latencies", "ack_times")

    def __init__(self) -> None:
        self.arrivals = 0
        self.completed = 0
        self.shed = {reason: 0 for reason in SHED_REASONS}
        self.latencies: List[float] = []
        self.ack_times: List[float] = []


class SLOTracker:
    """Per-tenant serving counters plus a sliding SLO window."""

    def __init__(self, window_s: float):
        self.window_s = window_s
        # A tenant's stats appear at its first recorded request.
        self._tenants: DefaultDict[str, _TenantStats] = defaultdict(_TenantStats)
        self._win_arrivals: Deque[float] = deque()
        self._win_sheds: Deque[float] = deque()
        self._win_latencies: Deque[Tuple[float, float]] = deque()

    # ------------------------------------------------------------------
    # Recording (called by the driver in simulation order).
    # ------------------------------------------------------------------

    def on_arrival(self, tenant: str, now_s: float) -> None:
        self._tenants[tenant].arrivals += 1
        self._win_arrivals.append(now_s)

    def on_shed(self, tenant: str, now_s: float, reason: str) -> None:
        self._tenants[tenant].shed[reason] += 1
        self._win_sheds.append(now_s)

    def on_completion(self, tenant: str, ack_s: float,
                      latency_s: float) -> None:
        stats = self._tenants[tenant]
        stats.completed += 1
        stats.latencies.append(latency_s)
        stats.ack_times.append(ack_s)
        self._win_latencies.append((ack_s, latency_s))

    # ------------------------------------------------------------------
    # Policy snapshot (windowed) and fingerprint section (cumulative).
    # ------------------------------------------------------------------

    def _prune(self, now_s: float) -> None:
        horizon = now_s - self.window_s
        for window in (self._win_arrivals, self._win_sheds):
            while window and window[0] < horizon:
                window.popleft()
        while self._win_latencies and self._win_latencies[0][0] < horizon:
            self._win_latencies.popleft()

    def snapshot(self, now_s: float, inflight: int) -> Dict[str, float]:
        """Windowed SLO view for :class:`~repro.elastic.policies.ElasticContext`."""
        self._prune(now_s)
        span = min(self.window_s, now_s) or self.window_s
        arrivals = len(self._win_arrivals)
        sheds = len(self._win_sheds)
        data: Dict[str, float] = {
            "arrival_rps": arrivals / span,
            "shed_rate": (sheds / arrivals) if arrivals else 0.0,
            "inflight": float(inflight),
        }
        if self._win_latencies:
            latencies = sorted(lat for _, lat in self._win_latencies)
            data["p99_s"] = _nearest_rank(latencies, 0.99)
        return data

    def finalize(self, elapsed_s: float,
                 in_flight_at_end: int) -> Dict[str, object]:
        """Cumulative, JSON-safe summary for the run fingerprint."""
        # Lazy import: fingerprint pulls in the scenario layer, which
        # reaches back into serving via the matrix — a top-level import
        # here would be circular.
        from ..scenarios.fingerprint import series_digest

        total = _TenantStats()
        tenants: Dict[str, Dict[str, object]] = {}
        for name in sorted(self._tenants):
            stats = self._tenants[name]
            tenants[name] = self._summarize(stats, elapsed_s)
            total.arrivals += stats.arrivals
            total.completed += stats.completed
            for reason in SHED_REASONS:
                total.shed[reason] += stats.shed[reason]
            total.latencies.extend(stats.latencies)
            total.ack_times.extend(stats.ack_times)
        summary = self._summarize(total, elapsed_s)
        summary["tenants"] = tenants
        summary["in_flight_at_end"] = in_flight_at_end
        if total.ack_times:
            points = sorted(zip(total.ack_times, total.latencies))
            summary["latency_digest"] = series_digest(
                map(itemgetter(0), points), map(itemgetter(1), points))
        return summary

    @staticmethod
    def _summarize(stats: _TenantStats, elapsed_s: float) -> Dict[str, object]:
        shed_total = sum(stats.shed.values())
        data: Dict[str, object] = {
            "arrivals": stats.arrivals,
            "completed": stats.completed,
            "shed": dict(stats.shed),
            "shed_rate": (shed_total / stats.arrivals) if stats.arrivals else 0.0,
            "goodput_rps": (stats.completed / elapsed_s) if elapsed_s > 0 else 0.0,
        }
        if stats.latencies:
            latencies = sorted(stats.latencies)
            data["p50_s"] = _nearest_rank(latencies, 0.50)
            data["p99_s"] = _nearest_rank(latencies, 0.99)
        return data
