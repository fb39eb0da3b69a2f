"""SLO accounting for the serving tier: one row of columns per arrival.

:class:`SLOTracker` keeps, per tenant, three columns sized from the tenant's
arrival trace at :meth:`~SLOTracker.start`, plus the count of arrivals
handled so far (arrivals are handled in trace order):

- ``handled`` — the simulation time the arrival walk handled each arrival;
- ``outcomes`` — one byte per arrival: :data:`ADMITTED` (0), or the shed
  reason :data:`OVERLOAD` or :data:`THROTTLED`;
- ``acks`` — the acknowledgement time, NaN until the arrival is
  acknowledged.

The serving driver writes the cells as it handles arrivals and delivers
acknowledgements, and everything else derives from them:

- **Cumulative per-tenant totals** (arrivals, completions, sheds by
  reason, latency samples) that become the run fingerprint's ``serving``
  section — nearest-rank p50/p99, shed rate, goodput, and a digest of the
  per-request latency series, all derived from simulation-time quantities
  that are identical in both engine coalescing modes.  :meth:`finalize`
  also closes the ledger: it raises unless every arrival was completed,
  shed or is still in flight, and the driver's running counters agree.
- **A sliding window** that feeds the ``serving-slo`` autoscaler policy:
  recent arrival rate, shed rate, and windowed p99 (:meth:`snapshot`).
  Snapshots are only taken at autoscaler decision rounds, which occur at
  fixed simulation times, so policy inputs are mode-invariant too.

Latency is measured from handling to acknowledgement: it includes time
spent queued behind training pushes, so colocation contention is visible in
the p99 — exactly the signal the SLO policy scales on.
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import Dict, List, Sequence, Tuple

import numpy as np

__all__ = ["SLOTracker", "ADMITTED", "OVERLOAD", "THROTTLED", "SHED_REASONS"]

#: An arrival's outcome byte: admitted, or shed for one of two reasons.
ADMITTED, OVERLOAD, THROTTLED = 0, 1, 2

#: Shed reasons in fingerprint order; a shed outcome byte is its index + 1.
SHED_REASONS = ("overload", "throttled")

#: The (handled, outcomes, acks) columns of no arrival.
_NO_ARRIVALS = (np.zeros(0), np.zeros(0, dtype=np.uint8), np.zeros(0))


def _nearest_rank(sorted_values: np.ndarray, quantile: float) -> float:
    """Nearest-rank percentile of an ascending-sorted, non-empty array."""
    rank = math.ceil(quantile * len(sorted_values))
    return float(sorted_values[min(len(sorted_values), max(1, rank)) - 1])


class SLOTracker:
    """Per-tenant serving columns, summarised cumulatively and over a window."""

    def __init__(self, window_s: float):
        self.window_s = window_s
        self.names: List[str] = []
        self.handled: List[np.ndarray] = []
        self.outcomes: List[np.ndarray] = []
        self.acks: List[np.ndarray] = []
        self.counts: List[int] = []

    def start(self, names: Sequence[str], sizes: Sequence[int]) -> None:
        """Size each tenant's columns for its ``sizes`` arrivals."""
        self.names = list(names)
        self.handled = [np.zeros(size) for size in sizes]
        self.outcomes = [np.zeros(size, dtype=np.uint8) for size in sizes]
        self.acks = [np.full(size, np.nan) for size in sizes]
        self.counts = [0] * len(self.names)

    def _tenants(self):
        """(name, handled, outcomes, acks) of each tenant with an arrival,
        its columns cut to the arrivals handled so far."""
        for name, handled, outcomes, acks, count in zip(
                self.names, self.handled, self.outcomes, self.acks, self.counts):
            if count:
                yield name, handled[:count], outcomes[:count], acks[:count]

    # ------------------------------------------------------------------
    # Policy snapshot (windowed) and fingerprint section (cumulative).
    # ------------------------------------------------------------------

    def snapshot(self, now_s: float, inflight: int) -> Dict[str, float]:
        """Windowed SLO view for :class:`~repro.elastic.policies.ElasticContext`.

        An arrival or a shed counts when it was handled at or after
        ``now_s - window_s``, a latency when its acknowledgement was
        delivered at or after that horizon.
        """
        horizon = now_s - self.window_s
        arrivals = sheds = 0
        latencies = [np.zeros(0)]
        for _, handled, outcomes, acks in self._tenants():
            first = int(np.searchsorted(handled, horizon, side="left"))
            arrivals += len(handled) - first
            sheds += int(np.count_nonzero(outcomes[first:]))
            recent = acks >= horizon
            latencies.append(acks[recent] - handled[recent])
        span = min(self.window_s, now_s) or self.window_s
        data: Dict[str, float] = {
            "arrival_rps": arrivals / span,
            "shed_rate": (sheds / arrivals) if arrivals else 0.0,
            "inflight": float(inflight),
        }
        window = np.sort(np.concatenate(latencies))
        if len(window):
            data["p99_s"] = _nearest_rank(window, 0.99)
        return data

    def finalize(self, elapsed_s: float, admitted: int,
                 completed: int) -> Dict[str, object]:
        """Cumulative, JSON-safe summary for the run fingerprint.

        ``admitted`` and ``completed`` are the driver's running counters.
        Raises ``RuntimeError`` unless arrivals = completed + shed + in
        flight, per tenant and in total, and the counters equal the
        columns' counts.
        """
        # Lazy import: fingerprint pulls in the scenario layer, which
        # reaches back into serving via the matrix — a top-level import
        # here would be circular.
        from ..scenarios.fingerprint import series_digest

        rows = sorted(self._tenants(), key=itemgetter(0))
        tenants = {name: self._summarize(name, *columns, elapsed_s)[0]
                   for name, *columns in rows}
        handled, outcomes, acks = ([np.concatenate(cells) for cells in zip(*(row[1:] for row in rows))]
                                   or _NO_ARRIVALS)
        summary, in_flight = self._summarize("all tenants", handled, outcomes, acks, elapsed_s)
        if (admitted, completed) != (summary["completed"] + in_flight, summary["completed"]):
            raise RuntimeError(
                f"serving ledger open: the driver counted {admitted} admitted and "
                f"{completed} completed, the columns {summary['completed']} "
                f"completed and {in_flight} in flight")
        summary["tenants"] = tenants
        summary["in_flight_at_end"] = in_flight
        done = ~np.isnan(acks)
        if done.any():
            acks = acks[done]
            latencies = acks - handled[done]
            order = np.lexsort((latencies, acks))
            summary["latency_digest"] = series_digest(
                acks[order].tolist(), latencies[order].tolist())
        return summary

    @staticmethod
    def _summarize(name: str, handled: np.ndarray, outcomes: np.ndarray,
                   acks: np.ndarray, elapsed_s: float) -> Tuple[Dict[str, object], int]:
        """One summary over columns, and the arrivals in flight; raises
        unless every arrival is completed, shed or in flight."""
        arrivals = len(handled)
        done = ~np.isnan(acks)
        completed = int(np.count_nonzero(done))
        in_flight = int(np.count_nonzero(~done & (outcomes == ADMITTED)))
        shed = {reason: int(np.count_nonzero(outcomes == code))
                for code, reason in enumerate(SHED_REASONS, start=1)}
        shed_total = sum(shed.values())
        if arrivals != completed + shed_total + in_flight:
            raise RuntimeError(
                f"serving ledger open for {name}: {arrivals} arrivals != "
                f"{completed} completed + {shed_total} shed + {in_flight} in flight")
        data: Dict[str, object] = {
            "arrivals": arrivals,
            "completed": completed,
            "shed": shed,
            "shed_rate": (shed_total / arrivals) if arrivals else 0.0,
            "goodput_rps": (completed / elapsed_s) if elapsed_s > 0 else 0.0,
        }
        if completed:
            latencies = np.sort(acks[done] - handled[done])
            data["p50_s"] = _nearest_rank(latencies, 0.50)
            data["p99_s"] = _nearest_rank(latencies, 0.99)
        return data, in_flight
