"""Time-series metric recording for simulated training runs.

Every experiment in the paper is a plot or a table over run statistics: batch
processing time per node (Fig. 1, 13, 14), job completion time (Fig. 2, 10,
11, 15, 19, Table III), per-worker batch size (Fig. 12), shard counts and
throughput (Fig. 3, 16), failover delay (Fig. 17), and framework overhead
(Fig. 18).  :class:`MetricsRecorder` is the single sink all simulated
components write to, and the experiment layer reads series back out of it.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["MetricPoint", "MetricSeries", "MetricsRecorder", "window_start"]


def window_start(window_s: float, now: float) -> float:
    """Left edge of the half-open sliding window ``(start, now]`` ending at ``now``.

    Window queries across the code base (the Monitor's ``L_trans`` / ``L_per``
    windows, the failure injector's failure-rate windows) use half-open
    ``(start, now]`` intervals so consecutive windows never double count an
    observation.  For the *first* window of a run the naive ``now - window_s``
    start would silently exclude an observation recorded exactly at t=0
    (``bisect_right`` places it at the open edge); when the window reaches back
    to (or past) the start of the run there is no previous window that could
    have claimed the boundary observation, so the window is widened to cover
    everything up to ``now``.
    """
    start = now - window_s
    return start if start > 0.0 else -math.inf


@dataclass(frozen=True)
class MetricPoint:
    """One recorded observation."""

    time: float
    value: float


class MetricSeries:
    """An append-only, time-ordered series of observations.

    Alongside the raw observations the series maintains a prefix-sum array,
    so every windowed aggregate (:meth:`window_mean`, :meth:`window_stats`)
    is answered with two bisections and one subtraction instead of slicing a
    copy of the window — the Monitor and the straggler detector issue these
    queries every control interval for every node, and the old O(window)
    copies dominated large-cluster runs.

    The prefix sums are maintained *lazily*: appends touch only the raw
    lists (the dominant cost of the simulator's hottest series is the append
    itself), and the first aggregate query after a batch of appends extends
    the prefix array for the new suffix.  The catch-up accumulates strictly
    left to right (``np.cumsum`` seeded with the last synced prefix value),
    so aggregates are bit-identical to eagerly maintained sums.
    """

    __slots__ = ("_times", "_values", "_prefix")

    def __init__(self) -> None:
        self._times: List[float] = []
        self._values: List[float] = []
        # _prefix[i] is the sum of the first i values.  Invariant:
        # len(_prefix) <= len(_values) + 1; the gap is the unsynced suffix.
        self._prefix: List[float] = [0.0]

    def __len__(self) -> int:
        return len(self._times)

    def append(self, time: float, value: float) -> None:
        """Append an observation; times must be non-decreasing."""
        times = self._times
        if times and time < times[-1]:
            raise ValueError(
                f"observations must be appended in time order "
                f"({time} < {times[-1]})"
            )
        value = value if type(value) is float else float(value)
        times.append(time if type(time) is float else float(time))
        self._values.append(value)

    def extend(self, times: Sequence[float], values: Sequence[float]) -> None:
        """Append a batch of observations; times must be non-decreasing.

        Bulk variant of :meth:`append` for coalesced commits (a server
        publishing a whole window of handling times at once).
        """
        if len(times) == 0:
            return
        own_times = self._times
        if own_times and times[0] < own_times[-1]:
            raise ValueError(
                f"observations must be appended in time order "
                f"({times[0]} < {own_times[-1]})"
            )
        own_times.extend(float(t) for t in times)
        self._values.extend(float(v) for v in values)

    def _sync_prefix(self) -> List[float]:
        """Extend the prefix sums over any values appended since last sync."""
        prefix = self._prefix
        values = self._values
        synced = len(prefix) - 1
        missing = len(values) - synced
        if missing <= 0:
            return prefix
        if missing > 64:
            # Seeding cumsum with the running total keeps the accumulation
            # strictly sequential — bit-identical to one-at-a-time adds.
            block = np.empty(missing + 1, dtype=np.float64)
            block[0] = prefix[-1]
            block[1:] = values[synced:]
            prefix.extend(np.cumsum(block)[1:].tolist())
        else:
            running = prefix[-1]
            for value in values[synced:]:
                running += value
                prefix.append(running)
        return prefix

    def buffers(self) -> Tuple[List[float], List[float]]:
        """The live ``(times, values)`` lists, for trusted hot-path appends.

        The vectorized push fan-out appends one observation per server per
        iteration; going through :meth:`append` costs a method call and a
        monotonicity check per observation.  Callers appending through these
        handles must keep times non-decreasing themselves (coalesced commits
        do — acknowledgements advance along each server's chain, and
        rollbacks restore monotonicity via :meth:`truncate` before any
        replay).  The lazy prefix machinery is unaffected: it reads
        ``_values`` on the next aggregate query.
        """
        return self._times, self._values

    def truncate(self, length: int) -> None:
        """Drop every observation past the first ``length``.

        Rollback hook for coalesced commits: when a window is rescinded
        mid-flight (failure, straggler transition, membership change) the
        owning component rewinds the series to its pre-window length before
        re-planning.
        """
        if length < 0 or length > len(self._times):
            raise ValueError(f"cannot truncate series of {len(self._times)} to {length}")
        del self._times[length:]
        del self._values[length:]
        del self._prefix[length + 1:]

    def points(self) -> List[MetricPoint]:
        """All observations as :class:`MetricPoint` objects."""
        return [MetricPoint(t, v) for t, v in zip(self._times, self._values)]

    def times(self) -> List[float]:
        """Observation times."""
        return list(self._times)

    def values(self) -> List[float]:
        """Observation values."""
        return list(self._values)

    def last(self) -> Optional[MetricPoint]:
        """Most recent observation, or None when empty."""
        if not self._times:
            return None
        return MetricPoint(self._times[-1], self._values[-1])

    def window(self, start: float, end: float) -> List[float]:
        """Values observed in the half-open interval ``(start, end]``.

        The interval is open at ``start``: an observation recorded exactly at
        ``start`` belongs to the *previous* window, so back-to-back windows
        ``(t0, t1]``, ``(t1, t2]`` partition the series without double
        counting.  Callers whose first window begins at the start of the run
        should pass ``start=-math.inf`` (see ``Monitor``) so observations
        recorded exactly at t=0 are not silently dropped.
        """
        lo = bisect_right(self._times, start)
        hi = bisect_right(self._times, end)
        return self._values[lo:hi]

    def window_stats(self, start: float, end: float) -> Tuple[int, float]:
        """(count, sum) of the values in ``(start, end]`` without copying.

        The sum is ``prefix[hi] - prefix[lo]``, which can differ from a
        freshly computed ``sum(values[lo:hi])`` in the last ulp for windows
        not anchored at the start of the series — acceptable for monitoring
        aggregates (detection thresholds use ratios well away from 1 ulp).
        """
        lo = bisect_right(self._times, start)
        hi = bisect_right(self._times, end)
        if hi <= lo:
            return 0, 0.0
        prefix = self._sync_prefix()
        return hi - lo, prefix[hi] - prefix[lo]

    def window_mean(self, start: float, end: float) -> Optional[float]:
        """Mean of the values in ``(start, end]`` or None if there are none.

        Boundary semantics match :meth:`window`; computed from the running
        prefix sums in O(log n).
        """
        count, total = self.window_stats(start, end)
        if count == 0:
            return None
        return total / count

    def mean(self) -> Optional[float]:
        """Mean over the whole series, or None when empty."""
        if not self._values:
            return None
        return self._sync_prefix()[-1] / len(self._values)

    def total(self) -> float:
        """Sum over the whole series."""
        return self._sync_prefix()[-1]


class MetricsRecorder:
    """Central sink for simulation metrics.

    Metrics are keyed by ``(name, tag)`` where the tag is typically a node
    name (``"worker-3"``, ``"server-0"``) or ``""`` for job-level metrics.

    Beside the series it keeps a small event log that holds only the events
    code reads back: ``kill_restart`` (the kill marks of Fig. 13 / Fig. 14)
    and ``failure_skipped`` / ``scale_skipped`` (a scenario schedule the job
    refused).  Lifecycle facts that have their own record (membership and
    reshard logs, the scheduler's restart log, trace events) stay there.
    """

    GLOBAL = ""

    def __init__(self) -> None:
        self._series: Dict[Tuple[str, str], MetricSeries] = {}
        self._events: List[Tuple[float, str, str, str]] = []
        # Tags per metric name, in first-seen order.  Kept incrementally so
        # per-tag queries (issued every control interval) do not rescan every
        # series key ever recorded.
        self._tags_by_name: Dict[str, List[str]] = {}

    def _get_or_create(self, name: str, tag: str) -> MetricSeries:
        key = (name, tag)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = MetricSeries()
            self._tags_by_name.setdefault(name, []).append(tag)
        return series

    # -- recording ----------------------------------------------------------
    def record(self, name: str, value: float, time: float, tag: str = GLOBAL) -> None:
        """Record a time-series observation."""
        self._get_or_create(name, tag).append(time, value)

    def log_event(self, time: float, kind: str, tag: str = GLOBAL, detail: str = "") -> None:
        """Record a discrete event (e.g. a KILL_RESTART) for :meth:`events`."""
        self._events.append((float(time), kind, tag, detail))

    # -- queries ------------------------------------------------------------
    def series(self, name: str, tag: str = GLOBAL) -> MetricSeries:
        """Return the series for ``(name, tag)`` (empty if never recorded)."""
        return self._get_or_create(name, tag)

    def has_series(self, name: str, tag: str = GLOBAL) -> bool:
        """True if at least one observation exists for ``(name, tag)``."""
        series = self._series.get((name, tag))
        return series is not None and len(series) > 0

    def tags(self, name: str) -> List[str]:
        """All tags that have observations under metric ``name``.

        Tags whose series exist but hold no observations (e.g. series handles
        cached eagerly by workers that never completed an iteration) are not
        listed — figure builders iterate this and must only see nodes that
        actually recorded data.
        """
        series = self._series
        return sorted(tag for tag in self._tags_by_name.get(name, [])
                      if len(series[(name, tag)]) > 0)

    def events(self, kind: Optional[str] = None, tag: Optional[str] = None) -> List[Tuple[float, str, str, str]]:
        """Recorded events, optionally filtered by kind and/or tag."""
        result = self._events
        if kind is not None:
            result = [event for event in result if event[1] == kind]
        if tag is not None:
            result = [event for event in result if event[2] == tag]
        return list(result)

    def window_mean(self, name: str, start: float, end: float, tag: str = GLOBAL) -> Optional[float]:
        """Mean of metric ``name`` for ``tag`` over ``(start, end]``."""
        return self.series(name, tag).window_mean(start, end)

    def per_tag_window_means(self, name: str, start: float, end: float) -> Dict[str, float]:
        """Window means of metric ``name`` for every tag that has data in the window."""
        means: Dict[str, float] = {}
        series = self._series
        for tag in self.tags(name):
            mean = series[(name, tag)].window_mean(start, end)
            if mean is not None:
                means[tag] = mean
        return means

    def summary(self, name: str) -> Dict[str, float]:
        """Whole-run mean per tag for metric ``name``."""
        result: Dict[str, float] = {}
        for tag in self.tags(name):
            mean = self.series(name, tag).mean()
            if mean is not None:
                result[tag] = mean
        return result
