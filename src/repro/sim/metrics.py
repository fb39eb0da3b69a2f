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
from typing import Dict, List, Optional, Tuple

import numpy as np

__all__ = ["MetricPoint", "MetricSeries", "MetricsRecorder", "SeriesStore", "window_start"]


def window_start(window_s: float, now: float) -> float:
    """Left edge of the half-open sliding window ``(start, now]`` ending at ``now``.

    Window queries (the Monitor's ``L_trans`` / ``L_per`` windows) use
    half-open ``(start, now]`` intervals so consecutive windows never double count an
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


class SeriesStore:
    """Rows of time-ordered observations: the storage behind every series.

    A row holds one series' times, its values and their prefix sums in flat
    float64 columns of ``rows * capacity`` cells (row ``r``, position ``i``
    at ``r * capacity + i``), plus one length and one synced-prefix count.
    A standalone :class:`MetricSeries` owns a one-row store; the server tier
    keeps every server's ``server_bpt`` series as one row of its own store
    (:class:`~repro.psarch.server.ServerStateArrays`), where one commit
    writes a server's points, or the lock-step group's one point for all
    its members, straight into the columns.

    Scalar paths read and write through flat memoryviews (``_times``,
    ``_lengths``, ... named after their column), far cheaper than a numpy
    scalar access.  Both rows and capacity grow by doubling, which replaces
    every column and its view: hold neither across a call that may grow the
    store, or the old buffer stays alive.
    """

    #: ``(name, dtype)`` of the per-row and the per-point columns; a
    #: subclass appends its own.
    ROW_COLUMNS = (("lengths", np.intp), ("synced", np.intp))
    POINT_COLUMNS = (("times", np.float64), ("values", np.float64),
                     ("prefix", np.float64))

    def __init__(self, rows: int = 1, capacity: int = 16) -> None:
        #: Rows in use; ``len(self.lengths)`` rows are allocated.
        self.rows = 0
        self.capacity = max(int(capacity), 1)
        self._resize(max(int(rows), 1), self.capacity)

    def add_row(self) -> int:
        """Claim the next (empty) row, growing the store when full."""
        row = self.rows
        if row == len(self.lengths):
            self._resize(2 * row, self.capacity)
        self.rows = row + 1
        return row

    def reserve(self, length: int) -> None:
        """Make room for ``length`` points in every row."""
        if length > self.capacity:
            self._resize(len(self.lengths), max(2 * self.capacity, length))

    def _resize(self, rows: int, capacity: int) -> None:
        """Reallocate every column at ``rows`` x ``capacity``, keeping the data.

        Columns are replaced one at a time together with their views, so
        each old buffer is freed before the next new one is filled.  Each
        row copies its own points and nothing past them: the cells of an
        empty row are never touched, so they take no memory (a lock-step
        server tier keeps all its members' rows empty, see
        :class:`~repro.psarch.server.ServerStateArrays`).
        """
        live = self.rows
        filled = [(row, length) for row, length
                  in enumerate(self.lengths[:live].tolist()) if length] if live else []
        old_capacity = self.capacity
        self.capacity = capacity
        for name, dtype in self.ROW_COLUMNS:
            column = np.zeros(rows, dtype=dtype)
            if live:
                column[:live] = getattr(self, name)[:live]
            self._install(name, column)
        for name, dtype in self.POINT_COLUMNS:
            column = np.empty(rows * capacity, dtype=dtype)
            if filled:
                new = column.reshape(rows, capacity)
                old = getattr(self, name).reshape(-1, old_capacity)
                for row, length in filled:
                    new[row, :length] = old[row, :length]
            self._install(name, column)

    def _install(self, name: str, column: np.ndarray) -> None:
        setattr(self, name, column)
        setattr(self, "_" + name, memoryview(column))

    def sync_prefix(self, row: int) -> None:
        """Extend ``row``'s prefix sums over the values appended since the last sync.

        ``prefix[i]`` is the sum of values ``0..i``.  The catch-up
        accumulates strictly left to right (a Python loop, or ``np.cumsum``
        seeded with the last synced sum), so every sum is bit-identical to
        one-at-a-time adds.
        """
        synced = self._synced[row]
        length = self._lengths[row]
        if synced >= length:
            return
        base = row * self.capacity
        prefix = self._prefix
        running = prefix[base + synced - 1] if synced else 0.0
        if length - synced > 64:
            block = np.empty(length - synced + 1, dtype=np.float64)
            block[0] = running
            block[1:] = self.values[base + synced:base + length]
            self.prefix[base + synced:base + length] = np.cumsum(block)[1:]
        else:
            values = self._values
            for index in range(base + synced, base + length):
                running += values[index]
                prefix[index] = running
        self._synced[row] = length


#: The store every series built without one reads until its first append
#: gives it a one-row store of its own: empty, and never written.
_NO_POINTS = SeriesStore()
_NO_POINTS.add_row()


class MetricSeries:
    """An append-only, time-ordered series of observations: one row of a
    :class:`SeriesStore` (a series built without one owns a one-row store,
    allocated at its first append — many series never get a point).

    Alongside the raw observations the row keeps prefix sums, so every
    windowed aggregate (:meth:`window_mean`, :meth:`window_stats`) is
    answered with two bisections and one subtraction instead of slicing a
    copy of the window — the Monitor and the straggler detector issue these
    queries every control interval for every node.

    The prefix sums are maintained *lazily*: appends touch only the raw
    columns, and the first aggregate query after a batch of appends extends
    the prefix sums over the new suffix (:meth:`SeriesStore.sync_prefix`).
    """

    __slots__ = ("_store", "_row")

    def __init__(self, store: Optional[SeriesStore] = None, row: int = 0) -> None:
        self._store = store if store is not None else _NO_POINTS
        self._row = row

    def __len__(self) -> int:
        return self._store._lengths[self._row]

    def append(self, time: float, value: float) -> None:
        """Append an observation; times must be non-decreasing."""
        store = self._store
        if store is _NO_POINTS:
            store = self._store = SeriesStore()
            self._row = store.add_row()
        row = self._row
        length = store._lengths[row]
        if length == store.capacity:
            store.reserve(length + 1)
        index = row * store.capacity + length
        times = store._times
        if length and time < times[index - 1]:
            raise ValueError(
                f"observations must be appended in time order "
                f"({time} < {times[index - 1]})"
            )
        times[index] = time
        store._values[index] = value
        store._lengths[row] = length + 1

    def truncate(self, length: int) -> None:
        """Drop every observation past the first ``length``.

        Rollback hook for coalesced commits: when a window is rescinded
        mid-flight (failure, straggler transition, membership change) the
        owning server cuts its series right after the entries that stay.
        Synced prefix sums past the cut are dropped with it.
        """
        store = self._store
        row = self._row
        if length < 0 or length > store._lengths[row]:
            raise ValueError(
                f"cannot truncate series of {store._lengths[row]} to {length}")
        store._lengths[row] = length
        if store._synced[row] > length:
            store._synced[row] = length

    def _slice(self) -> slice:
        """The row's observations as a slice of the store's flat columns."""
        base = self._row * self._store.capacity
        return slice(base, base + self._store._lengths[self._row])

    def _span(self, start: float, end: float) -> Tuple[int, int, int]:
        """Flat indices ``[lo, hi)`` of the observations in ``(start, end]``,
        and the row's first flat index."""
        store = self._store
        base = self._row * store.capacity
        top = base + store._lengths[self._row]
        times = store._times
        lo = bisect_right(times, start, base, top)
        return lo, bisect_right(times, end, lo, top), base

    def points(self) -> List[MetricPoint]:
        """All observations as :class:`MetricPoint` objects."""
        return [MetricPoint(t, v) for t, v in zip(self.times(), self.values())]

    def times(self) -> List[float]:
        """Observation times."""
        return self._store.times[self._slice()].tolist()

    def values(self) -> List[float]:
        """Observation values."""
        return self._store.values[self._slice()].tolist()

    def window(self, start: float, end: float) -> List[float]:
        """Values observed in the half-open interval ``(start, end]``.

        The interval is open at ``start``: an observation recorded exactly at
        ``start`` belongs to the *previous* window, so back-to-back windows
        ``(t0, t1]``, ``(t1, t2]`` partition the series without double
        counting.  Callers whose first window begins at the start of the run
        should pass ``start=-math.inf`` (see ``Monitor``) so observations
        recorded exactly at t=0 are not silently dropped.
        """
        lo, hi, _ = self._span(start, end)
        return self._store.values[lo:hi].tolist()

    def window_stats(self, start: float, end: float) -> Tuple[int, float]:
        """(count, sum) of the values in ``(start, end]`` without copying.

        The sum is ``prefix[hi] - prefix[lo]``, which can differ from a
        freshly computed ``sum(values[lo:hi])`` in the last ulp for windows
        not anchored at the start of the series — acceptable for monitoring
        aggregates (detection thresholds use ratios well away from 1 ulp).
        """
        lo, hi, base = self._span(start, end)
        if hi <= lo:
            return 0, 0.0
        store = self._store
        store.sync_prefix(self._row)
        prefix = store._prefix
        return hi - lo, prefix[hi - 1] - (prefix[lo - 1] if lo > base else 0.0)

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
        length = len(self)
        if not length:
            return None
        return self.total() / length

    def total(self) -> float:
        """Sum over the whole series."""
        row = self._slice()
        if row.stop == row.start:
            return 0.0
        self._store.sync_prefix(self._row)
        return self._store._prefix[row.stop - 1]


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

    def attach(self, name: str, tag: str, series: MetricSeries) -> None:
        """Register ``series`` — a row of a shared store — as ``(name, tag)``."""
        key = (name, tag)
        if key in self._series:
            raise ValueError(f"metric {name!r} already has a series for {tag!r}")
        self._series[key] = series
        self._tags_by_name.setdefault(name, []).append(tag)

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
        """Window means of metric ``name`` for every tag that has data in the window.

        Tags whose series read one row (servers in lock step share theirs)
        share one query.
        """
        means: Dict[str, float] = {}
        series = self._series
        answered: Dict[Tuple[SeriesStore, int], Optional[float]] = {}
        for tag in self.tags(name):
            one = series[(name, tag)]
            row = (one._store, one._row)
            if row in answered:
                mean = answered[row]
            else:
                mean = answered[row] = one.window_mean(start, end)
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
