"""Property: the column SLO tracker answers like the deque-based reference.

:class:`ReferenceSLOTracker` is the serving tier's earlier tracker, kept
here as the oracle: per-event ``on_arrival``/``on_shed``/``on_completion``
calls, cumulative per-tenant lists and three window deques pruned lazily at
snapshot time.  The property feeds one random request stream to both — the
reference through its per-event methods, :class:`repro.serving.SLOTracker`
through its columns, written as the serving driver writes them — and
requires equal ``snapshot`` dicts at every snapshot and equal ``finalize``
summaries, latency digest included.  The registry's goldens take only a
handful of snapshots, so this is what pins the window arithmetic.
"""

from __future__ import annotations

import math
from collections import defaultdict, deque
from operator import itemgetter
from typing import DefaultDict, Deque, Dict, List, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenarios.fingerprint import series_digest
from repro.serving import SLOTracker
from repro.serving.slo import ADMITTED, SHED_REASONS

# ---------------------------------------------------------------------------
# The reference: the deque-based tracker, per-event methods and all.
# ---------------------------------------------------------------------------


def _nearest_rank(sorted_values: List[float], quantile: float) -> float:
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


class ReferenceSLOTracker:
    """Per-tenant serving counters plus a sliding SLO window."""

    def __init__(self, window_s: float):
        self.window_s = window_s
        self._tenants: DefaultDict[str, _TenantStats] = defaultdict(_TenantStats)
        self._win_arrivals: Deque[float] = deque()
        self._win_sheds: Deque[float] = deque()
        self._win_latencies: Deque[Tuple[float, float]] = deque()

    def on_arrival(self, tenant: str, now_s: float) -> None:
        self._tenants[tenant].arrivals += 1
        self._win_arrivals.append(now_s)

    def on_shed(self, tenant: str, now_s: float, reason: str) -> None:
        self._tenants[tenant].shed[reason] += 1
        self._win_sheds.append(now_s)

    def on_completion(self, tenant: str, ack_s: float, latency_s: float) -> None:
        stats = self._tenants[tenant]
        stats.completed += 1
        stats.latencies.append(latency_s)
        stats.ack_times.append(ack_s)
        self._win_latencies.append((ack_s, latency_s))

    def _prune(self, now_s: float) -> None:
        horizon = now_s - self.window_s
        for window in (self._win_arrivals, self._win_sheds):
            while window and window[0] < horizon:
                window.popleft()
        while self._win_latencies and self._win_latencies[0][0] < horizon:
            self._win_latencies.popleft()

    def snapshot(self, now_s: float, inflight: int) -> Dict[str, float]:
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

    def finalize(self, elapsed_s: float, in_flight_at_end: int) -> Dict[str, object]:
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


# ---------------------------------------------------------------------------
# The property
# ---------------------------------------------------------------------------

TENANTS = ("web", "batch", "idle")

#: Clock steps: zero for tied times, and sums that round.
STEPS = (0.0, 0.0, 0.1, 0.25, 1.0 / 3.0, 1.0, 2.5, 7.0)

#: One step of a stream: the clock advances, then an arrival (tenant,
#: outcome), the acknowledgement of the ``pick``-th request in flight, a
#: snapshot, or a snapshot one window after the ``pick``-th recorded time
#: (when that is not in the past), whose horizon lands on that time.
_EVENTS = st.one_of(
    st.tuples(st.just("arrival"), st.sampled_from(TENANTS[:2]),
              st.sampled_from((ADMITTED, ADMITTED, 1, 2))),
    st.tuples(st.just("ack"), st.integers(min_value=0, max_value=1_000)),
    st.tuples(st.just("snapshot")),
    st.tuples(st.just("edge"), st.integers(min_value=0, max_value=1_000)),
)


@settings(max_examples=300, deadline=None)
@given(window_s=st.sampled_from((1.0, 2.5, 10.0)),
       stream=st.lists(st.tuples(st.sampled_from(STEPS), _EVENTS), max_size=120),
       elapsed_s=st.sampled_from((0.0, 3.0, 50.0)))
def test_column_tracker_matches_the_deque_reference(window_s, stream, elapsed_s):
    reference = ReferenceSLOTracker(window_s)
    tracker = SLOTracker(window_s)
    # Snapshots before the columns exist answer too, with no arrivals.
    assert tracker.snapshot(0.0, 0) == reference.snapshot(0.0, 0)
    arrivals = sum(1 for _, event in stream if event[0] == "arrival")
    tracker.start(TENANTS, [arrivals] * len(TENANTS))
    now = 0.0
    in_flight: List[Tuple[int, int, float]] = []
    recorded: List[float] = []
    admitted = completed = 0
    for step, event in stream:
        now += step
        if event[0] == "edge" and recorded:
            now = max(now, recorded[event[1] % len(recorded)] + window_s)
        if event[0] in ("arrival", "ack"):
            recorded.append(now)
        if event[0] == "arrival":
            _, name, outcome = event
            tenant = TENANTS.index(name)
            index = tracker.counts[tenant]
            reference.on_arrival(name, now)
            tracker.handled[tenant][index] = now
            tracker.counts[tenant] = index + 1
            if outcome == ADMITTED:
                admitted += 1
                in_flight.append((tenant, index, now))
            else:
                reference.on_shed(name, now, SHED_REASONS[outcome - 1])
                tracker.outcomes[tenant][index] = outcome
        elif event[0] == "ack":
            if in_flight:
                # Any request in flight: acknowledgements out of arrival order.
                tenant, index, handled = in_flight.pop(event[1] % len(in_flight))
                reference.on_completion(TENANTS[tenant], now, now - handled)
                tracker.acks[tenant][index] = now
                completed += 1
        else:
            inflight = admitted - completed
            assert tracker.snapshot(now, inflight) == reference.snapshot(now, inflight)
    summary = tracker.finalize(elapsed_s, admitted, completed)
    assert summary == reference.finalize(elapsed_s, admitted - completed)
    assert all(type(summary[key]) is int for key in ("arrivals", "completed",
                                                     "in_flight_at_end"))
