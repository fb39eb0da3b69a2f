"""The AntDT Monitor.

The Monitor aggregates three kinds of information for straggler mitigation
(paper §V-D):

* **Application state** — batch processing time and batch size reported by the
  Agents on worker and server nodes.
* **Node state** — termination notifications and error codes, classified into
  retryable and unretryable errors.
* **Third-party information** — values pulled from other modules on demand:
  the cluster scheduler's job pending time (``"pending_time"``) and busy flag
  (``"cluster_busy"``), which gate KILL_RESTART and elastic scale-out.  The
  Controller and the Autoscaler read them here and nowhere else.

It offers sliding-window queries (the ``L_trans`` / ``L_per`` windows of the
AntDT-ND solution) on top of :class:`~repro.sim.metrics.MetricsRecorder`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..sim.failures import NodeFailure
from ..sim.metrics import MetricsRecorder, window_start

__all__ = ["Monitor"]


class Monitor:
    """Collects and aggregates observability data for the Controller."""

    WORKER_BPT = "worker_bpt"
    WORKER_BATCH = "worker_batch_size"
    WORKER_THROUGHPUT = "worker_throughput"
    SERVER_BPT = "server_bpt"

    def __init__(self, metrics: Optional[MetricsRecorder] = None) -> None:
        self.metrics = metrics if metrics is not None else MetricsRecorder()
        self._third_party: Dict[str, Callable[[], float]] = {}
        self._node_events: List[NodeFailure] = []
        self._workers: List[str] = []
        self._servers: List[str] = []

    # -- application state -------------------------------------------------------
    def report_worker(self, worker: str, bpt: float, batch_size: int, time: float) -> None:
        """Record one worker application-state report (BPT and batch size)."""
        if bpt < 0 or batch_size <= 0:
            raise ValueError("bpt must be non-negative and batch_size positive")
        if worker not in self._workers:
            self._workers.append(worker)
        self.metrics.record(self.WORKER_BPT, bpt, time, tag=worker)
        self.metrics.record(self.WORKER_BATCH, float(batch_size), time, tag=worker)
        throughput = batch_size / bpt if bpt > 0 else float("inf")
        self.metrics.record(self.WORKER_THROUGHPUT, throughput, time, tag=worker)

    def report_server(self, server: str, bpt: float, time: float) -> None:
        """Record one server application-state report (per-request handling time)."""
        if bpt < 0:
            raise ValueError("bpt must be non-negative")
        if server not in self._servers:
            self._servers.append(server)
        self.metrics.record(self.SERVER_BPT, bpt, time, tag=server)

    # -- node state ----------------------------------------------------------------
    def report_node_event(self, failure: NodeFailure) -> None:
        """Record a node termination notification."""
        self._node_events.append(failure)

    def node_events(self, node: Optional[str] = None) -> List[NodeFailure]:
        """Node terminations seen so far, optionally for a single node."""
        if node is None:
            return list(self._node_events)
        return [event for event in self._node_events if event.node_name == node]

    # -- third-party information -----------------------------------------------------
    def register_third_party(self, key: str, provider: Callable[[], float]) -> None:
        """Register a callable that supplies a third-party value on demand.

        Flags (e.g. ``"cluster_busy"``) come back as 0.0 / 1.0.
        """
        self._third_party[key] = provider

    def third_party(self, key: str, default: Optional[float] = None) -> Optional[float]:
        """Fetch a third-party value (e.g. ``"pending_time"``)."""
        provider = self._third_party.get(key)
        if provider is None:
            return default
        return float(provider())

    # -- aggregated queries ------------------------------------------------------------
    @property
    def known_workers(self) -> List[str]:
        """Workers that have reported at least once."""
        return list(self._workers)

    @property
    def known_servers(self) -> List[str]:
        """Servers that have reported at least once."""
        return list(self._servers)

    @staticmethod
    def _window_start(window_s: float, now: float) -> float:
        """Left edge of the sliding window ending at ``now``.

        Delegates to :func:`repro.sim.metrics.window_start` so every windowed
        consumer (this Monitor, the failure injector) shares the same
        half-open ``(start, now]`` semantics, including the first-window
        widening that keeps a t=0 observation from being silently dropped.
        """
        return window_start(window_s, now)

    def node_events_between(self, window_s: float, now: float,
                            node: Optional[str] = None) -> List[NodeFailure]:
        """Node terminations inside the sliding window ``(now - window_s, now]``.

        Uses the same half-open boundary semantics (and first-window widening)
        as the application-state queries below, so a failure reported exactly
        at t=0 is attributed to the first window rather than lost.
        """
        start = window_start(window_s, now)
        return [
            event for event in self._node_events
            if start < event.time <= now and (node is None or event.node_name == node)
        ]

    def worker_bpt_means(self, window_s: float, now: float) -> Dict[str, float]:
        """Sliding-window mean BPT per worker over ``(now - window_s, now]``."""
        return self.metrics.per_tag_window_means(
            self.WORKER_BPT, self._window_start(window_s, now), now)

    def server_bpt_means(self, window_s: float, now: float) -> Dict[str, float]:
        """Sliding-window mean BPT per server."""
        return self.metrics.per_tag_window_means(
            self.SERVER_BPT, self._window_start(window_s, now), now)

    def worker_throughputs(self, window_s: float, now: float) -> Dict[str, float]:
        """Sliding-window mean throughput (samples/s) per worker — the v_i of Eq. 3."""
        return self.metrics.per_tag_window_means(
            self.WORKER_THROUGHPUT, self._window_start(window_s, now), now)

    def worker_batch_sizes(self, window_s: float, now: float) -> Dict[str, float]:
        """Sliding-window mean batch size per worker."""
        return self.metrics.per_tag_window_means(
            self.WORKER_BATCH, self._window_start(window_s, now), now)
