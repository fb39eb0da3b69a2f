"""The AntDT Monitor.

The Monitor aggregates the information straggler mitigation reads (paper
§V-D):

* **Application state** — batch processing time and throughput (batch size
  over BPT) reported by the Agents on worker nodes, and each server's own
  ``server_bpt`` series: the server records every request's handling time
  there, one point per acknowledged push, and runs no Agent.
* **Third-party information** — values pulled from other modules on demand:
  the cluster scheduler's job pending time (``"pending_time"``) and busy flag
  (``"cluster_busy"``), which gate KILL_RESTART and elastic scale-out.  The
  Controller and the Autoscaler read them here and nowhere else.

Node state (terminations and their error codes) is recorded once, in the
cluster scheduler's :class:`~repro.sim.failures.FailureInjector` history.

It offers sliding-window queries (the ``L_trans`` / ``L_per`` windows of the
AntDT-ND solution) on top of :class:`~repro.sim.metrics.MetricsRecorder`.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..sim.metrics import MetricsRecorder, window_start

__all__ = ["Monitor"]


class Monitor:
    """Collects and aggregates observability data for the Controller."""

    WORKER_BPT = "worker_bpt"
    WORKER_THROUGHPUT = "worker_throughput"
    SERVER_BPT = "server_bpt"

    def __init__(self, metrics: Optional[MetricsRecorder] = None) -> None:
        self.metrics = metrics if metrics is not None else MetricsRecorder()
        self._third_party: Dict[str, Callable[[], float]] = {}

    # -- application state -------------------------------------------------------
    def report_worker(self, worker: str, bpt: float, batch_size: int, time: float) -> None:
        """Record one worker application-state report: its BPT, and its
        throughput at the reported batch size."""
        if bpt < 0 or batch_size <= 0:
            raise ValueError("bpt must be non-negative and batch_size positive")
        self.metrics.record(self.WORKER_BPT, bpt, time, tag=worker)
        throughput = batch_size / bpt if bpt > 0 else float("inf")
        self.metrics.record(self.WORKER_THROUGHPUT, throughput, time, tag=worker)

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
    @staticmethod
    def _window_start(window_s: float, now: float) -> float:
        """Left edge of the sliding window ending at ``now``.

        Delegates to :func:`repro.sim.metrics.window_start`: half-open
        ``(start, now]`` semantics, with the first-window widening that keeps
        a t=0 observation from being silently dropped.
        """
        return window_start(window_s, now)

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
