"""Bounded per-server admission — queue-based load leveling with a shed path.

Each serving target gets a bounded in-flight budget (``queue_capacity``
requests admitted but not yet acknowledged).  A request routed to a full
server is shed immediately with an ``"overload"`` degraded response —
the 429 path — instead of being parked on an unbounded queue, so a burst
levels out at bounded latency rather than collapsing the tier.

The ledger counts *admission to acknowledgement* using the parameter
server's completion events, which fire at the same simulation time in
both engine coalescing modes; the ledger is therefore mode-invariant and
safe to fingerprint.
"""

from __future__ import annotations

from typing import Dict

__all__ = ["AdmissionLedger"]


class AdmissionLedger:
    """Tracks in-flight request counts against a per-server bound."""

    __slots__ = ("capacity", "_inflight", "_peak")

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self._inflight: Dict[str, int] = {}
        self._peak: Dict[str, int] = {}

    def inflight(self, server: str) -> int:
        return self._inflight.get(server, 0)

    def total_inflight(self) -> int:
        return sum(self._inflight.values())

    def try_admit(self, server: str) -> bool:
        """Admit one request to ``server`` unless its budget is full."""
        depth = self._inflight.get(server, 0)
        if depth >= self.capacity:
            return False
        depth += 1
        self._inflight[server] = depth
        if depth > self._peak.get(server, 0):
            self._peak[server] = depth
        return True

    def release(self, server: str) -> None:
        """Acknowledge one in-flight request on ``server``."""
        depth = self._inflight.get(server, 0)
        if depth <= 0:
            raise ValueError(f"release without admission on {server!r}")
        self._inflight[server] = depth - 1

    def peak_inflight(self) -> int:
        """Highest single-server depth ever observed."""
        return max(self._peak.values(), default=0)
