"""Per-tenant token-bucket throttling.

The classic rate-limiting pattern: each tenant owns a bucket that refills
continuously at its sustained ceiling and caps at a configurable burst
allowance.  A request arriving to an empty bucket is shed as
``"throttled"`` before it reaches any server — throttling is an admission
decision at the edge, distinct from per-server ``"overload"`` shedding.

The bucket is deterministic: it refills lazily from elapsed simulation
time at each arrival, so its state is a pure function of the arrival
trace and never depends on engine scheduling order.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["TokenBucket", "bucket_for"]


class TokenBucket:
    """Deterministic token bucket (``rate`` tokens/s, ``capacity`` cap)."""

    __slots__ = ("rate", "capacity", "_tokens", "_last_s")

    def __init__(self, rate: float, capacity: float, start_s: float = 0.0):
        if rate <= 0:
            raise ValueError("rate must be positive")
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.rate = rate
        self.capacity = capacity
        self._tokens = capacity
        self._last_s = start_s

    def try_acquire(self, now_s: float) -> bool:
        """Refill from elapsed time, then take one token if available."""
        if now_s > self._last_s:
            self._tokens = min(self.capacity,
                               self._tokens + (now_s - self._last_s) * self.rate)
            self._last_s = now_s
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False


def bucket_for(rate_limit_rps: Optional[float], burst_s: float,
               start_s: float) -> Optional[TokenBucket]:
    """Build a tenant's bucket, or ``None`` when the tenant is unthrottled."""
    if rate_limit_rps is None:
        return None
    return TokenBucket(rate=rate_limit_rps,
                       capacity=max(1.0, rate_limit_rps * burst_s),
                       start_s=start_s)
