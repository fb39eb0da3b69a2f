"""Declarative specification of an open-loop serving workload.

A :class:`ServingSpec` describes the request traffic a scenario drives
against the parameter-server tier *while training runs*: one or more
tenants, each with a deterministic seeded arrival shape (uniform Poisson,
diurnal, bursty, or a flash crowd), an offered rate, and an optional
token-bucket rate limit; plus the knobs shared across tenants — the serving
window, the read/write mix, the Zipf key-popularity exponent, and the
bounded per-server admission depth (queue-based load leveling: beyond it a
request is shed with a 429-style degraded response, never parked on an
unbounded queue).

Like every scenario ingredient the spec serializes through the one spec
codec (:class:`~repro.codec.SpecCodec`), so serving scenarios can be named,
content-addressed by the result store, and pinned to golden traces.  The
module is deliberately dependency-light (no simulation imports): it is
pulled in by :mod:`repro.scenarios.spec`, while the runtime lives in
:mod:`repro.serving.driver`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..codec import SpecCodec

__all__ = ["TenantSpec", "ServingSpec", "NO_SERVING", "SERVING_PRESETS"]

#: Valid arrival-trace shapes (see :mod:`repro.serving.arrivals`).
ARRIVAL_SHAPES = ("uniform", "diurnal", "bursty", "flash-crowd")


@dataclass(frozen=True)
class TenantSpec(SpecCodec):
    """One tenant class of the serving workload.

    Attributes
    ----------
    name:
        Tenant name; also the serving pseudo-worker suffix requests carry.
    rate_rps:
        Mean *offered* arrival rate over the serving window (open loop: the
        tenant keeps sending at this rate regardless of what comes back).
    shape:
        Arrival-trace shape: ``"uniform"`` (homogeneous Poisson),
        ``"diurnal"`` (sinusoidal day curve), ``"bursty"`` (on/off duty
        cycle at constant mean), or ``"flash-crowd"`` (one ramped spike on
        a quiet baseline).
    rate_limit_rps:
        Token-bucket throttle: sustained admission ceiling for this tenant
        (``None`` disables throttling).  Requests arriving with the bucket
        empty are shed as ``"throttled"`` before touching any server.
    burst_s:
        Bucket capacity in *seconds at the sustained rate*: the bucket
        holds ``rate_limit_rps * burst_s`` tokens, so a tenant may burst
        that many requests above its sustained ceiling.
    """

    name: str
    rate_rps: float
    shape: str = "uniform"
    rate_limit_rps: Optional[float] = None
    burst_s: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a tenant needs a non-empty name")
        if self.rate_rps <= 0:
            raise ValueError("rate_rps must be positive")
        if self.shape not in ARRIVAL_SHAPES:
            raise ValueError(f"unknown arrival shape {self.shape!r}; "
                             f"available: {ARRIVAL_SHAPES}")
        if self.rate_limit_rps is not None and self.rate_limit_rps <= 0:
            raise ValueError("rate_limit_rps must be positive (or None)")
        if self.burst_s <= 0:
            raise ValueError("burst_s must be positive")


@dataclass(frozen=True)
class ServingSpec(SpecCodec):
    """The serving workload of one scenario (falsy when no tenants).

    Attributes
    ----------
    tenants:
        The tenant classes sending traffic.  An empty tuple (the default,
        :data:`NO_SERVING`) disables the serving tier entirely.
    start_s / duration_s:
        The serving window in simulation time.  Arrivals stop at
        ``start_s + duration_s``; requests already admitted drain normally.
        A window outlasting the training run is cut at the run's end.
    read_fraction:
        Fraction of requests that are parameter *pulls* — reads may fan out
        to a shard's warm standbys, writes go to the primary only.
    request_bytes:
        Payload bytes per request (serving requests are far lighter than a
        training gradient push; the per-request device overhead dominates).
    zipf_s:
        Zipf exponent of the key-popularity distribution.  Keys are ranked
        hottest-first and mapped block-wise onto the shard universe sorted
        by declared shard weight, so popularity lands on the scenario's
        ``hot_shards``.
    num_keys:
        Size of the key universe the Zipf distribution draws from.
    queue_capacity:
        Bounded per-server admission depth: requests in flight to one
        server beyond this are shed as ``"overload"`` (load leveling with
        graceful degradation — the queue never grows without bound).
    window_s:
        Sliding window of the SLO snapshot fed to the ``serving-slo``
        autoscaler policy (p99 latency, shed rate, arrival rate).
    """

    tenants: Tuple[TenantSpec, ...] = ()
    start_s: float = 0.0
    duration_s: float = 60.0
    read_fraction: float = 0.95
    request_bytes: float = 2048.0
    zipf_s: float = 1.1
    num_keys: int = 4096
    queue_capacity: int = 16
    window_s: float = 20.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "tenants", tuple(self.tenants))
        names = [tenant.name for tenant in self.tenants]
        if len(set(names)) != len(names):
            raise ValueError("tenant names must be unique")
        if self.start_s < 0:
            raise ValueError("start_s must be non-negative")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ValueError("read_fraction must lie in [0, 1]")
        if self.request_bytes <= 0:
            raise ValueError("request_bytes must be positive")
        if self.zipf_s <= 0:
            raise ValueError("zipf_s must be positive")
        if self.num_keys < 1:
            raise ValueError("num_keys must be at least 1")
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be at least 1")
        if self.window_s <= 0:
            raise ValueError("window_s must be positive")

    def __bool__(self) -> bool:
        return bool(self.tenants)


#: The inert default: no tenants, no serving tier (falsy).
NO_SERVING = ServingSpec()


#: Named serving presets for the orchestrator's ``--serving`` grid axis.
#: Rates are sized for the small scale's 3-server tier (~100 req/s per
#: server of pure serving capacity before training contention).
SERVING_PRESETS: Dict[str, ServingSpec] = {
    "off": NO_SERVING,
    "steady": ServingSpec(
        tenants=(
            TenantSpec(name="web", rate_rps=80.0, shape="diurnal"),
            TenantSpec(name="batch", rate_rps=30.0, shape="uniform",
                       rate_limit_rps=40.0, burst_s=2.0),
        ),
        start_s=5.0, duration_s=40.0,
    ),
    "bursty": ServingSpec(
        tenants=(
            TenantSpec(name="web", rate_rps=60.0, shape="uniform"),
            TenantSpec(name="spiky", rate_rps=220.0, shape="bursty",
                       rate_limit_rps=120.0, burst_s=0.5),
        ),
        start_s=5.0, duration_s=40.0, queue_capacity=12,
    ),
    "flash": ServingSpec(
        tenants=(
            TenantSpec(name="web", rate_rps=50.0, shape="flash-crowd"),
        ),
        start_s=5.0, duration_s=45.0,
    ),
}
