"""Network cost model for worker/server and AllReduce communication.

The communication term :math:`T^m_i` of the paper's BPT decomposition is the
time a worker spends pulling the latest parameters from the servers and
pushing its local gradients back.  We model a link with a fixed per-message
latency and a finite bandwidth, optionally degraded by a contention model
(e.g. a server whose NIC is saturated by a co-located job).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .contention import ContentionModel

__all__ = ["NetworkModel", "ring_allreduce_time", "parameter_bytes"]

_BITS_PER_BYTE = 8.0


@dataclass
class NetworkModel:
    """A point-to-point link description.

    Attributes
    ----------
    latency_s:
        One-way latency per message, in seconds.
    bandwidth_gbps:
        Link bandwidth in gigabits per second.
    """

    latency_s: float = 0.001
    bandwidth_gbps: float = 10.0

    def __post_init__(self) -> None:
        if self.latency_s < 0:
            raise ValueError("latency must be non-negative")
        if self.bandwidth_gbps <= 0:
            raise ValueError("bandwidth must be positive")

    @property
    def bytes_per_second(self) -> float:
        """Usable bytes per second on this link."""
        return self.bandwidth_gbps * 1e9 / _BITS_PER_BYTE

    def transfer_time(self, nbytes: float, contention: Optional[ContentionModel] = None,
                      now: float = 0.0) -> float:
        """Time to move ``nbytes`` over the link.

        ``contention`` (if given) multiplies the transfer portion by its
        slowdown factor — a congested server NIC slows pushes and pulls to
        that server, which is exactly the :math:`T^m_i` straggler the paper's
        server-side KILL_RESTART addresses.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        factor = contention.slowdown(now) if contention is not None else 1.0
        return self.latency_s + nbytes * factor / self.bytes_per_second


def parameter_bytes(num_parameters: int, dtype_bytes: int = 4) -> float:
    """Size in bytes of a dense gradient/parameter tensor."""
    if num_parameters < 0:
        raise ValueError("num_parameters must be non-negative")
    return float(num_parameters) * dtype_bytes


def ring_allreduce_time(num_parameters: int, num_workers: int, network: NetworkModel,
                        dtype_bytes: int = 4) -> float:
    """Cost of a ring all-reduce over ``num_workers`` nodes.

    The standard ring algorithm moves ``2 * (n - 1) / n`` of the tensor over
    the slowest link and pays ``2 * (n - 1)`` latency hops.  Used by the DDP
    and AntDT-DD experiments (paper Fig. 15).
    """
    if num_workers <= 0:
        raise ValueError("num_workers must be positive")
    if num_workers == 1:
        return 0.0
    nbytes = parameter_bytes(num_parameters, dtype_bytes)
    hops = 2 * (num_workers - 1)
    volume = 2.0 * (num_workers - 1) / num_workers * nbytes
    return hops * network.latency_s + volume / network.bytes_per_second
