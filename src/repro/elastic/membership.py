"""Elastic membership primitives shared by the job layers.

The membership log is the behavioural record of elastic scaling: every
requested join, completed join and departure is appended with its simulation
time, and the scenario fingerprint embeds the log verbatim — membership churn
is part of what a golden trace pins.

:data:`SCALE_IN` is the interrupt cause delivered to a worker process that is
being *gracefully retired* (as opposed to killed): the worker drains — its
in-flight samples are requeued with the data allocator, its queued pushes are
purged from the server queues, its acknowledgement latch is abandoned — and
then leaves the simulation for good instead of riding the failover path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

__all__ = ["SCALE_IN", "ScaleInSignal", "MembershipEvent", "MembershipLog",
           "JOIN_REQUESTED", "JOINED", "LEFT", "newest"]


class ScaleInSignal:
    """Sentinel interrupt cause: 'drain and leave', not 'die and relaunch'."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<SCALE_IN>"


#: The singleton scale-in interrupt cause.
SCALE_IN = ScaleInSignal()

#: Membership event kinds, in lifecycle order.
JOIN_REQUESTED = "join_requested"
JOINED = "joined"
LEFT = "left"


def newest(names: Sequence[str], count: int) -> List[str]:
    """The ``count`` most recently joined of ``names`` (join-ordered), newest first.

    The LIFO scale-in choice of both tiers.
    """
    if count <= 0:
        return []
    return list(reversed(names[-count:]))


@dataclass(frozen=True)
class MembershipEvent:
    """One elastic membership transition of one node."""

    time_s: float
    kind: str  # join_requested | joined | left
    node: str

    def __post_init__(self) -> None:
        if self.kind not in (JOIN_REQUESTED, JOINED, LEFT):
            raise ValueError(f"unknown membership event kind {self.kind!r}")

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form (JSON-safe, fingerprint-embeddable)."""
        return {"time_s": self.time_s, "kind": self.kind, "node": self.node}


class MembershipLog:
    """Append-only record of a job's elastic membership transitions."""

    def __init__(self) -> None:
        self._events: List[MembershipEvent] = []

    def __len__(self) -> int:
        return len(self._events)

    def __bool__(self) -> bool:
        return bool(self._events)

    def __iter__(self):
        return iter(self._events)

    def record(self, time_s: float, kind: str, node: str) -> MembershipEvent:
        """Append one transition and return it."""
        event = MembershipEvent(time_s=float(time_s), kind=kind, node=node)
        self._events.append(event)
        return event

    @property
    def events(self) -> List[MembershipEvent]:
        """Every transition recorded so far, in simulation order."""
        return list(self._events)

    def nodes(self, kind: str) -> List[str]:
        """Node names of every event of one kind, in order."""
        return [event.node for event in self._events if event.kind == kind]

    def counts(self) -> Dict[str, int]:
        """Events per kind."""
        counts: Dict[str, int] = {}
        for event in self._events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts
