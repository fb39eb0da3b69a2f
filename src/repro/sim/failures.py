"""Node termination reasons and the failure history of a run.

:class:`ErrorCode` names why a node terminated: a proactive KILL_RESTART, a
network error, an eviction, a machine fault, or a user error.  The simulated
cluster scheduler relaunches the node whatever the code.
:class:`FailureInjector` is the run's failure history: the scheduler records
every node termination there, and the scenario fingerprint reads it back.
"""

from __future__ import annotations

import enum
from bisect import insort
from dataclasses import dataclass
from typing import List

__all__ = [
    "ErrorCode",
    "NodeFailure",
    "FailureInjector",
]


class ErrorCode(enum.Enum):
    """Node termination reasons observed by the Monitor."""

    #: Proactive termination requested by the Controller (KILL_RESTART).
    PROACTIVE_KILL = "proactive_kill"
    #: Transient network failure between a node and its peers.
    NETWORK_ERROR = "network_error"
    #: The pod was evicted/preempted by the cluster scheduler.
    JOB_EVICTION = "job_eviction"
    #: Hardware fault on the host machine.
    MACHINE_FAILURE = "machine_failure"
    #: User configuration error (bad hyper-parameters, missing files).
    CONFIGURATION_ERROR = "configuration_error"
    #: Programming error in the user's training code.
    PROGRAMMING_ERROR = "programming_error"


@dataclass(frozen=True)
class NodeFailure:
    """A single node-termination occurrence."""

    node_name: str
    code: ErrorCode
    time: float


class FailureInjector:
    """Every node termination of a run, in time order."""

    def __init__(self) -> None:
        self.history: List[NodeFailure] = []

    def record(self, node_name: str, code: ErrorCode, time: float) -> NodeFailure:
        """Record a failure occurrence and return it.

        ``time`` must be non-negative: the run starts at t=0.  The history is
        kept sorted by time, so traces whose events are injected by
        concurrent simulation processes still read back in order.
        """
        if time < 0:
            raise ValueError("failure time must be non-negative (the run starts at t=0)")
        failure = NodeFailure(node_name=node_name, code=code, time=float(time))
        history = self.history
        if history and failure.time < history[-1].time:
            insort(history, failure, key=lambda event: event.time)
        else:
            history.append(failure)
        return failure
