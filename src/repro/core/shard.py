"""Shards and shard states for the Stateful Dynamic Data Sharding service.

A shard is a contiguous range of sample indices described by just two
integers (start offset and length), as in the paper: keeping shards tiny on
the wire is what makes the DDS cheap enough to run at hundreds of nodes.
Each shard carries a state (TODO / DOING / DONE) that the DDS uses to
guarantee data integrity across failovers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

__all__ = ["ShardState", "Shard", "SampleRange"]


class ShardState(enum.Enum):
    """Lifecycle state of a data shard."""

    #: Ready for assignment.
    TODO = "todo"
    #: Currently being processed by exactly one worker.
    DOING = "doing"
    #: All of the shard's batches have been pushed to the servers.
    DONE = "done"


@dataclass(frozen=True)
class SampleRange:
    """A contiguous range of sample indices handed to a worker as one batch."""

    offset: int
    length: int
    epoch: int = 0
    shard_id: Optional[int] = None

    def __post_init__(self) -> None:
        if self.offset < 0 or self.length <= 0:
            raise ValueError("a sample range requires offset >= 0 and length > 0")

    @property
    def end(self) -> int:
        """Exclusive end offset."""
        return self.offset + self.length


@dataclass
class Shard:
    """One unit of data assignment managed by the DDS.

    Attributes
    ----------
    shard_id:
        Unique identifier within the job.
    offset / length:
        The sample range covered by this shard.
    epoch:
        Which pass over the dataset this shard belongs to.
    state:
        TODO / DOING / DONE.
    owner:
        The worker currently processing the shard (DOING only).
    completed:
        Number of samples of the shard whose gradients have been accepted.
    """

    shard_id: int
    offset: int
    length: int
    epoch: int = 0
    state: ShardState = ShardState.TODO
    owner: Optional[str] = None
    completed: int = 0

    def __post_init__(self) -> None:
        if self.offset < 0 or self.length <= 0:
            raise ValueError("a shard requires offset >= 0 and length > 0")
        if not 0 <= self.completed <= self.length:
            raise ValueError("completed must lie in [0, length]")

    @property
    def end(self) -> int:
        """Exclusive end offset."""
        return self.offset + self.length

    @property
    def remaining(self) -> int:
        """Samples whose gradients have not been accepted yet."""
        return self.length - self.completed

    def assign(self, worker: str) -> None:
        """Move the shard to DOING under ``worker``."""
        if self.state is not ShardState.TODO:
            raise ValueError(f"shard {self.shard_id} is {self.state.value}, cannot assign")
        self.state = ShardState.DOING
        self.owner = worker

    def confirm(self, num_samples: int) -> None:
        """Record that ``num_samples`` more samples were accepted by the servers."""
        if self.state is not ShardState.DOING:
            raise ValueError(f"shard {self.shard_id} is {self.state.value}, cannot confirm work")
        if num_samples < 0 or self.completed + num_samples > self.length:
            raise ValueError("confirmed samples exceed the shard length")
        self.completed += num_samples
        if self.completed == self.length:
            self.state = ShardState.DONE
            self.owner = None

    def release(self) -> int:
        """Return the shard's unfinished tail to TODO; returns the tail length.

        Called when the owning worker fails over or its gradients are dropped:
        the confirmed prefix stays done (its updates already live on the
        servers), the rest goes back to the queue.
        """
        if self.state is not ShardState.DOING:
            raise ValueError(f"shard {self.shard_id} is {self.state.value}, cannot release")
        remaining = self.remaining
        self.offset += self.completed
        self.length = remaining
        self.completed = 0
        self.owner = None
        self.state = ShardState.TODO
        return remaining
