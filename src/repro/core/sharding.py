"""Data allocation: the Stateful Dynamic Data Sharding service and baselines.

Two allocators implement the same :class:`DataAllocator` interface so that
every training architecture (PS BSP/ASP, AllReduce) and every straggler
mitigation method can swap them freely:

* :class:`StatefulDDS` — the paper's Stateful Dynamic Data Sharding service.
  The dataset is split into ``K = ceil(N / (B * M))`` shards of ``B * M``
  samples; shards live in a global queue with TODO/DOING/DONE states.  Fast
  workers naturally consume more shards; on failover the unfinished part of a
  worker's DOING shard goes back into the queue, which yields the
  "at-least-once" guarantee.
* :class:`StaticPartition` — the classic even partition used by the native
  ASP baseline: every worker owns a fixed ``N / n`` slice, so the job finishes
  only when the slowest worker finishes its slice.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Sequence

import numpy as np

from .shard import SampleRange, Shard, ShardState
from .shuffler import ShardShuffler

__all__ = ["DataAllocator", "StatefulDDS", "StaticPartition"]


class DataAllocator:
    """Interface between the data-allocation service and the workers.

    The worker-facing protocol is deliberately tiny (the paper's point is
    that the framework hides data allocation from the mitigation methods):

    * :meth:`next_range` — give me up to ``max_samples`` samples to process.
    * :meth:`mark_done` — the servers accepted the gradients of this range.
    * :meth:`return_range` — the gradients of this range were dropped
      (backup workers) and the samples must be reprocessed.
    * :meth:`on_worker_failover` — the worker died; requeue its in-flight work.
    """

    #: Wall-clock cost charged to the worker for one allocator round trip.
    op_cost_s: float = 0.0
    #: Cost of the most recent allocator call (0 when it was a local operation).
    last_op_cost_s: float = 0.0
    #: Samples per epoch and the number of epochs; every allocator sets both.
    num_samples: int
    epochs: int

    def register_worker(self, worker: str) -> None:
        """Declare a worker before it requests data (optional for DDS)."""

    def next_range(self, worker: str, max_samples: int) -> Optional[SampleRange]:
        """Return the next range for ``worker`` or None when no data is available."""
        raise NotImplementedError

    def mark_done(self, worker: str, sample_range: SampleRange) -> None:
        """Confirm that the range's gradients were accepted by the servers."""
        raise NotImplementedError

    def return_range(self, worker: str, sample_range: SampleRange) -> None:
        """Give back a dispatched range whose gradients were dropped."""
        raise NotImplementedError

    def on_worker_failover(self, worker: str) -> int:
        """Requeue all in-flight work of ``worker``; returns samples requeued."""
        raise NotImplementedError

    @property
    def exhausted(self) -> bool:
        """True when every sample of every epoch has been confirmed."""
        raise NotImplementedError

    @property
    def total_samples(self) -> int:
        """Samples over all epochs."""
        return self.num_samples * self.epochs

    def consumed_counts(self) -> Dict[str, int]:
        """Samples confirmed per worker (paper Fig. 3 / Fig. 16)."""
        raise NotImplementedError

    @property
    def total_overhead_s(self) -> float:
        """Cumulative wall-clock overhead charged for allocator round trips."""
        return 0.0


class StatefulDDS(DataAllocator):
    """The Stateful Dynamic Data Sharding service.

    Parameters
    ----------
    num_samples:
        Samples per epoch (``N``).
    global_batch_size:
        The fixed global batch size ``B``.
    batches_per_shard:
        Shard granularity ``M``; each shard covers ``B * M`` samples.
    epochs:
        Number of passes over the dataset.
    shuffler:
        Two-level shard shuffler; ``None`` disables shuffling.
    op_cost_s:
        Wall-clock cost of one DDS round trip (shard fetch or state report).
    track_coverage:
        Keep a per-sample counter of how many times each sample was confirmed
        (used by the data-integrity tests; costs ``N`` ints of memory).
    samples_per_shard:
        Optional override of the shard length.  By default a shard covers
        ``global_batch_size * batches_per_shard`` samples as in the paper;
        scaled-down experiments may pass a smaller value so that the DDS keeps
        a useful assignment granularity despite the reduced iteration count.
    """

    def __init__(
        self,
        num_samples: int,
        global_batch_size: int,
        batches_per_shard: int = 100,
        epochs: int = 1,
        shuffler: Optional[ShardShuffler] = None,
        op_cost_s: float = 0.005,
        track_coverage: bool = True,
        samples_per_shard: Optional[int] = None,
    ) -> None:
        if num_samples <= 0:
            raise ValueError("num_samples must be positive")
        if global_batch_size <= 0:
            raise ValueError("global_batch_size must be positive")
        if batches_per_shard <= 0:
            raise ValueError("batches_per_shard must be positive")
        if epochs <= 0:
            raise ValueError("epochs must be positive")
        if op_cost_s < 0:
            raise ValueError("op_cost_s must be non-negative")

        self.num_samples = int(num_samples)
        self.global_batch_size = int(global_batch_size)
        self.batches_per_shard = int(batches_per_shard)
        self.epochs = int(epochs)
        self.shuffler = shuffler if shuffler is not None else ShardShuffler(seed=0)
        self.op_cost_s = float(op_cost_s)

        if samples_per_shard is not None and samples_per_shard <= 0:
            raise ValueError("samples_per_shard override must be positive")
        self.samples_per_shard = (
            int(samples_per_shard)
            if samples_per_shard is not None
            else self.global_batch_size * self.batches_per_shard
        )
        self.shards_per_epoch = -(-self.num_samples // self.samples_per_shard)  # ceil

        self._shards: Dict[int, Shard] = {}
        self._queue: Deque[int] = deque()
        self._current_epoch = 0
        self._done_shards = 0
        self._consumed: Dict[str, int] = {}
        self._shards_taken: Dict[str, int] = {}
        self._current_shard: Dict[str, Optional[int]] = {}
        self._owned_shards: Dict[str, set] = {}
        self._dispatched: Dict[int, int] = {}
        self._outstanding: Dict[str, List[SampleRange]] = {}
        self._total_overhead = 0.0
        self._coverage: Optional[np.ndarray] = (
            np.zeros(self.num_samples * self.epochs, dtype=np.int64) if track_coverage else None
        )
        self._populate_epoch(0)

    # -- construction helpers --------------------------------------------------
    def _populate_epoch(self, epoch: int) -> None:
        shards: List[Shard] = []
        for index in range(self.shards_per_epoch):
            offset = index * self.samples_per_shard
            length = min(self.samples_per_shard, self.num_samples - offset)
            shard_id = epoch * self.shards_per_epoch + index
            shards.append(Shard(shard_id=shard_id, offset=offset, length=length, epoch=epoch))
        for shard in self.shuffler.shuffle_shards_list(shards, epoch):
            self._shards[shard.shard_id] = shard
            self._dispatched[shard.shard_id] = 0
            self._queue.append(shard.shard_id)

    # -- bookkeeping properties -------------------------------------------------
    @property
    def total_shards(self) -> int:
        """Total shards over all epochs (⌈N / (B·M)⌉ per epoch)."""
        return self.shards_per_epoch * self.epochs

    @property
    def done_shards(self) -> int:
        """Number of shards whose every sample has been confirmed."""
        return self._done_shards

    @property
    def exhausted(self) -> bool:
        return self._done_shards == self.total_shards

    @property
    def total_overhead_s(self) -> float:
        return self._total_overhead

    def shard_accounting(self) -> Dict[str, int]:
        """Sample-conservation ledger over the DDS's current state.

        Partitions every sample of the workload into exactly one bucket —
        ``confirmed`` (gradients accepted by the servers), ``in_flight``
        (dispatched to a worker, not yet confirmed), ``undispatched`` (queued
        in TODO shards or the unread remainder of DOING shards) and
        ``unpopulated`` (epochs not yet materialised) — and reports whether
        the buckets sum back to the workload (``conserved``).  The invariant
        holds at *any* instant, across failovers and elastic membership
        churn: a requeue moves samples between buckets, it never creates or
        destroys them.  This is the proof obligation behind the elastic
        subsystem's "no sample lost or double-trained" guarantee.
        """
        confirmed = sum(self._consumed.values())
        in_flight = 0
        undispatched = 0
        for shard in self._shards.values():
            if shard.state is ShardState.DOING:
                dispatched = self._dispatched[shard.shard_id]
                in_flight += dispatched - shard.completed
                undispatched += shard.length - dispatched
            elif shard.state is ShardState.TODO:
                undispatched += shard.length
        populated_epochs = self._current_epoch + 1
        unpopulated = self.num_samples * (self.epochs - populated_epochs)
        total = self.total_samples
        balance = total - (confirmed + in_flight + undispatched + unpopulated)
        return {
            "total_samples": total,
            "confirmed": confirmed,
            "in_flight": in_flight,
            "undispatched": undispatched,
            "unpopulated": unpopulated,
            "balance": balance,
            "conserved": balance == 0,
        }

    def consumed_counts(self) -> Dict[str, int]:
        return dict(self._consumed)

    def shards_taken(self) -> Dict[str, int]:
        """Number of distinct shards each worker has fetched (paper Fig. 16)."""
        return dict(self._shards_taken)

    def coverage(self) -> Optional[np.ndarray]:
        """Per-sample confirmation counts across all epochs (None if disabled)."""
        return None if self._coverage is None else self._coverage.copy()

    # -- allocator protocol -------------------------------------------------------
    def register_worker(self, worker: str) -> None:
        if worker in self._outstanding:
            # Already registered; next_range calls this once per fetch.
            return
        self._consumed.setdefault(worker, 0)
        self._shards_taken.setdefault(worker, 0)
        self._current_shard.setdefault(worker, None)
        self._owned_shards.setdefault(worker, set())
        self._outstanding.setdefault(worker, [])

    def _charge(self) -> None:
        self._total_overhead += self.op_cost_s
        self.last_op_cost_s = self.op_cost_s

    def _remaining_to_dispatch(self, shard_id: int) -> int:
        shard = self._shards[shard_id]
        if shard.state is not ShardState.DOING:
            return 0
        return shard.length - self._dispatched[shard_id]

    def _maybe_advance_epoch(self) -> None:
        epoch_done = (self._current_epoch + 1) * self.shards_per_epoch
        if self._done_shards >= epoch_done and self._current_epoch + 1 < self.epochs:
            self._current_epoch += 1
            self._populate_epoch(self._current_epoch)

    def next_range(self, worker: str, max_samples: int) -> Optional[SampleRange]:
        if max_samples <= 0:
            raise ValueError("max_samples must be positive")
        self.register_worker(worker)
        self.last_op_cost_s = 0.0

        shard_id = self._current_shard.get(worker)
        if shard_id is not None and self._remaining_to_dispatch(shard_id) == 0:
            shard_id = None
            self._current_shard[worker] = None
        if shard_id is None:
            # Fetching a new shard is one DDS round trip; dispensing batches
            # from the worker's current shard is a local operation.
            self._charge()
            shard_id = self._acquire_shard(worker)
            if shard_id is None:
                return None
        shard = self._shards[shard_id]
        start = shard.offset + self._dispatched[shard_id]
        length = min(max_samples, self._remaining_to_dispatch(shard_id))
        self._dispatched[shard_id] += length
        sample_range = SampleRange(offset=start, length=length, epoch=shard.epoch,
                                   shard_id=shard_id)
        self._outstanding[worker].append(sample_range)
        return sample_range

    def _acquire_shard(self, worker: str) -> Optional[int]:
        while self._queue:
            shard_id = self._queue.popleft()
            shard = self._shards[shard_id]
            if shard.state is ShardState.TODO:
                shard.assign(worker)
                self._current_shard[worker] = shard_id
                self._owned_shards.setdefault(worker, set()).add(shard_id)
                self._shards_taken[worker] += 1
                return shard_id
        return None

    def mark_done(self, worker: str, sample_range: SampleRange) -> None:
        self.last_op_cost_s = 0.0
        self._remove_outstanding(worker, sample_range)
        if sample_range.shard_id is None:
            raise ValueError("sample ranges issued by the DDS carry a shard id")
        shard = self._shards[sample_range.shard_id]
        shard.confirm(sample_range.length)
        if shard.state is ShardState.DONE:
            # Reporting a completed shard's state is one DDS round trip.
            self._charge()
        self._consumed[worker] = self._consumed.get(worker, 0) + sample_range.length
        if self._coverage is not None:
            base = sample_range.epoch * self.num_samples
            self._coverage[base + sample_range.offset : base + sample_range.end] += 1
        if shard.state is ShardState.DONE:
            self._done_shards += 1
            if self._current_shard.get(worker) == shard.shard_id:
                self._current_shard[worker] = None
            self._owned_shards.setdefault(worker, set()).discard(shard.shard_id)
            self._maybe_advance_epoch()

    def return_range(self, worker: str, sample_range: SampleRange) -> None:
        """Roll back a dispatched-but-dropped range so it will be re-issued."""
        self._charge()
        self._remove_outstanding(worker, sample_range)
        if sample_range.shard_id is None:
            raise ValueError("sample ranges issued by the DDS carry a shard id")
        shard_id = sample_range.shard_id
        shard = self._shards[shard_id]
        if shard.state is ShardState.DOING and shard.owner == worker:
            # The range is the most recent dispatch of this worker's shard:
            # simply rewind the dispatch cursor.
            self._dispatched[shard_id] -= sample_range.length
            if self._dispatched[shard_id] < shard.completed:
                self._dispatched[shard_id] = shard.completed
        else:
            # The shard changed hands (failover already released it); nothing
            # to rewind — the released tail already covers these samples.
            pass

    def on_worker_failover(self, worker: str) -> int:
        self.register_worker(worker)
        self._charge()
        requeued = 0
        self._outstanding[worker] = []
        for shard_id in sorted(self._owned_shards.get(worker, set())):
            shard = self._shards[shard_id]
            if shard.state is ShardState.DOING and shard.owner == worker:
                requeued += shard.release()
                self._dispatched[shard_id] = 0
                self._queue.append(shard_id)
        self._owned_shards[worker] = set()
        self._current_shard[worker] = None
        return requeued

    def _remove_outstanding(self, worker: str, sample_range: SampleRange) -> None:
        ranges = self._outstanding.setdefault(worker, [])
        for index, candidate in enumerate(ranges):
            if (candidate.offset == sample_range.offset
                    and candidate.length == sample_range.length
                    and candidate.epoch == sample_range.epoch):
                del ranges[index]
                return


class StaticPartition(DataAllocator):
    """Even data partition: every worker owns a fixed slice of the dataset.

    This is the allocation strategy of the native ASP baseline.  There is no
    work stealing: if a worker is slow, its slice simply takes longer, and the
    job completion time is decided by the slowest worker.
    """

    op_cost_s = 0.0

    def __init__(self, num_samples: int, workers: Sequence[str], epochs: int = 1) -> None:
        if num_samples <= 0:
            raise ValueError("num_samples must be positive")
        if not workers:
            raise ValueError("at least one worker is required")
        if epochs <= 0:
            raise ValueError("epochs must be positive")
        self.num_samples = int(num_samples)
        self.epochs = int(epochs)
        self.workers = list(workers)
        self._bounds: Dict[str, tuple] = {}
        per_worker = num_samples // len(self.workers)
        remainder = num_samples % len(self.workers)
        offset = 0
        for index, worker in enumerate(self.workers):
            length = per_worker + (1 if index < remainder else 0)
            self._bounds[worker] = (offset, offset + length)
            offset += length
        self._epoch: Dict[str, int] = {worker: 0 for worker in self.workers}
        self._cursor: Dict[str, int] = {worker: self._bounds[worker][0] for worker in self.workers}
        self._consumed: Dict[str, int] = {worker: 0 for worker in self.workers}

    @property
    def exhausted(self) -> bool:
        return all(self._worker_done(worker) for worker in self.workers)

    def _worker_done(self, worker: str) -> bool:
        start, end = self._bounds[worker]
        slice_size = end - start
        return self._consumed[worker] >= slice_size * self.epochs

    def register_worker(self, worker: str) -> None:
        if worker not in self._bounds:
            raise KeyError(f"worker {worker!r} is not part of the static partition")

    def next_range(self, worker: str, max_samples: int) -> Optional[SampleRange]:
        if max_samples <= 0:
            raise ValueError("max_samples must be positive")
        self.register_worker(worker)
        start, end = self._bounds[worker]
        if self._worker_done(worker):
            return None
        cursor = self._cursor[worker]
        if cursor >= end:
            # Move to the next epoch of this worker's own slice.
            if self._epoch[worker] + 1 >= self.epochs:
                return None
            self._epoch[worker] += 1
            self._cursor[worker] = start
            cursor = start
        length = min(max_samples, end - cursor)
        self._cursor[worker] = cursor + length
        return SampleRange(offset=cursor, length=length, epoch=self._epoch[worker])

    def mark_done(self, worker: str, sample_range: SampleRange) -> None:
        self._consumed[worker] += sample_range.length

    def return_range(self, worker: str, sample_range: SampleRange) -> None:
        # Rewind the cursor so the samples are re-issued to the same worker.
        if self._epoch[worker] == sample_range.epoch and self._cursor[worker] == sample_range.end:
            self._cursor[worker] = sample_range.offset

    def on_worker_failover(self, worker: str) -> int:
        # The worker re-reads from its last confirmed position after restart.
        start, _end = self._bounds[worker]
        confirmed_in_epoch = self._consumed[worker] - self._epoch[worker] * (
            self._bounds[worker][1] - start
        )
        rewound = self._cursor[worker] - (start + max(confirmed_in_epoch, 0))
        self._cursor[worker] = start + max(confirmed_in_epoch, 0)
        return max(int(rewound), 0)

    def consumed_counts(self) -> Dict[str, int]:
        return dict(self._consumed)
