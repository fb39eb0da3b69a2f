"""Simulated worker nodes of the Parameter Server architecture.

One worker process per worker node.  Every iteration a worker:

1. polls its Agent for global actions broadcast by the Controller
   (ADJUST_BS changes its batch size);
2. fetches a sample range from the data allocator (Stateful DDS or static
   partition); a worker that finds none waits one poll interval and asks
   again.  With coalescing on it waits parked among the job's idle workers
   (:class:`~repro.sim.engine.Parking`), where workers that parked back to
   back re-poll as one block, without resuming, while every poll is empty;
   with coalescing off it sleeps a plain timeout;
3. computes the gradients (``T_w``), pushes them to every server and waits
   for the acknowledgements (``T_s`` + ``T_m``), pulls the new parameters;
4. reports its batch processing time to the Agent and, in BSP mode,
   synchronises at the barrier (where Backup-Workers drops may occur);
5. confirms (or returns) the sample range with the allocator.

A KILL_RESTART (or injected failure) interrupts the process at whatever point
it is in; the failover path requeues its in-flight shard with the DDS, rides
the cluster scheduler's relaunch delay, pays the worker recovery time, and
rejoins the barrier.
"""

from __future__ import annotations

from typing import List, Optional

from ..core.actions import Action, AdjustBatchSize
from ..core.agent import Agent
from ..elastic.membership import SCALE_IN
from ..sim.cluster import Node
from ..sim.engine import CountdownEvent, Interrupt
from ..sim.failures import ErrorCode

__all__ = ["PSWorker"]


class PSWorker:
    """The simulation process of one worker node.

    Everything a worker shares with the rest of the job — environment,
    allocator, backend, servers, config, scheduler, metrics and barrier — is
    read from ``job``; the worker owns only its node, its Agent and its
    training state.
    """

    def __init__(self, job: "PSTrainingJob", node: Node, agent: Agent,
                 batch_size: int) -> None:
        self.job = job
        self.node = node
        # Plain attribute (the node name never changes): this is read in every
        # per-request hot path and a property lookup per read adds up.
        self.name = node.name
        self.agent = agent
        # Training state: ADJUST_BS sets the batch size, the barrier aligns
        # the iteration number, and the job sums the backup-worker drops
        # into the run result (departed workers included).
        self.batch_size = max(1, int(batch_size))
        self.iteration = 0
        self.dropped_iterations = 0
        self.process = None
        self._restart_requested = False
        self._scale_in_requested = False
        self._in_barrier = False
        # The acknowledgement latch of the in-flight iteration, if any; a
        # graceful scale-in abandons it so no server schedules a stale
        # completion event for a consumer that left.
        self._pending_acks: Optional[CountdownEvent] = None
        # Cached series handles: two appends per iteration otherwise pay a
        # recorder key lookup each.
        self._bpt_series = job.metrics.series("bpt", tag=self.name)
        self._batch_series = job.metrics.series("batch_size", tag=self.name)

    def start(self) -> None:
        """Launch the worker's simulation process."""
        self.process = self.job.env.process(self.run())

    # -- controller-facing API ----------------------------------------------------
    def request_kill_restart(self) -> bool:
        """Kill this worker and relaunch it (returns False if already restarting)."""
        return self.inject_failure(ErrorCode.PROACTIVE_KILL)

    def inject_failure(self, code: ErrorCode) -> bool:
        """Terminate this worker and relaunch it (returns False if already restarting).

        The interrupt cause carries the :class:`ErrorCode` — the Controller's
        proactive kill and externally injected failures (eviction, machine
        fault) ride the same failover path, and the relaunch is recorded under
        the real termination reason.
        """
        if not self.node.is_running or self.process is None or not self.process.is_alive:
            return False
        if self._restart_requested or self._scale_in_requested:
            return False
        self._restart_requested = True
        self.process.interrupt(code)
        return True

    def request_scale_in(self) -> bool:
        """Gracefully retire this worker (elastic scale-in).

        Returns False when the worker cannot drain right now: it is already
        restarting, already retiring, or its process finished.  A granted
        request interrupts the training loop with the :data:`SCALE_IN`
        sentinel; the drain requeues in-flight samples with the allocator,
        purges the worker's queued pushes from every server, abandons its
        acknowledgement latch, and departs the cluster membership for good.
        """
        if not self.node.is_running or self.process is None or not self.process.is_alive:
            return False
        if self._restart_requested or self._scale_in_requested:
            return False
        self._scale_in_requested = True
        self.process.interrupt(SCALE_IN)
        return True

    # -- action handling ------------------------------------------------------------
    def _apply_action(self, action: Action) -> None:
        if isinstance(action, AdjustBatchSize):
            if self.name in action.batch_sizes:
                self.batch_size = max(1, int(action.batch_sizes[self.name]))
        # BACKUP_WORKERS and ADJUST_LR are executed at the job level; the
        # worker only needs to observe them for the synchronised iteration.

    # -- barrier membership --------------------------------------------------------------
    def _enter_barrier(self) -> None:
        barrier = self.job.barrier
        if barrier is not None and not self._in_barrier:
            barrier.join(self.name)
            self.iteration = barrier.next_round
            self._in_barrier = True

    def _exit_barrier(self) -> None:
        barrier = self.job.barrier
        if barrier is not None and self._in_barrier:
            barrier.leave(self.name)
            self._in_barrier = False

    # -- elastic departure -------------------------------------------------------------
    def _depart(self) -> None:
        """Drain and leave: the graceful counterpart of a failover.

        Ordering matters: the in-flight shard work is requeued with the
        allocator *before* the membership shrinks, so at no instant is any
        sample owned by nobody — the shard-accounting invariant holds across
        the whole transition.
        """
        job = self.job
        self._exit_barrier()
        job.allocator.on_worker_failover(self.name)
        for server in job.servers:
            server.discard_requests_from(self.name)
        acks = self._pending_acks
        if acks is not None and not acks.triggered:
            acks.abandon()
        self._pending_acks = None
        job.worker_departed(self)

    # -- failover ---------------------------------------------------------------------
    def _failover(self, cause: object):
        code = cause if isinstance(cause, ErrorCode) else ErrorCode.PROACTIVE_KILL
        job = self.job
        env = job.env
        failover_start = env.now
        self._exit_barrier()
        job.allocator.on_worker_failover(self.name)
        self.agent.reset_after_restart()
        yield from job.scheduler.relaunch(self.node, code)
        yield env.timeout(job.config.worker_recovery_time_s)
        self._enter_barrier()
        self._restart_requested = False
        recorder = job.recorder
        if recorder.enabled:
            recorder.span(self.name, "failover", failover_start, env.now,
                          cat="failover", args={"code": code.value})

    # -- simulation process ---------------------------------------------------------------
    def run(self):
        """Main training loop of the worker."""
        # Hot-loop locals: the loop body runs once per iteration per worker.
        # Everything bound here is stable across restarts; mutable per-
        # iteration state (batch_size, iteration, ...) stays on self.
        job = self.job
        env = job.env
        allocator = job.allocator
        agent = self.agent
        barrier = job.barrier
        # None for timing-only runs: then no gradient is built or applied.
        backend = job.backend
        push_targets = job.push_targets
        # Fan-out commit (None when coalescing is off): one call commits
        # the whole iteration's pushes on the lock-step group's row when the
        # targets are exactly the intact group and every member is
        # idle-eligible; otherwise the pushes are submitted per server.
        push_fanout = job.push_fanout if env.coalesce else None
        # With coalescing on, an empty data poll parks the worker among the
        # job's idle workers, re-polled in blocks; off, it sleeps a timeout.
        park = job.idle_workers.park if env.coalesce else None
        name = self.name
        config = job.config
        timeout = env.timeout
        bpt_series = self._bpt_series
        batch_series = self._batch_series
        # Tracing is hoisted to one local branch per iteration: with the
        # NullRecorder default ``tracing`` is False and the hot loop pays a
        # single falsy check at the span site.
        recorder = job.recorder
        tracing = recorder.enabled
        allocator.register_worker(name)
        self._enter_barrier()
        while True:
            try:
                if job.completed:
                    break

                # 1. Pick up global actions at the iteration boundary.
                actions, sync_cost = agent.poll()
                for action in actions:
                    self._apply_action(action)
                if sync_cost > 0:
                    yield timeout(sync_cost)

                # 2. Fetch data from the allocator.  One iteration may span a
                # shard boundary, in which case the worker reads the tail of
                # its current shard plus the head of the next one.
                wanted = self.batch_size
                ranges: List = []
                gathered = 0
                dds_cost = 0.0
                while gathered < wanted:
                    sample_range = allocator.next_range(name, wanted - gathered)
                    if sample_range is None:
                        break
                    ranges.append(sample_range)
                    gathered += sample_range.length
                    dds_cost += allocator.last_op_cost_s
                if not ranges:
                    if allocator.exhausted:
                        break
                    # No work available right now (e.g. all remaining shards
                    # are DOING on other workers): step out of the barrier so
                    # the workers that do hold data are not blocked, and poll.
                    self._exit_barrier()
                    if park is None:
                        yield timeout(config.data_poll_interval_s)
                    else:
                        yield park(name, agent.applied_generation)
                    continue
                self._enter_barrier()
                if dds_cost > 0:
                    yield timeout(dds_cost)

                iteration_start = env.now

                # 3. Compute and synchronise with the servers.  Compute and
                # push are one combined sleep: nothing observes the worker
                # between the two, and halving the timeout events per
                # iteration measurably speeds large-cluster simulations (an
                # interrupt lands identically in either interval).
                if backend is not None:
                    payloads = [backend.compute_gradient(name, r) for r in ranges]
                grad_bytes = config.model.gradient_bytes
                # Push and pull move the same gradient volume over the same
                # (static) link, so one transfer-time evaluation covers both.
                push_time = pull_time = self.node.network.transfer_time(grad_bytes)
                yield timeout(self.node.compute_time(
                    gathered, env.now, model_cost=config.model.compute_cost)
                    + push_time)
                sync_start = env.now
                # The push targets are read *after* the compute sleep, in the
                # same synchronous block as the submits: a server retiring
                # elastically mid-compute is already gone from the list, so a
                # push is never addressed to a draining server.  For a fixed
                # fleet this is the full (cached) server list.
                targets = push_targets()
                pull_pending = True
                if targets:
                    per_server = grad_bytes / len(targets)
                    # One countdown latch per iteration instead of a private
                    # ack event per server plus an AllOf: the same fan-in
                    # point with one heap event instead of len(targets) + 1.
                    # With coalescing the latch also absorbs the pull sleep
                    # that immediately follows the final acknowledgement
                    # (``fire_delay``): the worker resumes at last-ack plus
                    # pull time off a single heap entry.
                    fold_pull = env.coalesce and pull_time > 0.0
                    acks = CountdownEvent(env, len(targets),
                                          fire_delay=pull_time if fold_pull else 0.0)
                    self._pending_acks = acks
                    if push_fanout is None or not push_fanout(
                            name, per_server, targets, acks):
                        for server in targets:
                            server.submit(name, per_server, acks)
                    yield acks
                    self._pending_acks = None
                    pull_pending = not fold_pull

                # The pull sleep stays separate from the report sleep: the
                # iteration must only be recorded once the pull actually
                # finished, so a KILL_RESTART landing mid-pull leaves no
                # phantom observations for an iteration that failed over.
                if pull_pending:
                    yield timeout(pull_time)
                now = env.now
                bpt = now - iteration_start
                # Raw per-iteration series (Fig. 12 / Fig. 13); the Monitor
                # keeps its own, coarser, agent-reported series under the
                # ``worker_*`` names.
                bpt_series.append(now, bpt)
                batch_series.append(now, float(self.batch_size))
                if tracing:
                    # Recorded at the fingerprint-pinned bpt point, so the
                    # span stream is identical across coalesce modes.
                    if targets:
                        recorder.span(name, "sync", sync_start, now,
                                      cat="push", args={"servers": len(targets)})
                    recorder.span(name, "iteration", iteration_start, now,
                                  cat="train", args={"samples": gathered})
                report_cost = agent.report_iteration(bpt, gathered, now)
                if report_cost > 0:
                    yield timeout(report_cost)

                # 4. BSP barrier (with backup-worker drops) and confirmation.
                accepted = True
                release = None
                if barrier is not None:
                    release, accepted = barrier.arrive(name, self.iteration)
                if accepted:
                    if backend is not None:
                        weight = gathered / config.global_batch_size
                        for sample_range, payload in zip(ranges, payloads):
                            backend.apply_gradient(
                                name, payload, weight * sample_range.length / gathered)
                    for sample_range in ranges:
                        allocator.mark_done(name, sample_range)
                    job.notify_progress(gathered, env.now)
                else:
                    for sample_range in reversed(ranges):
                        allocator.return_range(name, sample_range)
                    self.dropped_iterations += 1

                if barrier is not None and accepted and not job.completed:
                    yield release
                self.iteration += 1
            except Interrupt as interrupt:
                if interrupt.cause is SCALE_IN:
                    # Graceful retirement: drain and leave the loop for good
                    # (no relaunch, no node.mark_finished — the node departs
                    # the membership entirely via the job).
                    self._depart()
                    return
                self._pending_acks = None
                yield from self._failover(interrupt.cause)

        # Exit: leave the barrier so remaining workers are not blocked.
        self._exit_barrier()
        self.node.mark_finished()
        job.worker_exited(self.name)
