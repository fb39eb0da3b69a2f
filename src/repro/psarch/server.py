"""Simulated parameter server nodes.

Each server owns a shard of the model parameters and processes push requests
from workers through a FIFO queue.  A contended server (the paper's server
straggler) takes longer per request, so its queue backs up and every worker's
:math:`T^s_i` and :math:`T^m_i` grow — which is why only KILL_RESTART helps.

Cohort request coalescing
-------------------------
The FIFO discipline makes a server's near future fully determined the moment
a request arrives: with a deterministic contention model every handling
time — and therefore every acknowledgement time — is a closed-form function
of the time handling starts.  When coalescing is enabled the server exploits
this at two levels:

* **Eager submit-side commits.**  While the server is idle (parked on its
  queue) an arriving request never touches the queue at all: ``submit``
  computes the acknowledgement closed-form, appends one entry to the open
  :class:`_BatchPlan` and publishes the acknowledgement at its future time.
  The server process stays parked — a full iteration of W pushes costs zero
  generator resumes and zero store round trips per server.
* **Batch commits.**  When requests did accumulate in the queue (after a
  restart, a rollback or a drain re-route), the server process commits the
  whole backlog at once and sleeps until the window's end on a single
  wake-up event.

A 1,000-worker iteration that used to cost W×S heap pops per server
collapses to one wake-up pop per server per iteration.

Quiescence can break before a window elapses — a kill-restart, an elastic
membership change (which moves the delay fraction a contended server
samples), a worker draining out, or a contention swap.  Every such
perturbation rolls the uncommitted tail back
(:meth:`ParameterServer._rollback_plan`): future acknowledgements are
rescinded, the ``server_bpt`` series — one point per plan entry, and nothing
else writes it — is cut after the entries that stay, and the rescinded
requests return to the queue front for re-planning.  The golden suite pins
coalesced and uncoalesced execution to byte-identical traces.

Servers run no Agent: the Monitor's view of a server is exactly this
per-request ``server_bpt`` series.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from ..elastic.membership import SCALE_IN
from ..sim.cluster import Node
from ..sim.engine import CountdownEvent, Environment, Event, Interrupt, PENDING, Store
from ..sim.failures import ErrorCode
from ..sim.metrics import MetricsRecorder
from ..sim.scheduler import ClusterScheduler
from .config import PSJobConfig

__all__ = ["PushRequest", "ServerStateArrays", "ParameterServer"]


@dataclass(slots=True)
class PushRequest:
    """One worker->server gradient push awaiting processing."""

    worker: str
    nbytes: float
    done: Event


# One request inside a committed coalesced window, as a plain tuple — plan
# entries are created once per push request across the whole fleet, and a
# tuple build is several times cheaper than a (slotted) dataclass:
#   (request, start, ack, is_latch, contributed, done_id)
# * start:    when handling begins (the previous entry's acknowledgement).
# * ack:      when the acknowledgement takes effect.
# * is_latch: whether ``done`` is a shared CountdownEvent (vs private Event).
# * contributed: whether a latch contribution was actually recorded (False
#   for latches already abandoned when the window was committed).
# * done_id:  heap entry id of a private acknowledgement, for rescinding.
# Each entry appended exactly one point to the server's ``server_bpt``
# series, in entry order.
(_E_REQUEST, _E_START, _E_ACK,
 _E_IS_LATCH, _E_CONTRIBUTED, _E_DONE_ID) = range(6)


class ServerStateArrays:
    """Per-server scalar serving state for a whole job, as numpy arrays.

    Owned by the job with one slot per server ever admitted.  Keeping the
    acknowledgement chain tail and the per-request overhead columnar lets
    the job commit one worker's whole push fan-out — one request per
    server — as a handful of vectorized array operations
    (:meth:`PSTrainingJob.push_fanout
    <repro.psarch.job.PSTrainingJob.push_fanout>`) instead of S scalar
    ``submit`` calls.

    Slots are append-only: a departed server's slot keeps its final values,
    and elastic joins extend the arrays.
    """

    _FIELDS = ("chain_tail", "overhead", "eligible")

    def __init__(self, capacity: int = 0) -> None:
        capacity = max(int(capacity), 4)
        #: Last committed acknowledgement time (handling of the next request
        #: starts at ``max(chain_tail, now)``).
        self.chain_tail = np.zeros(capacity, dtype=np.float64)
        #: Per-request base overhead of the node's device.
        self.overhead = np.zeros(capacity, dtype=np.float64)
        #: Whether the slot accepts vectorized eager commits right now:
        #: the server is parked on an empty queue, coalescing is on, and
        #: its contention model is null (affine handling times).
        self.eligible = np.zeros(capacity, dtype=bool)
        self._size = 0

    def allocate_slot(self) -> int:
        """Claim the next slot (growing the arrays when full); returns its index."""
        slot = self._size
        capacity = len(self.chain_tail)
        if slot >= capacity:
            grown = max(capacity * 2, slot + 1)
            for name in self._FIELDS:
                array = getattr(self, name)
                extended = np.zeros(grown, dtype=array.dtype)
                extended[:capacity] = array
                setattr(self, name, extended)
        self._size = slot + 1
        return slot


class _BatchPlan:
    """Bookkeeping for one committed coalesced window.

    Holds the entry tuples in acknowledgement order plus the pre-window
    length of the ``server_bpt`` series, so a rollback can cut the series
    right after the entries it keeps.
    """

    __slots__ = ("entries", "wake", "wake_id", "series_len_before",
                 "coalesced_logged", "origin_physical")

    def __init__(self, series_len_before: int, origin_physical: int) -> None:
        self.entries: List[tuple] = []
        self.wake: Optional[Event] = None
        self.wake_id = -1
        self.series_len_before = series_len_before
        #: Per-entry logical events currently accounted to
        #: ``env.coalesced_count`` for this window (re-arm adjustments are
        #: tracked directly on the environment, not here).
        self.coalesced_logged = 0
        #: Physical events that fed this window from the store: 1 for a
        #: window the server process popped off its queue, 0 for a window
        #: opened by an eager submit-side commit.  The logical total of a
        #: fully delivered window of k requests is k+1 either way.
        self.origin_physical = origin_physical


class ParameterServer:
    """The simulation process of one server node."""

    def __init__(
        self,
        env: Environment,
        node: Node,
        config: PSJobConfig,
        scheduler: ClusterScheduler,
        metrics: MetricsRecorder,
        delay_fraction_provider: Callable[[], float],
        requeue_filter: Optional[Callable[[str], bool]] = None,
        drain_handler: Optional[Callable[["ParameterServer", List[PushRequest]], object]] = None,
        outage_handler: Optional[Callable[["ParameterServer", List[PushRequest]], bool]] = None,
        recovery_handler: Optional[Callable[["ParameterServer"], None]] = None,
        state: Optional[ServerStateArrays] = None,
    ) -> None:
        self.env = env
        self.node = node
        # Plain attribute (the node name never changes); see PSWorker.name.
        self.name = node.name
        self.config = config
        self.scheduler = scheduler
        self.metrics = metrics
        self._delay_fraction_provider = delay_fraction_provider
        # Whether a worker's in-flight request may be requeued on a restart:
        # the job vetoes requeues for draining/departed workers, otherwise a
        # kill-restart racing an elastic scale-in drain resurrects a push
        # that ``discard_requests_from`` already purged.
        self._requeue_filter = requeue_filter
        # Elastic retirement: receives (server, leftover requests) as a
        # simulation sub-process and completes the departure.
        self._drain_handler = drain_handler
        # Warm-standby promotion: on a kill the job may take over this
        # server's unacknowledged requests (returning True) instead of
        # letting them wait out the local restart; called again (recovery)
        # when the relaunch completes so the job can re-admit the server.
        self._outage_handler = outage_handler
        self._recovery_handler = recovery_handler
        self.queue: Store = env.store()
        # Per-server scalar state lives in the job-owned columnar arrays
        # (chain tail, eligibility); a server constructed without a
        # state-owning job gets a private single-slot instance.
        self._state = state if state is not None else ServerStateArrays()
        self._slot = self._state.allocate_slot()
        self.process = None
        self._restart_requested = False
        self._scale_in_requested = False
        # True exactly while the server process is parked on an empty queue:
        # the window in which an arriving request can be committed eagerly
        # at submit time without reordering against queued work.
        self._accepting = False
        # Cached series handle: one append per handled request otherwise pays
        # a recorder key lookup each.  This series is the Monitor's whole
        # view of the server (Monitor.server_bpt_means reads it).
        self._bpt_series = metrics.series("server_bpt", tag=self.name)
        # The coalesced window currently in flight (None while stepping
        # request-by-request or idle).
        self._plan: Optional[_BatchPlan] = None
        # A mid-run contention swap invalidates the handling times of a
        # committed window (and the slot's vectorized-commit eligibility).
        node.add_contention_listener(self._on_contention_change)
        self._sync_eligibility()

    def start(self) -> None:
        """Launch the server's simulation process."""
        self.process = self.env.process(self.run())

    # -- array-backed scalar state -------------------------------------------------
    def _set_accepting(self, value: bool) -> None:
        if self._accepting != value:
            self._accepting = value
            self._sync_eligibility()

    def _sync_eligibility(self) -> None:
        """Refresh this slot's vectorized-commit eligibility and overhead."""
        state = self._state
        slot = self._slot
        state.eligible[slot] = (self._accepting and self.env.coalesce
                                and self.node.contention.is_null)
        state.overhead[slot] = self.node.device.base_overhead

    # -- worker-facing API --------------------------------------------------------
    def submit(self, worker: str, nbytes: float, done: Optional[Event] = None) -> Event:
        """Enqueue a push request; the returned event fires when it is applied.

        ``done`` may be a shared :class:`CountdownEvent` covering the pushes
        of one iteration (one slot per server); the server then counts its
        slot down instead of succeeding a private acknowledgement event.

        While the server is idle-parked and its contention is deterministic,
        the request is committed *eagerly* right here (see the module
        docstring) and never enters the queue.
        """
        env = self.env
        request = PushRequest(worker=worker, nbytes=nbytes,
                              done=done if done is not None else Event(env))
        if (self._accepting and env.coalesce and not self.queue.items
                and self.node.contention.is_deterministic):
            self._commit_request(request)
            return request.done
        self._enqueue(request)
        return request.done

    def enqueue(self, request: PushRequest) -> None:
        """Route an existing request to this server (drain re-route path)."""
        self._enqueue(request)

    def _enqueue(self, request: PushRequest) -> None:
        """Queue a request, preserving FIFO order against any open window.

        A parked server with an open plan is logically *busy* until the
        plan's in-flight acknowledgement: feeding its parked getter now
        would start the next window early, so the request is held in the
        queue and the window's wake-up feeds the getter when due (see
        :meth:`_on_wake`).
        """
        queue = self.queue
        if queue._getters:
            self._set_accepting(False)
            if self._plan is not None:
                queue.items.append(request)
                return
        queue.push(request)

    def discard_requests_from(self, worker: str) -> int:
        """Purge queued push requests of a departed worker; returns the count.

        Part of the elastic scale-in drain: a retiring worker's queued pushes
        must not be handled after it left — the server would burn handling
        time on gradients nobody will confirm and count down a latch whose
        consumer is gone (a stale event).  The request the server is
        *currently* handling cannot be withdrawn; its acknowledgement is
        neutralized by the worker abandoning the latch instead.

        A committed coalesced window is rolled back first (keeping the
        in-flight request, which matches the uncoalesced server's behaviour
        of finishing the handling it already started): the rescinded tail
        returns to the queue front, where the purge below catches the
        departing worker's requests like any other queued push.
        """
        _, queued = self._rollback_plan(self.env.now, keep_in_flight=True)
        items = self.queue.items
        if queued:
            items.extendleft(reversed(queued))
        keep = [request for request in items if request.worker != worker]
        dropped = len(items) - len(keep)
        if dropped:
            items.clear()
            items.extend(keep)
        if items:
            # The survivors wait behind the window's in-flight request; the
            # wake-up will feed them to the parked server process when due.
            self._set_accepting(False)
        return dropped

    def pending_request_count(self) -> int:
        """Queued pushes awaiting handling (excludes the one being handled).

        Matches the uncoalesced server's ``len(queue.items)``: requests that
        a coalesced window committed but whose handling has not *started* yet
        still count as queued; the in-flight one does not.
        """
        count = len(self.queue.items)
        plan = self._plan
        if plan is not None:
            now = self.env.now
            for entry in plan.entries:
                if entry[_E_START] > now:
                    count += 1
        return count

    def _requeue_front(self, queued: List[PushRequest]) -> None:
        """Return rescinded requests to the queue front for re-planning."""
        if queued:
            self.queue.items.extendleft(reversed(queued))
            # The retained in-flight entry is still being handled: the
            # server must not pick the requeued tail up (or accept eager
            # commits ahead of it) before the in-flight acknowledgement.
            self._set_accepting(False)

    def on_cohort_change(self) -> None:
        """Worker membership changed: re-plan any committed window.

        The active-worker count feeds the delay fraction the server samples
        per request, so acknowledgements past this instant were committed
        under stale inputs.  The delivered prefix and the in-flight request
        keep their (correct, pre-change) decisions; the rescinded tail
        re-enters the queue and is re-planned at wake-up.
        """
        _, queued = self._rollback_plan(self.env.now, keep_in_flight=True)
        self._requeue_front(queued)

    def _on_contention_change(self, _node: Node) -> None:
        """Contention model swapped mid-run: committed handling times are stale."""
        _, queued = self._rollback_plan(self.env.now, keep_in_flight=True)
        self._requeue_front(queued)
        self._sync_eligibility()

    def finalize_run(self) -> None:
        """Rewind speculative state past the end of the run.

        Called once per server when the job builds its result: a coalesced
        window may extend beyond the instant the run stopped (completion or
        deadline), and the uncoalesced server would not yet have recorded the
        still-in-flight request or the queued tail.  Dropping the in-flight
        entry (its handling never completed) and restoring the tail to the
        queue leaves every observable exactly where per-request stepping
        leaves it.
        """
        _, queued = self._rollback_plan(self.env.now, keep_in_flight=False)
        if queued:
            self.queue.items.extendleft(reversed(queued))

    # -- controller-facing API -----------------------------------------------------
    def request_kill_restart(self) -> bool:
        """Kill this server and relaunch it (returns False if already restarting)."""
        return self.inject_failure(ErrorCode.PROACTIVE_KILL)

    def inject_failure(self, code: ErrorCode) -> bool:
        """Terminate this server and relaunch it (returns False if already restarting).

        The interrupt cause carries the :class:`ErrorCode` so the relaunch is
        recorded under the real termination reason (see
        :meth:`PSWorker.inject_failure <repro.psarch.worker.PSWorker.inject_failure>`).
        """
        if not self.node.is_running or self.process is None or not self.process.is_alive:
            return False
        if self._restart_requested or self._scale_in_requested:
            return False
        self._restart_requested = True
        self.process.interrupt(code)
        return True

    def request_scale_in(self) -> bool:
        """Gracefully retire this server (elastic scale-in).

        Returns False when the server cannot drain right now: it is already
        restarting, already retiring, its process finished, or no drain
        handler was wired (a fixed-fleet job).  A granted request interrupts
        the serving loop with the :data:`SCALE_IN` sentinel; the drain hands
        every unacknowledged request — queued and in-flight — to the job,
        which re-partitions the parameter shards and re-routes the requests
        to the surviving servers.
        """
        if self._drain_handler is None:
            return False
        if not self.node.is_running or self.process is None or not self.process.is_alive:
            return False
        if self._restart_requested or self._scale_in_requested:
            return False
        self._scale_in_requested = True
        self.process.interrupt(SCALE_IN)
        return True

    # -- simulation process -----------------------------------------------------------
    def run(self):
        """Main loop: pop a request, spend the handling time, acknowledge it.

        With coalescing on and a deterministic contention model this loop is
        almost always *parked*: requests are committed eagerly at submit time
        and never reach the queue.  The loop only turns when a backlog exists
        (post-restart, post-rollback, drain re-routes) — then it commits the
        whole backlog as one batch window — or when the contention model is
        non-deterministic, in which case it steps request by request.
        """
        current: Optional[PushRequest] = None
        get_event: Optional[Event] = None
        # Hot-loop locals: the loop body runs once per popped request.  All
        # bound objects are stable across restarts (only the node's *status*
        # changes).
        env = self.env
        queue = self.queue
        node = self.node
        per_byte_cost = self.config.server_per_byte_cost_s
        delay_fraction_provider = self._delay_fraction_provider
        bpt_series = self._bpt_series
        while True:
            try:
                # Backed-up queue: take the next request synchronously instead
                # of riding a one-step event round trip per message (the item
                # popped is the same one the getter event would have carried).
                current = queue.try_get()
                if current is None:
                    self._set_accepting(True)
                    get_event = queue.get()
                    current = yield get_event
                    get_event = None
                self._set_accepting(False)
                if env.coalesce and node.contention.is_deterministic:
                    # Every handling time in the current queue is a closed
                    # form of the pop time: commit the whole window at once
                    # and sleep until its end (see the module docstring).
                    wake = self._commit_batch(current)
                    current = None
                    yield wake
                    self._plan = None
                    continue
                fraction = float(delay_fraction_provider())
                handling = node.server_time(
                    current.nbytes,
                    env.now,
                    per_byte_cost=per_byte_cost,
                    delay_fraction=fraction,
                )
                yield env.timeout(handling)
                done = current.done
                if not done.triggered:
                    if type(done) is CountdownEvent:
                        done.count_down(env.now)
                    else:
                        done.succeed(env.now)
                bpt_series.append(env.now, handling)
                current = None
            except Interrupt as interrupt:
                cause = interrupt.cause
                self._set_accepting(False)
                # Reclaim the in-flight and half-delivered requests first —
                # both the relaunch and the drain need them.  A committed
                # coalesced window rolls back completely: the in-flight
                # request joins ``undelivered`` (like the uncoalesced
                # server's ``current``) and the untouched tail returns to
                # the queue front (where per-request stepping left it).
                undelivered: List[PushRequest] = []
                in_flight, queued = self._rollback_plan(env.now, keep_in_flight=False)
                if queued:
                    queue.items.extendleft(reversed(queued))
                if in_flight is not None and not in_flight.done.triggered:
                    undelivered.append(in_flight)
                if get_event is not None:
                    still_pending = self.queue.cancel(get_event)
                    if not still_pending and get_event.triggered:
                        delivered = get_event.value
                        if isinstance(delivered, PushRequest) and not delivered.done.triggered:
                            undelivered.append(delivered)
                    get_event = None
                if current is not None and not current.done.triggered:
                    undelivered.append(current)
                    current = None
                if cause is SCALE_IN:
                    # Graceful retirement: hand every unacknowledged request
                    # (in-flight and queued) to the job, which re-partitions
                    # the parameter shards and re-routes the requests to the
                    # surviving servers, then leave the simulation for good.
                    undelivered.extend(self.queue.items)
                    self.queue.items.clear()
                    yield from self._drain_handler(self, undelivered)
                    return
                # KILL_RESTART (or injected failure): requeue any in-flight
                # or half-delivered request so no worker waits forever, then
                # relaunch the pod.  Requests of draining/departed workers
                # are NOT requeued: ``discard_requests_from`` purged them for
                # good, and resurrecting one here would burn handling time on
                # a gradient nobody confirms and count down an abandoned
                # latch (the kill-restart-races-scale-in bug).
                #
                # With warm standbys wired, the job may instead take over the
                # unacknowledged requests (promoting each shard's standby
                # owner); the local queue then stays empty until recovery.
                code = cause if isinstance(cause, ErrorCode) else ErrorCode.PROACTIVE_KILL
                outage_handler = self._outage_handler
                if outage_handler is None or not outage_handler(self, undelivered):
                    requeue_filter = self._requeue_filter
                    for request in reversed(undelivered):
                        if requeue_filter is None or requeue_filter(request.worker):
                            self.queue.put_left(request)
                yield from self.scheduler.relaunch(self.node, code)
                yield self.env.timeout(self.config.server_recovery_time_s)
                self._restart_requested = False
                if self._recovery_handler is not None:
                    self._recovery_handler(self)

    # -- coalesced windows ---------------------------------------------------------
    def _open_plan(self, first_ack: float) -> _BatchPlan:
        """Open a fresh eager window ending (for now) at ``first_ack``.

        The wake-up event is scheduled *before* the first acknowledgement so
        that at the window's final instant the server's bookkeeping runs
        first, then the last worker — the same callback order per-request
        stepping produces.  Its callback (:meth:`_on_wake`) either closes the
        window or re-arms at the new end if commits extended it meanwhile.
        """
        env = self.env
        plan = _BatchPlan(len(self._bpt_series), origin_physical=0)
        wake = Event(env)
        wake.callbacks.append(self._on_wake)
        plan.wake = wake
        plan.wake_id = env.schedule_at(wake, first_ack)
        self._plan = plan
        return plan

    def _commit_request(self, request: PushRequest) -> None:
        """Commit one request eagerly at submit time (server stays parked)."""
        env = self.env
        node = self.node
        now = env._now
        state = self._state
        slot = self._slot
        plan = self._plan
        tail = float(state.chain_tail[slot])
        start = tail if tail > now else now
        contention = node.contention
        if contention.is_null:
            handling = node.device.base_overhead \
                + request.nbytes * self.config.server_per_byte_cost_s
        else:
            fraction = float(self._delay_fraction_provider())
            handling = node.server_time(
                request.nbytes, start,
                per_byte_cost=self.config.server_per_byte_cost_s,
                delay_fraction=fraction)
        ack = start + handling
        if plan is None:
            plan = self._open_plan(ack)
        done = request.done
        is_latch = type(done) is CountdownEvent
        contributed = False
        done_id = None
        if not done.triggered:
            if is_latch:
                contributed = not done.abandoned
                done.count_down_at(ack, ack)
            else:
                done_id = env.schedule_at(done, ack, ack)
        state.chain_tail[slot] = ack
        self._bpt_series.append(ack, handling)
        plan.entries.append((request, start, ack, is_latch, contributed, done_id))
        plan.coalesced_logged += 1
        env.coalesced_count += 1

    def _on_wake(self, wake: Event) -> None:
        """Wake-up callback of an eagerly opened window.

        Closes the window when its last acknowledgement is due; re-arms at
        the new end when eager commits extended the window past the instant
        this wake-up was scheduled for (the replacement heap entry cancels
        one logical-event credit, keeping the window's accounting at k+1).
        Closing also feeds any rollback-requeued backlog to the parked
        server process — the backlog had to wait for the in-flight
        acknowledgement (FIFO), and this wake-up marks exactly that instant.
        """
        env = self.env
        plan = self._plan
        if plan is not None and plan.wake is wake:
            entries = plan.entries
            if entries and entries[-1][_E_ACK] > env._now:
                new_wake = Event(env)
                new_wake.callbacks.append(self._on_wake)
                plan.wake = new_wake
                plan.wake_id = env.schedule_at(new_wake, entries[-1][_E_ACK])
                env.coalesced_count -= 1
                return
            self._plan = None
        queue = self.queue
        if queue.items and queue._getters:
            # The get event this dispatch schedules exists only because the
            # server parks between coalesced windows (the uncoalesced server
            # would have been busy handling and polled synchronously), so it
            # is cancelled out of the logical-event accounting.
            self._set_accepting(False)
            env.coalesced_count -= 1
            queue._dispatch()

    def _commit_batch(self, first: PushRequest) -> Event:
        """Commit the current queue as one coalesced window; return the wake event.

        Handling and acknowledgement times for ``first`` plus every queued
        request are computed closed-form and published immediately —
        acknowledgements via absolute-time scheduling, series writes eagerly
        (windowed queries are bisect-bounded, so future-dated observations
        stay invisible until due).  The delay fraction, which the uncoalesced
        loop re-reads per request, is read once: any event that could move it
        also triggers a rollback of this window.
        """
        env = self.env
        node = self.node
        state = self._state
        slot = self._slot
        items = self.queue.items
        requests: List[PushRequest] = [first]
        if items:
            requests.extend(items)
            items.clear()
        k = len(requests)
        t0 = env.now
        per_byte_cost = self.config.server_per_byte_cost_s
        contention = node.contention
        if contention.is_null:
            # base_overhead + nbytes·cost per request; the acknowledgement
            # times are the running total, accumulated with np.cumsum, which
            # adds strictly left-to-right — bit-identical to the sequential
            # ``t += handling`` of per-request stepping.
            chain = np.empty(k + 1, dtype=np.float64)
            chain[0] = t0
            chain[1:] = node.device.base_overhead + per_byte_cost * np.fromiter(
                (request.nbytes for request in requests), dtype=np.float64, count=k)
            handlings = chain[1:].tolist()
            acks = np.cumsum(chain)[1:].tolist()
        else:
            # Deterministic non-null contention: the model is a pure function
            # of time, but not an affine one — step the scalar recurrence.
            fraction = float(self._delay_fraction_provider())
            handlings = []
            acks = []
            t = t0
            for request in requests:
                handling = node.server_time(
                    request.nbytes, t,
                    per_byte_cost=per_byte_cost, delay_fraction=fraction)
                t += handling
                handlings.append(handling)
                acks.append(t)
        # The wake event is scheduled before any acknowledgement so that at
        # the window's final instant the server resumes first, then the last
        # worker — the same callback order per-request stepping produces.
        wake = Event(env)
        plan = _BatchPlan(len(self._bpt_series), origin_physical=1)
        plan.wake = wake
        plan.wake_id = env.schedule_at(wake, acks[-1])
        entries = plan.entries
        bpt_series = self._bpt_series
        start = t0
        for request, handling, ack in zip(requests, handlings, acks):
            done = request.done
            is_latch = type(done) is CountdownEvent
            contributed = False
            done_id = None
            if not done.triggered:
                if is_latch:
                    contributed = not done.abandoned
                    done.count_down_at(ack, ack)
                else:
                    done_id = env.schedule_at(done, ack, ack)
            bpt_series.append(ack, handling)
            entries.append((request, start, ack, is_latch, contributed, done_id))
            start = ack
        state.chain_tail[slot] = acks[-1]
        plan.coalesced_logged = k - 1
        env.count_coalesced(k - 1)
        self._plan = plan
        return wake

    def _rollback_plan(self, now: float, keep_in_flight: bool
                       ) -> Tuple[Optional[PushRequest], List[PushRequest]]:
        """Rescind the undelivered tail of the committed window, if any.

        Entries acknowledged at or before ``now`` are delivered and stay.
        The first entry with a later acknowledgement is *in flight* (its
        handling started at or before ``now``): with ``keep_in_flight`` its
        committed outcome is preserved and the wake-up moves to its
        acknowledgement; otherwise it is rescinded with the rest and handed
        back as the first returned value.  Later entries never started and
        are returned for queue-front reinsertion.

        Each entry appended one point to the ``server_bpt`` series, in entry
        order, and nothing else writes it, so cutting the series after the
        entries that stay leaves it exactly as per-request stepping would
        have left it at ``now``.
        """
        plan = self._plan
        if plan is None:
            return None, []
        entries = plan.entries
        if not entries or now >= entries[-1][_E_ACK]:
            # Fully delivered: nothing speculative left to unwind.  (The
            # window's wake-up stays scheduled and closes it as a no-op.)
            self._plan = None
            return None, []
        env = self.env
        state = self._state
        slot = self._slot
        split = 0
        for split, entry in enumerate(entries):
            if entry[_E_ACK] > now:
                break
        in_flight = entries[split]
        kept = entries[:split]
        suffix = entries[split + 1:] if keep_in_flight else entries[split:]
        # 1. Rescind the undelivered acknowledgements, newest first.
        for entry in reversed(suffix):
            done = entry[_E_REQUEST].done
            if entry[_E_IS_LATCH]:
                if entry[_E_CONTRIBUTED]:
                    done.rescind(entry[_E_ACK], entry[_E_ACK])
            elif entry[_E_DONE_ID] is not None:
                env.discard_scheduled(entry[_E_DONE_ID])
                done._ok = None
                done._value = PENDING
        # 2. Keep (or drop) the in-flight entry and move the wake-up.
        env.discard_scheduled(plan.wake_id)
        wake = plan.wake
        wake._ok = None
        wake._value = PENDING
        if keep_in_flight:
            plan.wake_id = env.schedule_at(wake, in_flight[_E_ACK])
            plan.entries = kept + [in_flight]
            state.chain_tail[slot] = in_flight[_E_ACK]
        else:
            plan.entries = kept
            state.chain_tail[slot] = now
        # 3. Cut the series after the entries that stay.
        self._bpt_series.truncate(plan.series_len_before + len(plan.entries))
        # Logical-event credits for the retained work: every kept entry plus
        # the window's park/pop, minus what fed the window physically.
        new_logged = len(kept) + 1 - plan.origin_physical
        env.coalesced_count += new_logged - plan.coalesced_logged
        plan.coalesced_logged = new_logged
        if keep_in_flight:
            return None, [entry[_E_REQUEST] for entry in suffix]
        self._plan = None
        return in_flight[_E_REQUEST], [entry[_E_REQUEST] for entry in suffix[1:]]
