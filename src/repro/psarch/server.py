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
of the time handling starts.  When coalescing is enabled the server commits
requests into a *window*: each request's acknowledgement is computed
closed-form behind the window's chain tail, written as one ``server_bpt``
point and published at its future time.  The window itself puts nothing on
the heap: it is live while the chain tail is at or after now (so a request
landing exactly on the last acknowledgement joins it), and a commit behind
an earlier tail opens a new one.

The tier keeps all of this in columns (:class:`ServerStateArrays`): per
server its chain tail, and per point — each server's ``server_bpt`` series
is one row of the store — its time, its value and a token naming the
committed request, which a rollback needs.  The row is time-ordered, so the
points acknowledged after now are the window's undelivered tail.  Every
commit writes its points through one method,
:meth:`ServerStateArrays.commit`, whichever path brought the requests.

While the server process is parked on an empty backlog, an arriving request
never touches the backlog at all: ``submit`` commits it right away.  A
backlog that forms behind a live window (an arrival meanwhile, a rollback)
waits for the window's last acknowledgement, where one wake-up commits it in
place (:meth:`ParameterServer._on_wake`); one that forms without a window
(after a restart) is popped by the process, committed the same way, and the
process parks again.  Either way the process never waits on a window: a
full iteration of W pushes costs zero generator resumes per server, and no
heap pop beyond the acknowledgements themselves.

Quiescence can break before a window elapses — a kill-restart, an elastic
membership change (which moves the delay fraction a contended server
samples), a worker draining out, or a contention swap.  Every such
perturbation rolls the uncommitted tail back
(:meth:`ParameterServer._rollback_window`): future acknowledgements are
rescinded, the ``server_bpt`` row — one point per committed request, and
nothing else writes it meanwhile — is cut after the points that stay, and
the rescinded requests return to the queue front for re-planning.  The
golden suite pins coalesced and uncoalesced execution to byte-identical
traces.

Servers in lock step
--------------------
When every push reaches every server and the servers are alike, their
rows never differ: at 1,000 workers and 333 servers the tier would write,
store and read one row 333 times.  So with coalescing on, the servers a job
starts with form a *group* when their devices share one base overhead
(:meth:`ParameterServer.form_group`): one extra row of the columns holds
their common chain tail and ``server_bpt`` series, and each member's series
reads it.  A fan-out whose targets are exactly the intact group, every
member parked on an empty queue with null contention, commits one point
there and counts the latch down once per member, with the logical events
of one commit per member (:meth:`PSTrainingJob.push_fanout
<repro.psarch.job.PSTrainingJob.push_fanout>`).  Any other fan-out is
submitted to each server, which commits, queues or steps it on its own.

A member *detaches* right before its first write of its own — a commit, a
wake-up, an uncoalesced append, or a rollback that rescinds points or drops
a chain tail a commit at this instant would join: its slot row takes an
exact copy of the group row and holds its state from then on
(:meth:`ParameterServer._detach`).  The group is then no longer intact, and
every later fan-out is submitted per server, exactly as without a group;
a member that is never written keeps reading the group row, which no
longer changes.  With coalescing off no group forms.  The known cost of a
break is on a wide tier: the members' per-server submits, and each
member's copy of the group's history at its first write (up to ~130 MB at
333 servers near the end of a run); no benchmark workload runs one.

Servers run no Agent: the Monitor's view of a server is exactly this
per-request ``server_bpt`` series.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Callable, Deque, List, Optional, Sequence

import numpy as np

from ..elastic.membership import SCALE_IN
from ..sim.cluster import Node
from ..sim.engine import CountdownEvent, Environment, Event, Interrupt, PENDING
from ..sim.failures import ErrorCode
from ..sim.metrics import MetricSeries, SeriesStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .job import PSTrainingJob

__all__ = ["PushRequest", "ServerStateArrays", "ParameterServer"]


@dataclass(slots=True)
class PushRequest:
    """One worker->server gradient push awaiting processing."""

    worker: str
    nbytes: float
    done: Event
    # Heap id of the private acknowledgement a commit scheduled for ``done``
    # (a latch needs none): a rollback discards it.
    done_id: Optional[int] = None


class ServerStateArrays(SeriesStore):
    """The server tier's state as columns: one slot (a store row) per server
    ever admitted.

    Owned by the job.  Per slot it holds the acknowledgement chain tail and
    the per-request overhead of the server's device, written once when the
    slot is allocated.  The slot's row is the server's ``server_bpt``
    series, time-ordered like any series, so the points acknowledged after
    now are exactly the undelivered tail of the live window.  Beside each
    point's time and value it keeps a token naming the committed
    :class:`PushRequest`, what a rollback needs.  Every point is written by
    :meth:`commit`; the uncoalesced server's appends and a detaching
    member's copy (:meth:`copy_row`) are the only other writers.

    Slots are append-only: a departed server's slot keeps its final values,
    and elastic joins extend the columns.  ``points`` is the row capacity
    to start with; a row that outgrows it doubles every row.

    At most one extra row is the lock-step *group*'s (:meth:`add_group`):
    its members read their chain tail and series there, and their own slot
    rows stay empty until they detach.
    """

    ROW_COLUMNS = SeriesStore.ROW_COLUMNS + (
        # Last committed acknowledgement: handling of the next request
        # starts at ``max(chain_tail, now)``, in a window that is live while
        # this is at or after now (-inf without one).
        ("chain_tail", np.float64),
        # Per-request base overhead of the node's device.
        ("overhead", np.float64),
    )
    POINT_COLUMNS = SeriesStore.POINT_COLUMNS + (("tokens", np.int64),)

    def __init__(self, slots: int = 1, points: int = 64) -> None:
        super().__init__(rows=slots, capacity=points)
        # Committed requests by token, from ``_first_token`` on: older ones
        # belong to acknowledged points, which no rollback reaches.
        self._records: List[PushRequest] = []
        self._first_token = 0
        self._prune_at = 1024
        # The lock-step group: its row (-1 without one), its members' slots,
        # whether every member still reads the row, and how many members
        # do not accept a fan-out's commit right now (kept by the members).
        self.group_row = -1
        self.group_slots: frozenset = frozenset()
        self.group_intact = False
        self.group_ineligible = 0

    def allocate_slot(self, overhead: float) -> int:
        """Claim the next slot (growing the columns when full) for a server
        whose requests each cost ``overhead`` on top of their bytes; returns
        its index."""
        slot = self.add_row()
        self._chain_tail[slot] = -math.inf
        self._overhead[slot] = overhead
        return slot

    def add_group(self, slots: Sequence[int], overhead: float, ineligible: int) -> int:
        """Claim the row the servers in ``slots`` share while in lock step,
        with their common per-request ``overhead``, ``ineligible`` of them
        not accepting a fan-out's commit yet; returns its index."""
        row = self.allocate_slot(overhead)
        self.group_row = row
        self.group_slots = frozenset(slots)
        self.group_intact = True
        self.group_ineligible = ineligible
        return row

    def copy_row(self, source: int, row: int) -> None:
        """Make ``row`` an exact copy of row ``source``: its points (times,
        values, prefix sums, tokens), length, synced prefix count and chain
        tail."""
        length = self._lengths[source]
        for name, _ in self.POINT_COLUMNS:
            cells = getattr(self, name).reshape(-1, self.capacity)
            cells[row, :length] = cells[source, :length]
        for name in ("lengths", "synced", "chain_tail"):
            column = getattr(self, name)
            column[row] = column[source]

    @property
    def next_token(self) -> int:
        """The token the next kept request gets."""
        return self._first_token + len(self._records)

    def record_at(self, index: int) -> PushRequest:
        """The committed request of the point at flat index ``index``."""
        return self._records[self._tokens[index] - self._first_token]

    def keep(self, requests: Sequence[PushRequest], now: float) -> None:
        """Keep the requests of the points just written with tokens
        :attr:`next_token` onwards.

        Every so often it first forgets the requests that no rollback can
        reach any more: a rollback at ``now`` or later only touches points
        acknowledged after ``now``, all of which sit in slots whose chain
        tail is after ``now``, and tokens grow along every row.
        """
        held = self._records
        if len(held) >= self._prune_at:
            first = self.next_token
            times = self._times
            tokens = self._tokens
            for slot in np.flatnonzero(self.chain_tail[:self.rows] > now).tolist():
                base = slot * self.capacity
                top = base + self._lengths[slot]
                pending = bisect_right(times, now, base, top)
                if pending < top:
                    first = min(first, tokens[pending])
            del held[:first - self._first_token]
            self._first_token = first
            self._prune_at = max(1024, 2 * len(held))
        held.extend(requests)

    def commit(self, row: int, requests: Sequence[PushRequest], env: Environment,
               per_byte_cost: float, count: int = 1,
               server_time: Optional[Callable[[float, float], float]] = None) -> None:
        """Commit ``requests``, in FIFO order, into ``row``'s live window (or
        a new one): the one place a push becomes a point.

        ``row`` is one server's slot (``count`` 1), or the lock-step group's
        row standing for its ``count`` members, which share its chain tail
        and overhead.  Handling starts at ``max(chain_tail, now)`` and each
        acknowledgement is the running total ``t + handling``, summed left
        to right exactly as per-request stepping does.  A request's handling
        is the row's overhead plus its bytes at ``per_byte_cost``, or, for a
        contended server, ``server_time(nbytes, t)`` at its start ``t``.
        Each acknowledgement counts the request's latch down ``count`` times
        or, for a private event, is scheduled at its time
        (:attr:`PushRequest.done_id`).  A chain tail at or after now is a
        live window, which the requests join; a strictly earlier one opens a
        new one.  The commit credits its logical events: per member, one
        for each request and one for a window opened (the park/pop that
        starts a parked server's handling) — the window itself schedules no
        event.  The caller checks beforehand that every server the row
        stands for accepts the commit.
        """
        now = env._now
        length = self._lengths[row]
        end = length + len(requests)
        if end > self.capacity:
            # Growing the store replaces every column and its view: read
            # them only after.
            self.reserve(end)
        t = self._chain_tail[row]
        opened = t < now
        if opened:
            t = now
        overhead = self._overhead[row]
        times = self._times
        values = self._values
        tokens = self._tokens
        index = row * self.capacity + length
        token = self._first_token + len(self._records)
        for request in requests:
            if server_time is None:
                handling = overhead + request.nbytes * per_byte_cost
            else:
                handling = server_time(request.nbytes, t)
            ack = t + handling
            done = request.done
            # A latch is never triggered here: it fires only after its last
            # contribution, and a rollback rescinds one before it requeues
            # the request.
            if type(done) is CountdownEvent:
                done.count_down_at(ack, count)
            elif done._value is PENDING:
                request.done_id = env.schedule_at(done, ack, ack)
            times[index] = ack
            values[index] = handling
            tokens[index] = token
            index += 1
            token += 1
            t = ack
        self._lengths[row] = end
        self._chain_tail[row] = t
        self.keep(requests, now)
        env.coalesced_count += count * (end - length + opened)


class ParameterServer:
    """The simulation process of one server node.

    Everything a server shares with the rest of the job — environment,
    config, scheduler, metrics, the tier's :class:`ServerStateArrays`, the
    delay fraction and the hooks of elastic retirement and warm-standby
    promotion — is read from ``job``; the server owns only its node, its
    backlog and its slot.
    """

    def __init__(self, job: "PSTrainingJob", node: Node) -> None:
        self.job = job
        self.node = node
        # Plain attributes (none of them ever changes): read per request,
        # where a lookup through the job or the node adds up.
        self.env = job.env
        self.config = job.config
        self.name = node.name
        # The FIFO backlog of requests waiting for the server process, and
        # the event the process parks on while the backlog is empty (None
        # while it runs, and from the moment ``_feed`` succeeds it).
        self._backlog: Deque[PushRequest] = deque()
        self._getter: Optional[Event] = None
        # Per-server state lives in the job-owned columns (chain tail,
        # overhead, window, the ``server_bpt`` row).
        self._state = state = job.server_state
        self._slot = state.allocate_slot(node.device.base_overhead)
        # The row holding this server's chain tail and series: the group's
        # while the server is in lock step (see form_group), else its slot.
        self._row = self._slot
        self.process = None
        self._restart_requested = False
        self._scale_in_requested = False
        # True exactly while the server process is parked on an empty queue:
        # the window in which an arriving request can be committed eagerly
        # at submit time without reordering against queued work.
        self._accepting = False
        # Whether a fan-out may commit for this server right now: it is
        # accepting and its contention model is null (affine handling
        # times).  Read only to keep the group's ``group_ineligible``.
        self._eligible = False
        # The slot's row, registered as this server's ``server_bpt`` series:
        # the Monitor's whole view of the server (Monitor.server_bpt_means
        # reads it).
        self._bpt_series = MetricSeries(state, self._slot)
        job.metrics.attach("server_bpt", self.name, self._bpt_series)
        # Heap id of the wake-up armed for a backlog held behind the live
        # window (None without one).
        self._wake_id: Optional[int] = None
        # A mid-run contention swap invalidates the handling times of a
        # committed window (and the server's fan-out eligibility).
        node.add_contention_listener(self._on_contention_change)

    def start(self) -> None:
        """Launch the server's simulation process."""
        self.process = self.env.process(self.run())

    # -- lock-step group -------------------------------------------------------------
    @staticmethod
    def form_group(servers: Sequence["ParameterServer"]) -> None:
        """Put ``servers`` — fresh servers sharing one store — in lock step
        on one group row, if there are two or more, coalescing is on and
        their devices share one base overhead (see the module docstring)."""
        overheads = {server.node.device.base_overhead for server in servers}
        if len(servers) < 2 or not servers[0].env.coalesce or len(overheads) != 1:
            return
        row = servers[0]._state.add_group(
            [server._slot for server in servers], overheads.pop(),
            sum(not server._eligible for server in servers))
        for server in servers:
            server._row = server._bpt_series._row = row

    def _detach(self) -> None:
        """Take this server, still in the group, out of it.

        Its slot row becomes an exact copy of the group row and holds its
        state from now on.  The group is no longer intact: no fan-out
        commits to it again, and its row only serves the members that never
        write on their own.
        """
        state = self._state
        state.copy_row(state.group_row, self._slot)
        state.group_intact = False
        self._row = self._bpt_series._row = self._slot

    # -- fan-out eligibility ---------------------------------------------------------
    def _set_accepting(self, value: bool) -> None:
        if self._accepting != value:
            self._accepting = value
            self._sync_eligibility()

    def _sync_eligibility(self) -> None:
        """Refresh this server's fan-out eligibility; a group member keeps
        the group's count of ineligible members."""
        eligible = self._accepting and self.node.contention.is_null
        if eligible != self._eligible:
            self._eligible = eligible
            if self._row != self._slot:
                self._state.group_ineligible += -1 if eligible else 1

    # -- worker-facing API --------------------------------------------------------
    def submit(self, worker: str, nbytes: float, done: Optional[Event] = None) -> Event:
        """Enqueue a push request; the returned event fires when it is applied.

        ``done`` may be a shared :class:`CountdownEvent` covering the pushes
        of one iteration (one slot per server); the server then counts its
        slot down instead of succeeding a private acknowledgement event.

        While the server is parked on an empty backlog and its contention is
        deterministic, the request is committed right here (see the module
        docstring) and never enters the queue.
        """
        env = self.env
        request = PushRequest(worker, nbytes, done if done is not None else Event(env))
        if self._accepting and env.coalesce and self.node.contention.is_deterministic:
            self._commit((request,))
            return request.done
        self.enqueue(request)
        return request.done

    def enqueue(self, request: PushRequest) -> None:
        """Queue a request behind everything before it (the slow path of
        ``submit``, and the drain re-route path); see :meth:`_hand_off`."""
        self._backlog.append(request)
        self._hand_off()

    def _hand_off(self) -> None:
        """Pass a parked server's backlog on, preserving FIFO order.

        A live window keeps the server logically *busy* until its last
        acknowledgement, where the wake-up armed here (:meth:`_on_wake`)
        commits the backlog; without one the parked process takes the head
        right away.  A parked server without a backlog accepts eager
        commits.
        """
        if self._getter is None:
            return
        backlog = self._backlog
        self._set_accepting(not backlog)
        tail = self._state._chain_tail[self._row]
        if backlog and tail < self.env._now:
            self._feed()
        elif backlog and self._wake_id is None:
            wake = Event(self.env)
            wake.callbacks.append(self._on_wake)
            self._wake_id = self.env.schedule_at(wake, tail)

    def _feed(self) -> None:
        """Succeed the parked getter with the head of the (non-empty) backlog."""
        getter, self._getter = self._getter, None
        getter.succeed(self._backlog.popleft())

    def take_backlog(self) -> List[PushRequest]:
        """Remove and return every queued request, oldest first.

        The deque is emptied in place, never replaced: the run loop holds it.
        """
        taken = list(self._backlog)
        self._backlog.clear()
        return taken

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
        returns to the backlog front, where the purge below catches the
        departing worker's requests like any other queued push.
        """
        self._rollback_window(self.env.now, keep_in_flight=True)
        backlog = self._backlog
        keep = [request for request in backlog if request.worker != worker]
        dropped = len(backlog) - len(keep)
        if dropped:
            backlog.clear()
            backlog.extend(keep)
        # The survivors wait behind the window's in-flight request.
        self._hand_off()
        return dropped

    def pending_request_count(self) -> int:
        """Queued pushes awaiting handling (excludes the one being handled).

        Matches the uncoalesced server's backlog length: requests that a
        coalesced window committed but whose handling has not *started* yet
        still count as queued; the in-flight one does not.
        """
        state = self._state
        base = self._row * state.capacity
        top = base + state._lengths[self._row]
        # Past the in-flight one, each request acknowledged after now starts
        # at its predecessor's acknowledgement, also after now: it waits.
        acked = bisect_right(state._times, self.env.now, base, top)
        return len(self._backlog) + max(0, top - acked - 1)

    def on_cohort_change(self) -> None:
        """Worker membership changed: re-plan any committed window.

        The active-worker count feeds the delay fraction the server samples
        per request, so acknowledgements past this instant were committed
        under stale inputs.  The delivered prefix and the in-flight request
        keep their (correct, pre-change) decisions; the rescinded tail
        re-enters the backlog and is re-planned at wake-up.
        """
        self._replan()

    def _on_contention_change(self, _node: Node) -> None:
        """Contention model swapped mid-run: committed handling times are stale."""
        self._replan()
        self._sync_eligibility()

    def _replan(self) -> None:
        """Roll the committed window back to its in-flight request.

        The retained in-flight entry is still being handled: the requeued
        tail waits for its acknowledgement.
        """
        self._rollback_window(self.env.now, keep_in_flight=True)
        self._hand_off()

    def finalize_run(self) -> None:
        """Rewind speculative state past the end of the run.

        Called once per server when the job builds its result: a coalesced
        window may extend beyond the instant the run stopped (completion or
        deadline), and the uncoalesced server would not yet have recorded the
        still-in-flight request or the queued tail.  Dropping the in-flight
        entry (its handling never completed) and restoring the tail to the
        backlog leaves every observable exactly where per-request stepping
        leaves it.  A group member whose group row holds no point after the
        stop stays in the group: every member rewinds at this instant, so
        its chain tail alone is seen by nobody.
        """
        self._rollback_window(self.env.now, keep_in_flight=False, final=True)

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
        restarting, already retiring, or its process finished.  A granted
        request interrupts the serving loop with the :data:`SCALE_IN`
        sentinel; the drain hands every unacknowledged request — queued and
        in-flight — to the job (:meth:`PSTrainingJob.server_departed
        <repro.psarch.job.PSTrainingJob.server_departed>`), which
        re-partitions the parameter shards and re-routes the requests to the
        surviving servers.
        """
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
        almost always *parked*: requests are committed at submit time and
        never reach the backlog, and a backlog held behind a live window is
        committed by the window's wake-up.  The loop only turns when a
        backlog exists without a live window (post-restart, or a drain
        re-route reaching an idle server) — then it commits the popped
        request and the whole backlog behind it into a window and parks
        again — or when the contention model is non-deterministic, in which
        case it steps request by request.
        """
        current: Optional[PushRequest] = None
        get_event: Optional[Event] = None
        # Hot-loop locals: the loop body runs once per popped request.  All
        # bound objects are stable across restarts (only the node's *status*
        # changes).
        job = self.job
        env = self.env
        backlog = self._backlog
        node = self.node
        per_byte_cost = self.config.server_per_byte_cost_s
        bpt_series = self._bpt_series
        while True:
            try:
                # Backed-up server: take the next request synchronously; park
                # on a getter only when the backlog is empty (``_feed``
                # succeeds it with the next request to arrive).
                if backlog:
                    current = backlog.popleft()
                else:
                    self._set_accepting(True)
                    get_event = self._getter = Event(env)
                    current = yield get_event
                    get_event = None
                self._set_accepting(False)
                if env.coalesce and node.contention.is_deterministic:
                    # Every handling time in the current backlog is a closed
                    # form of the pop time: commit them all as one window
                    # (see the module docstring).  The loop gets here only
                    # without a live window, so the commit opens one, and
                    # that credits the pop that starts a parked server's
                    # handling; here that pop already happened (or was
                    # synchronous), so its credit goes back.
                    self._commit([current, *backlog])
                    backlog.clear()
                    current = None
                    env.coalesced_count -= 1
                    continue
                fraction = float(job.server_delay_fraction())
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
                        done.count_down()
                    else:
                        done.succeed(env.now)
                if self._row != self._slot:
                    self._detach()
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
                # the backlog front (where per-request stepping left it).
                undelivered: List[PushRequest] = []
                in_flight = self._rollback_window(env.now, keep_in_flight=False)
                if in_flight is not None and not in_flight.done.triggered:
                    undelivered.append(in_flight)
                if get_event is not None:
                    # Withdraw the getter; one that was already fed carries a
                    # request the process never resumed to take.
                    self._getter = None
                    if get_event.triggered and not get_event.value.done.triggered:
                        undelivered.append(get_event.value)
                    get_event = None
                if current is not None and not current.done.triggered:
                    undelivered.append(current)
                    current = None
                if cause is SCALE_IN:
                    # Graceful retirement: hand every unacknowledged request
                    # (in-flight and queued) to the job, which re-partitions
                    # the parameter shards and re-routes the requests to the
                    # surviving servers, then leave the simulation for good.
                    undelivered.extend(self.take_backlog())
                    yield from job.server_departed(self, undelivered)
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
                # owner); the backlog then stays empty until recovery.
                code = cause if isinstance(cause, ErrorCode) else ErrorCode.PROACTIVE_KILL
                if not job.server_outage(self, undelivered):
                    for request in reversed(undelivered):
                        if job.worker_requeue_ok(request.worker):
                            backlog.appendleft(request)
                yield from job.scheduler.relaunch(node, code)
                yield env.timeout(self.config.server_recovery_time_s)
                self._restart_requested = False
                job.server_recovered(self)

    # -- coalesced windows ---------------------------------------------------------
    def _commit(self, requests: Sequence[PushRequest]) -> None:
        """Commit ``requests``, in FIFO order, into this server's live window
        (or a new one) with :meth:`ServerStateArrays.commit`; a group member
        leaves the group first.

        Acknowledgements are published at once via absolute-time scheduling
        and ``server_bpt`` points are written eagerly (windowed queries are
        bisect-bounded, so future-dated observations stay invisible until
        due).  A contended server's handling is ``node.server_time`` at each
        request's start; the delay fraction, which the uncoalesced loop
        re-reads per request, is read once: any event that could move it
        also rolls the window back.
        """
        if self._row != self._slot:
            self._detach()
        node = self.node
        per_byte_cost = self.config.server_per_byte_cost_s
        server_time = None
        if not node.contention.is_null:
            server_time = partial(node.server_time, per_byte_cost=per_byte_cost,
                                  delay_fraction=float(self.job.server_delay_fraction()))
        self._state.commit(self._slot, requests, self.env, per_byte_cost,
                           server_time=server_time)

    def _on_wake(self, _wake: Event) -> None:
        """Serve the held backlog at the window's last acknowledgement.

        The uncoalesced server was busy until this instant and takes its
        backlog synchronously, so this pop stands for no logical event.  The
        backlog joins the window (its tail is now) and the parked process
        accepts eager commits again; it is never resumed.  A model that is
        no longer deterministic steps the backlog request by request
        instead: the window closes and the parked process takes the head
        through its getter, whose pop stands for no logical event either.
        Either way the server writes on its own: a group member leaves the
        group first.
        """
        env = self.env
        self._wake_id = None
        if self._row != self._slot:
            self._detach()
        env.coalesced_count -= 1
        if self.node.contention.is_deterministic:
            self._commit(self.take_backlog())
            self._set_accepting(True)
        else:
            self._state._chain_tail[self._slot] = -math.inf
            env.coalesced_count -= 1
            self._feed()

    def _rollback_window(self, now: float, keep_in_flight: bool,
                         final: bool = False) -> Optional[PushRequest]:
        """Rescind the undelivered tail of the committed window, if any.

        Points acknowledged at or before ``now`` are delivered and stay; the
        row is time-ordered, so the later ones are the window's undelivered
        tail.  The first of them is *in flight* (its handling started at or
        before ``now``): with ``keep_in_flight`` its committed outcome is
        preserved and the window now ends at its acknowledgement; otherwise
        it is rescinded with the rest and its request returned, and the
        server has no window left.  Later points never started: their
        requests go back to the backlog front, in order, for re-planning.  A
        held backlog's wake-up is discarded: the caller holds the backlog
        again behind the window's new end.

        Each committed request wrote one point, and nothing else writes the
        row while a window is open, so cutting the row after the points
        that stay leaves the series exactly as per-request stepping would
        have left it at ``now``.

        A group member rolls back its own copy of the group row, and only
        when a sibling could tell the difference: the rollback rescinds
        points, or it drops a chain tail at ``now`` that a commit at this
        instant would still join (unless the run stopped: ``final``).
        Otherwise it stays in the group and writes nothing.
        """
        env = self.env
        state = self._state
        row = self._row
        if self._wake_id is not None:
            env.discard_scheduled(self._wake_id)
            self._wake_id = None
        base = row * state.capacity
        top = base + state._lengths[row]
        times = state._times
        in_flight = bisect_right(times, now, base, top)
        stop = in_flight + 1 if keep_in_flight else in_flight
        if row != self._slot:
            if stop >= top and (keep_in_flight or final or state._chain_tail[row] < now):
                return None
            self._detach()
            return self._rollback_window(now, keep_in_flight)
        if not keep_in_flight:
            state._chain_tail[row] = -math.inf
        if in_flight == top:
            # Nothing acknowledged after now: nothing speculative to unwind.
            return None
        # 1. Rescind the undelivered acknowledgements, newest first.
        rescinded = []
        for index in range(top - 1, stop - 1, -1):
            request = state.record_at(index)
            done = request.done
            if type(done) is CountdownEvent:
                done.rescind(times[index])
            elif request.done_id is not None:
                env.discard_scheduled(request.done_id)
                done._ok = None
                done._value = PENDING
            rescinded.append(request)
        # 2. A kept in-flight request ends the window.
        if keep_in_flight:
            state._chain_tail[row] = times[in_flight]
        # 3. Cut the series after the points that stay.
        self._bpt_series.truncate(stop - base)
        # 4. The window credited one logical event per request (its
        #    park/pop stays credited): take back the rescinded ones.
        env.coalesced_count -= top - stop
        # 5. The never-started requests return to the backlog front.
        dropped = None if keep_in_flight else rescinded.pop()
        self._backlog.extendleft(rescinded)
        return dropped
