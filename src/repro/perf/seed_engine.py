"""Frozen snapshot of the seed discrete-event engine (perf baseline).

This module is a verbatim copy of ``repro.sim.engine`` as it stood before the
engine fast-path optimisations, kept so the perf harness can measure the
optimised engine against the exact seed implementation on the same machine
and report an honest speedup.  Do not optimise or
otherwise edit this file; it is not used by the simulator itself.

This module is the foundation substrate for the whole reproduction.  The paper
evaluates AntDT on physical Ant Group clusters; here every timing phenomenon
(batch processing time, queueing at parameter servers, barrier waits, pod
pending time, failover delay) is reproduced on top of a small generator-based
discrete-event simulator in the style of SimPy.

The public surface mirrors the subset of SimPy semantics we need:

* :class:`Environment` — owns the simulation clock and the event heap.
* :class:`Event` — one-shot events with callbacks, ``succeed``/``fail``.
* :class:`Timeout` — an event scheduled ``delay`` units in the future.
* :class:`Process` — a generator-based coroutine; yields events to wait on and
  can be interrupted (used to model node kills in ``KILL_RESTART``).
* :class:`AllOf` / :class:`AnyOf` — condition events over several events.
* :class:`Store` — an unbounded FIFO channel used for message queues between
  workers, servers, agents and the controller.

Example
-------
>>> env = Environment()
>>> def hello(env, log):
...     yield env.timeout(3.0)
...     log.append(env.now)
>>> log = []
>>> _ = env.process(hello(env, log))
>>> env.run()
>>> log
[3.0]
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Any, Callable, Generator, Iterable, List, Optional

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "AllOf",
    "AnyOf",
    "Store",
    "StopSimulation",
    "PENDING",
]


class _PendingType:
    """Sentinel for an event value that has not been decided yet."""

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return "<PENDING>"


#: Sentinel used as the value of untriggered events.
PENDING = _PendingType()

#: Scheduling priorities.  Urgent events (process initialisation, interrupts)
#: run before normal events scheduled for the same simulation time.
_URGENT = 0
_NORMAL = 1


class StopSimulation(Exception):
    """Raised internally to stop :meth:`Environment.run` at a given event."""


class Interrupt(Exception):
    """Thrown into a :class:`Process` when it is interrupted.

    The ``cause`` attribute carries the reason supplied by the interrupter,
    e.g. a :class:`~repro.core.actions.KillRestart` action or a failure
    description from the failure injector.
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause

    def __repr__(self) -> str:
        return f"Interrupt({self.cause!r})"


class Event:
    """A one-shot event that may succeed or fail.

    Events move through three stages: *pending* (just created), *triggered*
    (a value or an exception has been decided and the event sits in the event
    heap), and *processed* (callbacks have run).
    """

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: Optional[bool] = None
        self._defused = False

    # -- state ------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once a value or exception has been decided."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise RuntimeError(f"{self!r} has not yet been triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The value the event succeeded with (or its exception)."""
        if self._value is PENDING:
            raise RuntimeError(f"{self!r} has not yet been triggered")
        return self._value

    def defused(self) -> None:
        """Mark a failed event as handled so it does not crash the run."""
        self._defused = True

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self.triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.env._schedule(self, _NORMAL)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception."""
        if self.triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise ValueError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self.env._schedule(self, _NORMAL)
        return self

    def trigger(self, event: "Event") -> None:
        """Copy the outcome of another event onto this one (callback helper)."""
        self._ok = event._ok
        self._value = event._value
        self.env._schedule(self, _NORMAL)

    def __repr__(self) -> str:
        state = "processed" if self.processed else ("triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` time units after creation."""

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        super().__init__(env)
        self.delay = delay
        self._ok = True
        self._value = value
        env._schedule(self, _NORMAL, delay)


class _Initialize(Event):
    """Internal event that starts a :class:`Process` on the next step."""

    def __init__(self, env: "Environment", process: "Process") -> None:
        super().__init__(env)
        self._ok = True
        self._value = None
        self.callbacks.append(process._resume)
        env._schedule(self, _URGENT)


class _InterruptTrigger(Event):
    """Internal event that delivers an :class:`Interrupt` to a process."""

    def __init__(self, process: "Process", cause: Any) -> None:
        super().__init__(process.env)
        self._ok = False
        self._value = Interrupt(cause)
        self._defused = True
        self.callbacks.append(process._resume)
        process.env._schedule(self, _URGENT)


class Process(Event):
    """A coroutine driven by the environment.

    The wrapped generator yields :class:`Event` instances; the process is
    resumed with the event's value when it triggers (or the event's exception
    is thrown into the generator).  The process itself is an event that
    triggers with the generator's return value when it finishes.
    """

    def __init__(self, env: "Environment", generator: Generator) -> None:
        if not hasattr(generator, "throw"):
            raise ValueError("Process requires a generator")
        super().__init__(env)
        self._generator = generator
        self._target: Optional[Event] = None
        _Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return self._value is PENDING

    @property
    def target(self) -> Optional[Event]:
        """The event this process currently waits on (None when running)."""
        return self._target

    def interrupt(self, cause: Any = None) -> None:
        """Interrupt the process, throwing :class:`Interrupt` into it.

        Interrupting a finished process is an error; interrupting a process
        that currently waits on an event detaches it from that event first.
        """
        if not self.is_alive:
            raise RuntimeError(f"{self!r} has terminated and cannot be interrupted")
        if self._target is self:
            raise RuntimeError("a process cannot interrupt itself while running")
        _InterruptTrigger(self, cause)

    # -- driver -----------------------------------------------------------
    def _resume(self, event: Event) -> None:
        self.env._active_process = self
        # Remove ourselves from the old target if we were pre-empted by an
        # interrupt while waiting on a different event.
        if self._target is not None and self._target is not event:
            if self._target.callbacks is not None and self._resume in self._target.callbacks:
                self._target.callbacks.remove(self._resume)
        self._target = None

        while True:
            try:
                if event._ok:
                    next_event = self._generator.send(event._value)
                else:
                    event._defused = True
                    next_event = self._generator.throw(event._value)
            except StopIteration as exc:
                self._ok = True
                self._value = getattr(exc, "value", None)
                self.env._schedule(self, _NORMAL)
                break
            except BaseException as exc:  # noqa: BLE001 - propagate into event graph
                self._ok = False
                self._value = exc
                self.env._schedule(self, _NORMAL)
                break

            if not isinstance(next_event, Event):
                exc = RuntimeError(
                    f"process yielded a non-event {next_event!r}; yield env.timeout(...) "
                    "or another Event instance"
                )
                event = Event(self.env)
                event._ok = False
                event._value = exc
                continue

            if next_event.callbacks is None:
                # Already processed: resume immediately with its outcome.
                event = next_event
                continue

            next_event.callbacks.append(self._resume)
            self._target = next_event
            break

        self.env._active_process = None


class _Condition(Event):
    """Base class for :class:`AllOf` / :class:`AnyOf`.

    An input event only counts as "done" once it has been *processed* by the
    environment (its callbacks have run).  This matters for timeouts, which
    carry their value from creation but only fire at their scheduled time.
    """

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self._events = list(events)
        self._done_count = 0
        for event in self._events:
            if not isinstance(event, Event):
                raise ValueError(f"{event!r} is not an Event")
        for event in self._events:
            if event.callbacks is None:
                # Already processed before the condition was created.
                if not event._ok:
                    event._defused = True
                    if not self.triggered:
                        self.fail(event._value)
                    return
                self._done_count += 1
            else:
                event.callbacks.append(self._observe)
        self._check_done()

    def _observe(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._done_count += 1
        self._check_done()

    def _check_done(self) -> None:
        raise NotImplementedError

    def _collect(self) -> List[Any]:
        return [event._value for event in self._events
                if event.callbacks is None and event.triggered and event._ok]


class AllOf(_Condition):
    """Triggers once every event in ``events`` has been processed successfully."""

    def _check_done(self) -> None:
        if self._done_count >= len(self._events) and not self.triggered:
            self.succeed(self._collect())


class AnyOf(_Condition):
    """Triggers as soon as any event in ``events`` has been processed successfully."""

    def _check_done(self) -> None:
        if not self.triggered and (self._done_count >= 1 or not self._events):
            self.succeed(self._collect())


class Store:
    """An unbounded FIFO channel between processes.

    ``put`` never blocks; ``get`` returns an event that triggers with the
    oldest item as soon as one is available.  This models the message queues
    between workers and parameter servers as well as the shard queue inside
    the Stateful DDS.
    """

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.items: deque = deque()
        self._getters: deque = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> Event:
        """Insert ``item`` and immediately satisfy a waiting getter if any."""
        event = Event(self.env)
        event.succeed(item)
        self.items.append(item)
        self._dispatch()
        return event

    def put_left(self, item: Any) -> Event:
        """Insert ``item`` at the head of the queue (priority re-insertion)."""
        event = Event(self.env)
        event.succeed(item)
        self.items.appendleft(item)
        self._dispatch()
        return event

    def get(self) -> Event:
        """Return an event that triggers with the next available item."""
        event = Event(self.env)
        self._getters.append(event)
        self._dispatch()
        return event

    def try_get(self) -> Optional[Any]:
        """Non-blocking get: return an item or ``None`` when empty."""
        if self.items and not self._getters:
            return self.items.popleft()
        return None

    def cancel(self, get_event: Event) -> bool:
        """Withdraw a pending get request.

        Returns True if the request was still pending and has been removed.
        If the request already triggered, the caller still owns the delivered
        item (``get_event.value``) and is responsible for re-inserting it if
        it can no longer be processed (e.g. the consumer was interrupted).
        """
        try:
            self._getters.remove(get_event)
            return True
        except ValueError:
            return False

    def _dispatch(self) -> None:
        while self.items and self._getters:
            getter = self._getters.popleft()
            if getter.triggered:
                continue
            getter.succeed(self.items.popleft())


class Environment:
    """The simulation environment: clock, event heap and run loop."""

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._queue: List = []
        self._eid = itertools.count()
        self._active_process: Optional[Process] = None

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed (None between steps)."""
        return self._active_process

    # -- factories ---------------------------------------------------------
    def event(self) -> Event:
        """Create a new pending event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires after ``delay`` simulation time units."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator) -> Process:
        """Start a new process from a generator."""
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Condition that waits for all ``events``."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Condition that waits for the first of ``events``."""
        return AnyOf(self, events)

    def store(self) -> Store:
        """Create a new FIFO :class:`Store`."""
        return Store(self)

    # -- scheduling ---------------------------------------------------------
    def _schedule(self, event: Event, priority: int, delay: float = 0.0) -> None:
        heapq.heappush(self._queue, (self._now + delay, priority, next(self._eid), event))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` when the queue is empty."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process the next scheduled event."""
        if not self._queue:
            raise RuntimeError("no more events scheduled")
        when, _priority, _eid, event = heapq.heappop(self._queue)
        self._now = when
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            raise event._value

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run until the event heap drains), a number
        (run until the clock reaches that time), or an :class:`Event` (run
        until that event is processed and return its value).
        """
        stop_event: Optional[Event] = None
        if until is None:
            stop_time = float("inf")
        elif isinstance(until, Event):
            stop_event = until
            stop_time = float("inf")
            if stop_event.callbacks is None:
                return stop_event.value
            stop_event.callbacks.append(self._stop_callback)
        else:
            stop_time = float(until)
            if stop_time < self._now:
                raise ValueError(f"until={stop_time} lies in the past (now={self._now})")

        try:
            while self._queue:
                if self.peek() > stop_time:
                    self._now = stop_time
                    return None
                self.step()
        except StopSimulation as stop:
            return stop.args[0] if stop.args else None

        if stop_event is not None and not stop_event.triggered:
            raise RuntimeError("run(until=event) finished but the event never triggered")
        if until is not None and not isinstance(until, Event):
            self._now = stop_time
        return stop_event.value if stop_event is not None else None

    @staticmethod
    def _stop_callback(event: Event) -> None:
        if event._ok:
            raise StopSimulation(event._value)
        raise event._value
