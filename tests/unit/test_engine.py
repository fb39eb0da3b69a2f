"""Unit tests for the discrete-event simulation engine."""

import heapq

import pytest

from repro.sim.engine import (
    AllOf,
    AnyOf,
    CountdownEvent,
    Environment,
    Event,
    PENDING,
    Interrupt,
    Store,
    Timeout,
)


def test_timeout_advances_clock():
    env = Environment()
    log = []

    def proc(env):
        yield env.timeout(5.0)
        log.append(env.now)

    env.process(proc(env))
    env.run()
    assert log == [5.0]


def test_environment_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1.0)


def test_sequential_timeouts_accumulate():
    env = Environment()
    times = []

    def proc(env):
        for delay in (1.0, 2.0, 3.0):
            yield env.timeout(delay)
            times.append(env.now)

    env.process(proc(env))
    env.run()
    assert times == [1.0, 3.0, 6.0]


def test_two_processes_interleave():
    env = Environment()
    order = []

    def proc(env, name, delay):
        yield env.timeout(delay)
        order.append(name)

    env.process(proc(env, "slow", 10.0))
    env.process(proc(env, "fast", 1.0))
    env.run()
    assert order == ["fast", "slow"]


def test_run_until_time_stops_clock():
    env = Environment()

    def proc(env):
        while True:
            yield env.timeout(1.0)

    env.process(proc(env))
    env.run(until=5.5)
    assert env.now == 5.5


def test_run_until_event_returns_value():
    env = Environment()
    done = env.event()

    def proc(env, done):
        yield env.timeout(3.0)
        done.succeed("finished")

    env.process(proc(env, done))
    assert env.run(until=done) == "finished"
    assert env.now == 3.0


def test_event_succeed_twice_raises():
    env = Environment()
    event = env.event()
    event.succeed(1)
    with pytest.raises(RuntimeError):
        event.succeed(2)


def test_event_value_before_trigger_raises():
    env = Environment()
    event = env.event()
    with pytest.raises(RuntimeError):
        _ = event.value


def test_event_fail_requires_exception():
    env = Environment()
    event = env.event()
    with pytest.raises(ValueError):
        event.fail("not an exception")


def test_process_return_value():
    env = Environment()

    def proc(env):
        yield env.timeout(1.0)
        return 42

    process = env.process(proc(env))
    env.run()
    assert process.value == 42


def test_process_waits_on_event():
    env = Environment()
    gate = env.event()
    log = []

    def waiter(env, gate):
        value = yield gate
        log.append((env.now, value))

    def opener(env, gate):
        yield env.timeout(7.0)
        gate.succeed("open")

    env.process(waiter(env, gate))
    env.process(opener(env, gate))
    env.run()
    assert log == [(7.0, "open")]


def test_yield_non_event_raises():
    env = Environment()

    def proc(env):
        yield 123

    env.process(proc(env))
    with pytest.raises(RuntimeError):
        env.run()


def test_interrupt_waiting_process():
    env = Environment()
    log = []

    def victim(env):
        try:
            yield env.timeout(100.0)
        except Interrupt as interrupt:
            log.append((env.now, interrupt.cause))

    def killer(env, target):
        yield env.timeout(2.0)
        target.interrupt("die")

    target = env.process(victim(env))
    env.process(killer(env, target))
    env.run()
    assert log == [(2.0, "die")]


def test_interrupt_finished_process_raises():
    env = Environment()

    def quick(env):
        yield env.timeout(1.0)

    process = env.process(quick(env))
    env.run()
    with pytest.raises(RuntimeError):
        process.interrupt()


def test_interrupted_process_can_continue():
    env = Environment()
    log = []

    def victim(env):
        try:
            yield env.timeout(100.0)
        except Interrupt:
            yield env.timeout(5.0)
            log.append(env.now)

    def killer(env, target):
        yield env.timeout(1.0)
        target.interrupt()

    target = env.process(victim(env))
    env.process(killer(env, target))
    env.run()
    assert log == [6.0]


def test_all_of_waits_for_every_timeout():
    env = Environment()
    log = []

    def proc(env):
        yield AllOf(env, [env.timeout(2.0), env.timeout(5.0), env.timeout(1.0)])
        log.append(env.now)

    env.process(proc(env))
    env.run()
    assert log == [5.0]


def test_any_of_fires_on_first_timeout():
    env = Environment()
    log = []

    def proc(env):
        yield env.any_of([env.timeout(2.0), env.timeout(5.0)])
        log.append(env.now)

    env.process(proc(env))
    env.run()
    assert log == [2.0]


def test_any_of_with_pending_events():
    env = Environment()
    first = env.event()
    second = env.event()
    log = []

    def proc(env):
        yield env.any_of([first, second])
        log.append(env.now)

    def trigger(env):
        yield env.timeout(4.0)
        second.succeed()

    env.process(proc(env))
    env.process(trigger(env))
    env.run()
    assert log == [4.0]


def test_store_fifo_order():
    env = Environment()
    received = []

    def producer(env, store):
        for item in ("a", "b", "c"):
            yield env.timeout(1.0)
            store.put(item)

    def consumer(env, store):
        for _ in range(3):
            item = yield store.get()
            received.append(item)

    store = Store(env)
    env.process(producer(env, store))
    env.process(consumer(env, store))
    env.run()
    assert received == ["a", "b", "c"]


def test_store_get_blocks_until_put():
    env = Environment()
    log = []

    def consumer(env, store):
        item = yield store.get()
        log.append((env.now, item))

    def producer(env, store):
        yield env.timeout(3.0)
        store.put("late")

    store = Store(env)
    env.process(consumer(env, store))
    env.process(producer(env, store))
    env.run()
    assert log == [(3.0, "late")]


def test_failed_event_propagates_into_process():
    env = Environment()
    log = []

    def proc(env, gate):
        try:
            yield gate
        except RuntimeError as error:
            log.append(str(error))

    gate = env.event()
    env.process(proc(env, gate))
    gate.fail(RuntimeError("boom"))
    env.run()
    assert log == ["boom"]


def test_run_until_past_time_raises():
    env = Environment()
    env._now = 10.0
    with pytest.raises(ValueError):
        env.run(until=5.0)


def test_store_put_event_is_already_processed():
    # put never blocks, so its confirmation event is returned pre-processed
    # (no heap traffic per message); yielding it resumes immediately.
    env = Environment()
    store = Store(env)
    event = store.put("thing")
    assert event.triggered and event.processed
    assert event.ok and event.value == "thing"


def test_store_get_with_item_available_is_immediate():
    env = Environment()
    store = Store(env)
    store.put("ready")
    event = store.get()
    assert event.triggered and event.value == "ready"


def test_environment_counts_scheduled_and_processed_events():
    env = Environment()

    def proc(env):
        yield env.timeout(1.0)
        yield env.timeout(2.0)

    env.process(proc(env))
    assert env.processed_count == 0
    env.run()
    assert env.scheduled_count > 0
    # Every scheduled event is eventually processed when the heap drains.
    assert env.processed_count == env.scheduled_count


def test_step_counts_processed_events():
    env = Environment()
    env.timeout(1.0)
    env.step()
    assert env.processed_count == 1
    assert env.now == 1.0


@pytest.mark.parametrize("discard", [(), (3.0,), (5.0,), (3.0, 5.0)])
def test_discarded_entries_are_dropped_uncounted(discard):
    env = Environment()
    delivered = []
    for when in (3.0, 5.0):
        event = env.event()
        event.callbacks.append(lambda event: delivered.append((env.now, event.value)))
        eid = env.schedule_at(event, when, value=when)
        if when in discard:
            env.discard_scheduled(eid)
    env.run()
    kept = [when for when in (3.0, 5.0) if when not in discard]
    assert delivered == [(when, when) for when in kept]
    assert env.processed_count == len(kept)


@pytest.mark.parametrize("whens, fire_delay, fired", [
    ([2.0, 4.0, 4.0], 0.0, (4.0, 4.0)),
    ([5.0, 1.0], 0.0, (5.0, 5.0)),
    ([2.0, 4.0], 0.5, (4.5, 4.0)),  # the delay moves the firing, not the value
])
def test_countdown_fires_at_latest_contribution(whens, fire_delay, fired):
    env = Environment()
    latch = CountdownEvent(env, len(whens), fire_delay=fire_delay)
    armed = [latch.count_down_at(when) for when in whens]
    env.run()
    assert armed[-1] and not any(armed[:-1])
    assert (env.now, latch.value) == fired
    assert env.coalesced_count == (1 if fire_delay else 0)  # the wait rode along


@pytest.mark.parametrize("fire_delay", [0.0, 0.5])
@pytest.mark.parametrize("contributions, rescinded, again", [
    ([(5.0, 3)], (), ()),  # one weighted contribution alone fires at its time
    ([(5.0, 3)], (5.0,), (2.0,)),  # one leaves, comes back earlier: the rest decide
    ([(5.0, 3)], (5.0,), (6.0,)),  # ... or later: the re-contribution decides
    ([(5.0, 2)], (5.0, 5.0), (4.0, 5.5)),  # both leave; both come back
    ([(2.0, 1), (6.0, 1), (3.0, 1)], (6.0,), (4.0,)),  # the latest leaves: re-armed earlier
    ([(2.0, 1), (6.0, 2)], (6.0,), (1.0,)),  # a tie: the other 6.0 still decides
])
def test_countdown_weighted_contributions_fire_like_one_at_a_time(
        contributions, rescinded, again, fire_delay):
    # The lock-step group's fan-out counts a fresh latch down once per member
    # in one call; a rollback rescinds the members one at a time, and the
    # re-commit contributes again.
    def fire(weighted):
        env = Environment()
        latch = CountdownEvent(env, sum(count for _, count in contributions),
                               fire_delay=fire_delay)
        if weighted:
            armed = [latch.count_down_at(when, count) for when, count in contributions]
        else:
            armed = [latch.count_down_at(when)
                     for when, count in contributions for _ in range(count)]
        assert armed[-1] and not any(armed[:-1])
        for when in rescinded:
            latch.rescind(when)
        assert latch.remaining == len(rescinded)
        armed = [latch.count_down_at(when) for when in again]
        assert armed == [index == len(again) - 1 for index in range(len(again))]
        env.run()
        return env.now, latch.value, env.processed_count, env.coalesced_count

    assert fire(weighted=True) == fire(weighted=False)
    held = [when for when, count in contributions for _ in range(count)]
    for when in rescinded:
        held.remove(when)
    latest = max(held + list(again))
    assert fire(weighted=True)[:2] == (latest + fire_delay, latest)


def test_countdown_rescind_on_an_abandoned_latch_leaves_it_untouched():
    # A departing worker abandons its latch; a later rollback may rescind a
    # contribution made before, or one never made (committed after).
    env = Environment()
    latch = CountdownEvent(env, 3)
    assert not latch.count_down_at(2.0, 2)
    latch.abandon()
    latch.rescind(2.0)
    latch.rescind(7.0)
    assert latch.remaining == 1
    assert not latch.count_down_at(4.0)
    env.run()
    assert not latch.triggered
    assert env.scheduled_count == 0


# -- Wakeups: timelines the engine walks, stepped inline while next ----------


def _walk(env, timelines, log):
    """One process walking ``{tag: times}`` through Wakeups; logs (tag, now)."""
    tags = list(timelines)

    def handler(line, index):
        log.append((tags[line], env.now))
        return True

    yield from env.wakeups().walk([list(timelines[tag]) for tag in tags], handler)


def _walk_with_timeouts(env, tag, times, log):
    """The same timeline as one process of plain timeouts (the reference).

    An entry due at the instant its predecessor was handled waits for
    nothing, as in the walk.
    """
    for when in times:
        if when > env.now:
            yield env.timeout(when - env.now)
        log.append((tag, env.now))


@pytest.mark.parametrize("coalesce", [True, False])
def test_wakeups_interleave_like_plain_timeouts(coalesce):
    # Ties with the ticker at 1.0, 2.0 and 3.0; a two-arrival instant at 2.0;
    # and 0.9 reserved at 0.2, where 0.2 + (0.9 - 0.2) rounds to 0.8999...
    timelines = {"a": (0.2, 0.9, 2.0, 2.0, 3.5, 3.7), "b": (0.1, 1.0, 2.0, 2.5, 3.0)}

    def ticker(env, log):
        for delay in (1.0, 1.0, 1.0, 0.7):
            yield env.timeout(delay)
            log.append(("tick", env.now))

    def simulate(use_wakeups):
        env = Environment(coalesce=coalesce)
        log = []
        env.process(ticker(env, log))
        if use_wakeups:
            env.process(_walk(env, timelines, log))
        else:
            for tag, times in timelines.items():
                env.process(_walk_with_timeouts(env, tag, times, log))
        env.run()
        return env, log

    env, log = simulate(use_wakeups=True)
    reference_env, reference = simulate(use_wakeups=False)
    assert log == reference
    assert ("a", 0.2 + (0.9 - 0.2)) in log and ("tick", 2.0) in log
    # One walking process stands in for two: one start and one exit fewer.
    logical = env.processed_count + env.coalesced_count
    assert logical == reference_env.processed_count - 2
    assert env.scheduled_count == reference_env.scheduled_count - 2
    if coalesce:
        assert 0 < env.coalesced_count < sum(map(len, timelines.values()))
    else:
        assert env.coalesced_count == 0


@pytest.mark.parametrize("coalesce", [True, False])
@pytest.mark.parametrize("reserved_first", [True, False])
def test_wakeup_ties_order_by_reservation(coalesce, reserved_first):
    env = Environment(coalesce=coalesce)
    log = []
    credits = []

    def handler(line, index):
        log.append((("early", "wake-up")[line], env.now))
        credits.append(env.coalesced_count)
        return True

    def waker():
        # Both keys are reserved at 0.  "early" lets the sleeper schedule its
        # 2.0 timeout, then the walk takes the wake-up with that timeout on
        # top of the heap.
        yield from env.wakeups().walk([[1.0], [2.0]], handler)

    def sleeper():
        yield env.timeout(2.0)
        log.append(("timeout", env.now))

    first, second = (waker, sleeper) if reserved_first else (sleeper, waker)
    env.process(first())
    env.process(second())
    env.run()
    expected = [("wake-up", 2.0), ("timeout", 2.0)]
    assert log == [("early", 1.0)] + (expected if reserved_first else expected[::-1])
    # The wake-up steps inline (its credit lands before it is handled) only
    # when it was reserved first.
    assert (credits[1] > credits[0]) == (coalesce and reserved_first)


def test_wakeups_stop_at_a_numeric_run_bound():
    env = Environment()
    log = []
    env.process(_walk(env, {"w": (1.0, 2.0, 3.0)}, log))
    env.run(until=2.5)
    assert log == [("w", 1.0), ("w", 2.0)]
    assert env.now == 2.5
    assert env.coalesced_count == 2
    env.run()
    assert log[-1] == ("w", 3.0)
    assert env.now == 3.0


def test_nested_run_restores_the_outer_inline_bound():
    env = Environment()
    log = []
    nested = env.event()
    nested.callbacks.append(lambda _event: env.run(until=0.75))
    env.schedule_at(nested, 0.5)
    env.process(_walk(env, {"w": (1.0, 2.0, 3.0)}, log))
    env.run(until=2.5)
    assert log == [("w", 1.0), ("w", 2.0)]
    assert env.now == 2.5
    # 1.0 waited behind the 0.5 entry; 2.0 stepped inline under the outer
    # bound, which the nested run(until=0.75) handed back when it returned.
    assert env.coalesced_count == 1


def test_wakeup_behind_a_discarded_top_goes_through_the_heap():
    env = Environment()
    log = []
    stale = env.event()
    stale.callbacks.append(lambda _event: log.append(("stale", env.now)))
    env.discard_scheduled(env.schedule_at(stale, 0.5))
    env.process(_walk(env, {"w": (1.0, 2.0)}, log))
    env.run()
    assert log == [("w", 1.0), ("w", 2.0)]
    # Start, the 1.0 wake-up (behind the dead 0.5 entry) and exit popped.
    assert env.processed_count == 3
    assert env.coalesced_count == 1


def test_uncoalesced_wakeups_each_pop_the_heap():
    times = (1.0, 1.5, 2.0, 2.0, 4.0)
    env = Environment(coalesce=False)
    log = []
    env.process(_walk(env, {"w": times}, log))
    env.run()
    assert log == [("w", when) for when in times]
    # One pop per distinct time (the second 2.0 is due when the first is
    # handled, and waits for nothing), plus the start and the exit.
    assert env.processed_count == len(set(times)) + 2
    assert env.coalesced_count == 0


def test_step_processes_one_wakeup_per_call():
    env = Environment()
    log = []
    env.process(_walk(env, {"w": (1.0, 2.0, 3.0)}, log))
    env.step()  # the process starts and reserves
    assert log == []
    for when in (1.0, 2.0, 3.0):
        env.step()
        assert log == [("w", at) for at in (1.0, 2.0, 3.0) if at <= when]
        assert env.now == when
    assert env.coalesced_count == 0


@pytest.mark.parametrize("coalesce", [True, False])
def test_a_walk_steps_to_a_key_that_is_provably_next_in_place(monkeypatch, coalesce):
    # "a" reserves 1.2 and 1.4 below "b"'s 2.0 and "b" its 3.0 below "a"'s
    # 5.0, with nothing in the heap: coalescing steps to those keys in place.
    timelines = {"a": (1.0, 1.2, 1.4, 5.0), "b": (2.0, 3.0)}
    pushed = []
    heappush = heapq.heappush

    def recording(heap, key):
        if type(key[3]) is int:
            pushed.append(key[0])
        heappush(heap, key)

    monkeypatch.setattr(heapq, "heappush", recording)
    env = Environment(coalesce=coalesce)
    log = []
    env.process(_walk(env, timelines, log))
    env.run()
    monkeypatch.undo()
    reference_env = Environment(coalesce=coalesce)
    reference = []
    for tag, times in timelines.items():
        reference_env.process(_walk_with_timeouts(reference_env, tag, times, log=reference))
    reference_env.run()
    assert log == sorted(reference, key=lambda entry: entry[1])
    # One walking process stands in for two: one start and one exit fewer.
    assert env.scheduled_count == reference_env.scheduled_count - 2
    if coalesce:
        assert pushed == [1.0, 2.0, 5.0]
        assert env.coalesced_count == 6 and env.processed_count == 2
    else:
        assert pushed == [1.0, 2.0, 1.2, 1.4, 5.0, 3.0]
        assert env.coalesced_count == 0


def test_wakeup_in_the_past_is_rejected():
    env = Environment()
    env.run(until=1.0)
    with pytest.raises(ValueError):
        next(env.wakeups().walk([[0.5, 2.0]], lambda line, index: True))


def test_a_false_handler_return_ends_its_timeline():
    env = Environment()
    log = []

    def handler(line, index):
        log.append((line, index, env.now))
        return not (line == 0 and index == 1)

    env.process(env.wakeups().walk([[1.0, 2.0, 3.0], [1.5, 2.5, 3.5]], handler))
    env.run()
    assert log == [(0, 0, 1.0), (1, 0, 1.5), (0, 1, 2.0), (1, 1, 2.5), (1, 2, 3.5)]


# -- Wakeups: events the walk holds -------------------------------------------


def _acknowledging(env, held, log, eids, delays=(0.5, 1.0), discard=None):
    """A walk whose arrivals (1.0, 2.0, 3.0) each schedule one event
    ``delays[index % 2]`` later: held by the walk (``held``) or a plain
    ``env.event()`` (the reference).  ``discard(index)`` names an earlier
    arrival whose event this arrival discards."""
    wakeups = env.wakeups()

    def acknowledged(index):
        log.append(("ack", index, env.now))

    def handler(line, index):
        log.append(("arrival", index, env.now))
        if held:
            event = wakeups.event(lambda event: acknowledged(event.payload), index)
        else:
            event = env.event()
            event.callbacks.append(lambda _event, index=index: acknowledged(index))
        eids.append(env.schedule_at(event, env.now + delays[index % 2], index))
        if discard is not None and discard(index) is not None:
            env.discard_scheduled(eids[discard(index)])
        return True

    yield from wakeups.walk([[1.0, 2.0, 3.0]], handler)


def _tied_heap(env, log):
    """Heap events tied with the walk's keys: a 1.5 timeout scheduled at 0,
    before the 1.5 acknowledgement, and a ticker every 0.5 whose 1.5, 3.0
    and 3.5 timeouts are scheduled after the acknowledgements due then."""
    def sleeper():
        yield env.timeout(1.5)
        log.append(("sleeper", env.now))

    def ticker():
        for _ in range(8):
            yield env.timeout(0.5)
            log.append(("tick", env.now))

    env.process(sleeper())
    env.process(ticker())


def _acknowledged_run(coalesce, held, **kwargs):
    env = Environment(coalesce=coalesce)
    log, eids = [], []
    _tied_heap(env, log)
    env.process(_acknowledging(env, held, log, eids, **kwargs))
    env.run()
    return env, log, eids


@pytest.mark.parametrize("coalesce", [True, False])
def test_a_held_event_keeps_a_plain_events_key_and_order(coalesce):
    env, log, eids = _acknowledged_run(coalesce, held=True)
    reference_env, reference, reference_eids = _acknowledged_run(coalesce, held=False)
    assert log == reference
    assert eids == reference_eids
    # Exact ties on both sides: the sleeper's 1.5 timeout (scheduled at 0)
    # comes before the 1.5 acknowledgement (scheduled at 1.0), the ticker's
    # (scheduled at 1.0, after it) behind it.
    assert (log.index(("sleeper", 1.5)) < log.index(("ack", 0, 1.5))
            < log.index(("tick", 1.5)))
    assert env.scheduled_count == reference_env.scheduled_count
    logical = env.processed_count + env.coalesced_count
    assert logical == reference_env.processed_count + reference_env.coalesced_count


@pytest.mark.parametrize("coalesce", [True, False])
def test_a_discarded_held_event_is_dropped_uncounted(coalesce):
    # Arrival 1 (2.0) discards arrival 0's event, held since 1.0 for 2.5.
    runs = [_acknowledged_run(coalesce, held, delays=(1.5, 0.5),
                              discard=lambda index: 0 if index == 1 else None)
            for held in (True, False)]
    (env, log, eids), (reference_env, reference, reference_eids) = runs
    assert log == reference and eids == reference_eids
    assert not any(entry[:2] == ("ack", 0) for entry in log)
    assert env.processed_count + env.coalesced_count == (
        reference_env.processed_count + reference_env.coalesced_count)
    assert not env._dead


def test_a_held_event_scheduled_while_the_walk_waits_takes_the_heap():
    env = Environment()
    log = []
    wakeups = env.wakeups()
    held = wakeups.event(lambda event: log.append(("held", event.payload, env.now)), "late")

    def handler(line, index):
        log.append(("arrival", env.now))
        return True

    def other():
        # At 1.0 the walk waits in the heap for its 2.0 arrival.
        yield env.timeout(1.0)
        env.schedule_at(held, 1.5)
        assert any(entry[3] is held for entry in env._queue)
        yield env.timeout(1.0)

    env.process(other())
    env.process(wakeups.walk([[2.0]], handler))
    env.run()
    assert log == [("held", "late", 1.5), ("arrival", 2.0)]
    assert env.coalesced_count == 0


def test_a_held_event_scheduled_after_the_walk_takes_the_heap():
    env = Environment()
    wakeups = env.wakeups()
    log = []
    held = wakeups.event(lambda event: log.append(env.now))

    def rest():
        yield from wakeups.walk([[1.0]], lambda line, index: True)
        env.schedule_at(held, 2.0)
        assert any(entry[3] is held for entry in env._queue)

    env.process(rest())
    env.run()
    assert log == [2.0]


def test_a_held_event_rescheduled_from_another_process_takes_the_heap():
    # A rollback: another process discards the held event, resets it and
    # schedules it again, as the parameter server's rollback and re-commit
    # do; from there on it is an ordinary heap event.
    env = Environment()
    wakeups = env.wakeups()
    log = []
    held = wakeups.event(lambda event: log.append(("held", env.now)))
    eid = []

    def handler(line, index):
        log.append(("arrival", env.now))
        if index == 0:
            eid.append(env.schedule_at(held, 3.0))
        return True

    def rollback():
        yield env.timeout(1.5)
        env.discard_scheduled(eid[0])
        held._ok = None
        held._value = PENDING
        env.schedule_at(held, 2.5)
        assert any(entry[3] is held for entry in env._queue)

    env.process(wakeups.walk([[1.0, 2.0, 4.0]], handler))
    env.process(rollback())
    env.run()
    assert log == [("arrival", 1.0), ("arrival", 2.0), ("held", 2.5), ("arrival", 4.0)]
    assert not env._dead


def test_step_delivers_no_held_event_inline():
    env = Environment()
    log, eids = [], []
    _tied_heap(env, log)
    env.process(_acknowledging(env, True, log, eids))
    steps = 0
    while env._queue:
        env.step()
        steps += 1
    assert env.coalesced_count == 0
    assert env.processed_count == steps
    _, reference, _ = _acknowledged_run(True, held=False)
    assert log == reference


def test_a_numeric_run_bound_holds_back_later_held_events():
    env = Environment()
    log, eids = [], []
    env.process(_acknowledging(env, True, log, eids))
    env.run(until=2.25)
    # The 1.5 acknowledgement stepped inline; the 3.0 one (of the 2.0
    # arrival) is still pending and not counted.
    assert log == [("arrival", 0, 1.0), ("ack", 0, 1.5), ("arrival", 1, 2.0)]
    assert env.now == 2.25
    assert env.processed_count == 1  # the start; 1.0, 1.5 and 2.0 stepped inline
    assert env.coalesced_count == 3
    env.run()
    assert log[3:] == [("ack", 1, 3.0), ("arrival", 2, 3.0), ("ack", 2, 3.5)]


# -- Parking: idle waiters re-checked as blocks of reserved keys --------------


def _pollers(env, tags, parked, interval=1.0, feeds=(), work_s=0.25):
    """Waiters polling a shared pile of work every ``interval``.

    A waiter that finds work takes one unit, logs it and works ``work_s``;
    one that finds none counts a poll and waits one interval, parked or on
    a plain timeout (the reference).  ``feeds`` add ``(time, units)`` to the
    pile.  Returns the log and the poll counter.
    """
    log, pile, polls = [], [0], [0]

    def check(tags, stamp):
        if pile[0]:
            return False
        polls[0] += len(tags)
        return True

    parking = env.parking(interval, check)

    def waiter(tag):
        while True:
            if pile[0]:
                pile[0] -= 1
                log.append((tag, env.now))
                yield env.timeout(work_s)
                continue
            polls[0] += 1
            yield parking.park(tag) if parked else env.timeout(interval)

    def feeder():
        for when, units in feeds:
            yield env.timeout(when - env.now)
            pile[0] += units

    for tag in tags:
        env.process(waiter(tag))
    env.process(feeder())
    return log, polls


def _events(env):
    return env.processed_count + env.coalesced_count, env.scheduled_count


@pytest.mark.parametrize("coalesce", [True, False])
def test_parked_waiters_interleave_like_plain_timeouts(coalesce):
    # Three waiters park as one block at 0; a late starter and a fed unit
    # split them, so blocks form, come due inline, merge and break apart.
    feeds = ((2.5, 1), (3.0, 2), (4.1, 1))

    def simulate(parked):
        env = Environment(coalesce=coalesce)
        log, polls = _pollers(env, "abc", parked, feeds=feeds)
        late = env.event()
        late.callbacks.append(lambda _event: _pollers(env, "d", parked, interval=0.7))
        env.schedule_at(late, 0.3)
        env.run(until=9.0)
        return log, polls[0], env

    log, polls, env = simulate(parked=True)
    reference_log, reference_polls, reference = simulate(parked=False)
    assert (log, polls) == (reference_log, reference_polls)
    assert len(log) == 4 and polls > 20
    assert _events(env) == _events(reference)
    if coalesce:
        assert env.processed_count < reference.processed_count
    else:
        assert env.processed_count == reference.processed_count
        assert env.coalesced_count == 0


def test_a_parked_key_is_the_key_a_timeout_would_draw():
    keys = []
    for parked in (True, False):
        env = Environment()
        parking = env.parking(0.2, lambda tags, stamp: True)

        def proc():
            yield env.timeout(0.1)
            yield parking.park("w") if parked else env.timeout(0.2)

        env.process(proc())
        env.run(until=0.2)
        keys.append((env._queue[0][:3], env.scheduled_count))
    assert keys[0] == keys[1]
    assert keys[0][0][0] == 0.1 + 0.2 != 0.3  # the same float sum


def test_a_re_reserved_block_leaves_the_ids_timeouts_would():
    def simulate(parked):
        env = Environment()
        _pollers(env, "abc", parked)
        env.run(until=2.5)  # due at 1.0 and 2.0, both taken in one step
        keys = sorted(entry[:3] for entry in env._queue)
        env.timeout(0.0)
        return keys, min(env._queue)[:3], env

    keys, after, env = simulate(parked=True)
    reference_keys, reference_after, reference = simulate(parked=False)
    # One armed entry stands for the three timeouts' consecutive keys.
    assert keys == reference_keys[:1]
    assert [key[2] for key in reference_keys] == [keys[0][2] + i for i in range(3)]
    assert after == reference_after
    assert _events(env) == _events(reference)
    assert env.coalesced_count == 5  # two members at 1.0, all three at 2.0


def test_step_takes_one_parked_member_per_call():
    envs = [Environment(), Environment()]
    logs = [_pollers(env, "ab", parked, feeds=((1.5, 1),)) for env, parked
            in zip(envs, (True, False))]
    for _ in range(12):
        for env in envs:
            env.step()
        assert envs[0].now == envs[1].now
        assert _events(envs[0]) == _events(envs[1])
        assert logs[0][0] == logs[1][0] and logs[0][1] == logs[1][1]
    assert envs[0].coalesced_count == 0


def test_parked_blocks_stop_at_a_numeric_run_bound():
    env = Environment()
    reference = Environment()
    _pollers(env, "ab", True, feeds=((0.1, 0),))
    _pollers(reference, "ab", False, feeds=((0.1, 0),))
    for until in (2.0, 2.5, 6.0):
        env.run(until=until)
        reference.run(until=until)
        assert env.now == until
        assert _events(env) == _events(reference)
    # Three starts, the feeder's timeout and exit, and the block's pops at
    # 1.0 and at 3.0: stepped to 2.0 inline, it waited through the bound
    # at 2.5 in the heap, then stepped to 4.0, 5.0 and 6.0.
    assert env.processed_count == 7


@pytest.mark.parametrize("parked_first", [True, False])
def test_an_urgent_event_mid_block_splits_it_in_key_order(parked_first):
    # At 1.0 the first member finds the unit of work: it interrupts the
    # third, parked behind it, and starts a process.  Both urgent events
    # must run before the second member's key, and the interrupted one's
    # key still counts its event.
    def simulate(parked):
        env = Environment()
        log, pile, procs = [], [0], {}
        parking = env.parking(1.0, lambda tags, stamp: not pile[0])

        def waiter(tag):
            try:
                while True:
                    if pile[0]:
                        pile[0] -= 1
                        log.append((tag, "work", env.now))
                        procs["c"].interrupt()
                        env.process(spawned())
                        yield env.timeout(5.0)
                    yield parking.park(tag) if parked else env.timeout(1.0)
            except Interrupt:
                log.append((tag, "interrupted", env.now))

        def spawned():
            log.append(("spawned", env.now))
            yield env.timeout(0.0)

        def feeder():
            yield env.timeout(0.5)
            pile[0] += 1

        if not parked_first:
            env.process(feeder())
        for tag in "abc":
            procs[tag] = env.process(waiter(tag))
        if parked_first:
            env.process(feeder())
        env.run(until=3.5)
        return log, env

    log, env = simulate(parked=True)
    reference_log, reference = simulate(parked=False)
    assert log == reference_log == [("a", "work", 1.0), ("c", "interrupted", 1.0),
                                    ("spawned", 1.0)]
    assert _events(env) == _events(reference)


def test_a_parked_block_passes_its_common_stamp():
    seen = []

    def check(tags, stamp):
        seen.append((list(tags), stamp))
        return stamp in (1, 2)

    env = Environment()
    parking = env.parking(1.0, check)

    def waiter(tag, stamp):
        while True:
            yield parking.park(tag, stamp)

    for tag, stamp in (("a", 1), ("b", 1), ("c", 2)):
        env.process(waiter(tag, stamp))
    env.run(until=1.5)
    # Mixed stamps match nothing, so the block is checked one member at a time.
    assert seen[0][0] == ["a", "b", "c"] and seen[0][1] not in (1, 2)
    assert seen[1:] == [(["a"], 1), (["b"], 1), (["c"], 2)]


def test_a_parking_interval_must_be_positive():
    with pytest.raises(ValueError):
        Environment().parking(0.0, lambda tags, stamp: True)
