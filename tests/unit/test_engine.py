"""Unit tests for the discrete-event simulation engine."""

import numpy as np
import pytest

from repro.sim.engine import (
    AllOf,
    AnyOf,
    CountdownEvent,
    Environment,
    Event,
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


@pytest.mark.parametrize("contributions, fire_delay, fired", [
    ([(2.0, "a"), (4.0, "b"), (4.0, "c")], 0.0, (4.0, "c")),  # latest call wins ties
    ([(5.0, "a"), (1.0, "b")], 0.0, (5.0, "a")),
    ([(2.0, "a"), (4.0, "b")], 0.5, (4.5, "b")),
])
def test_countdown_fires_at_latest_contribution(contributions, fire_delay, fired):
    env = Environment()
    latch = CountdownEvent(env, len(contributions), fire_delay=fire_delay)
    armed = [latch.count_down_at(when, value) for when, value in contributions]
    env.run()
    assert armed[-1] and not any(armed[:-1])
    assert (env.now, latch.value) == fired
    assert env.coalesced_count == (1 if fire_delay else 0)  # the wait rode along


@pytest.mark.parametrize("fire_delay", [0.0, 0.5])
@pytest.mark.parametrize("whens, rescinded, again", [
    ([2.0, 6.0, 3.0], None, None),  # the batch alone fires at its latest time
    ([2.0, 6.0, 3.0], 6.0, 4.0),  # the latest time leaves: the latch re-arms earlier
    ([2.0, 6.0, 6.0], 6.0, 1.0),  # a tie: the other 6.0 still decides
    ([5.0, 1.0, 3.0], 1.0, 7.0),  # the re-contribution becomes the latest
])
def test_countdown_batch_fires_like_one_at_a_time(whens, rescinded, again, fire_delay):
    # The fan-out arms a fresh latch with one array of acknowledgement times;
    # a rollback rescinds one of them and the re-commit contributes again.
    def fire(batched):
        env = Environment()
        latch = CountdownEvent(env, len(whens), fire_delay=fire_delay)
        if batched:
            assert latch.count_down_many_at(np.array(whens))
        else:
            assert [latch.count_down_at(when, when) for when in whens][-1]
        if rescinded is not None:
            latch.rescind(rescinded, rescinded)
            assert latch.remaining == 1
            assert latch.count_down_at(again, again)
        env.run()
        return env.now, latch.value, env.processed_count, env.coalesced_count

    assert fire(batched=True) == fire(batched=False)


# -- Wakeups: reserved timeouts stepped inline while they are next ----------


def _walk(env, timelines, log):
    """One process walking ``{tag: times}`` through Wakeups; logs (tag, now)."""
    wakeups = env.wakeups()
    cursors = {}
    for tag, times in timelines.items():
        wakeups.add(times[0], tag)
        cursors[tag] = 1
    while wakeups:
        tag, wait = wakeups.next()
        if wait is not None:
            yield wait
        log.append((tag, env.now))
        i = cursors[tag]
        if i < len(timelines[tag]):
            wakeups.add(timelines[tag][i], tag)
            cursors[tag] = i + 1


def _walk_with_timeouts(env, tag, times, log):
    """The same timeline as one process of plain timeouts (the reference)."""
    for when in times:
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

    def waker():
        wakeups = env.wakeups()
        wakeups.add(2.0, "wake-up")
        # Let the sleeper schedule its 2.0 timeout, then take the wake-up
        # with that timeout on top of the heap.
        yield env.timeout(1.0)
        tag, wait = wakeups.next()
        if wait is not None:
            yield wait
        log.append((tag, env.now))

    def sleeper():
        yield env.timeout(2.0)
        log.append(("timeout", env.now))

    first, second = (waker, sleeper) if reserved_first else (sleeper, waker)
    env.process(first())
    env.process(second())
    env.run()
    expected = [("wake-up", 2.0), ("timeout", 2.0)]
    assert log == (expected if reserved_first else expected[::-1])
    assert env.coalesced_count == (1 if coalesce and reserved_first else 0)


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
    assert env.processed_count == len(times) + 2  # plus the start and exit
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


def test_wakeup_in_the_past_is_rejected():
    env = Environment()
    env.run(until=1.0)
    with pytest.raises(ValueError):
        env.wakeups().add(0.5, "late")


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
