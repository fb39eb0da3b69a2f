"""Unit tests for the lock-step server group.

With coalescing on, the servers a job starts with share one row of the
tier's columns (:meth:`ParameterServer.form_group`): one ``server_bpt``
row, one chain tail, one length.  A member leaves by copying that row into
its own slot right before its first write of its own.  These tests pin the
copy (exact, cell for cell), what a member's series reads before and after,
the end of a run (``finalize_run`` leaves the group alone unless a point
lies past the stop), that a lock-step tier keeps its group to the end, the
writes that take a member out (a kill on the group's chain tail, a stepped
request, a contention swap inside a live window) and the ones that do not,
that growing the store never touches the members' empty rows, and that a
commit that grows the store writes its points into the new columns.
"""

import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np

import repro.sim.metrics as metrics_module
from repro.orchestrator import simulate_spec
from repro.psarch.config import PSJobConfig
from repro.psarch.server import ParameterServer, PushRequest, ServerStateArrays
from repro.scenarios import build_scenario_job, get_scenario
from repro.sim.cluster import Cluster, NodeRole, NodeSpec
from repro.sim.contention import NoContention, RandomContention
from repro.sim.engine import CountdownEvent, Environment
from repro.sim.hardware import CPU_SERVER_4C
from repro.sim.metrics import MetricsRecorder
from repro.sim.scheduler import ClusterScheduler, PendingTimeModel

#: Inside a live window of the 4-server lock-step job below: its chain tail
#: lies at 12.208 s.
LIVE_WINDOW_AT = 12.1


def _lock_step_spec(servers=4):
    spec = get_scenario("dedicated-baseline")
    return replace(spec, name=f"{spec.name}@servers={servers}",
                   topology=replace(spec.topology, num_servers=servers))


def _started_job(until):
    job, _ = build_scenario_job(_lock_step_spec())
    job.start()
    job.env.run(until=until)
    return job


def _row(state, name, row, length):
    return getattr(state, name).reshape(-1, state.capacity)[row, :length].tolist()


def _in_group(server):
    """Whether ``server`` still reads the lock-step group's row."""
    return server._row != server._slot


def test_a_leaving_member_copies_the_group_row_exactly_and_reads_its_own():
    """Detached inside a live window, with the prefix sums synced part-way,
    a member's slot row equals the group row in every cell that holds
    data; the rest of the run then writes its own row, and every series
    ends as the uncoalesced run records it."""
    job, _ = build_scenario_job(_lock_step_spec())
    env = job.env
    state = job.server_state
    leaver = job.servers[0]
    series = job.metrics.series("server_bpt", leaver.name)

    def leave():
        yield env.timeout(8.0)
        series.window_stats(-math.inf, env.now)  # syncs every point so far
        yield env.timeout(LIVE_WINDOW_AT - env.now)
        group = state.group_row
        assert state.chain_tail[group] > env.now
        length, synced = state.lengths[group], state.synced[group]
        assert 0 < synced < length
        before = (series.times(), series.values())

        leaver._detach()

        slot = leaver._slot
        assert not _in_group(leaver) and not state.group_intact
        assert all(_in_group(server) for server in job.servers[1:])
        for name in ("times", "values", "tokens"):
            assert _row(state, name, slot, length) == _row(state, name, group, length)
        assert _row(state, "prefix", slot, synced) == _row(state, "prefix", group, synced)
        assert (state.lengths[slot], state.synced[slot]) == (length, synced)
        assert state.chain_tail[slot] == state.chain_tail[group]
        assert (series.times(), series.values()) == before

    env.process(leave())
    result = job.run()
    assert not any(_in_group(server) for server in job.servers)
    oracle = simulate_spec(_lock_step_spec(), coalesce=False).run
    for server in job.servers:
        ours = result.metrics.series("server_bpt", server.name)
        theirs = oracle.metrics.series("server_bpt", server.name)
        assert (ours.times(), ours.values()) == (theirs.times(), theirs.values())


def test_finalize_leaves_the_group_alone_without_a_point_past_the_stop():
    """A run stopped exactly on the group's chain tail has nothing to
    rewind: no member leaves.  One stopped inside a live window rewinds
    each member's own copy to the stop, and the group row stays whole."""
    job = _started_job(until=LIVE_WINDOW_AT)
    state = job.server_state
    group = state.group_row
    job.env.run(until=state.chain_tail[group])
    assert job.env.now == state.chain_tail[group]
    for server in job.servers:
        server.finalize_run()
    assert all(_in_group(server) for server in job.servers)

    job = _started_job(until=LIVE_WINDOW_AT)
    state = job.server_state
    group = state.group_row
    length = state.lengths[group]
    delivered = int(np.count_nonzero(
        state.times.reshape(-1, state.capacity)[group, :length] <= job.env.now))
    assert delivered < length
    for server in job.servers:
        server.finalize_run()
        assert not _in_group(server)
        assert len(job.metrics.series("server_bpt", server.name)) == delivered
        assert server.pending_request_count() > 0
    assert state.lengths[group] == length


def test_a_lock_step_tier_keeps_its_group_to_the_end():
    """``scale-120w``'s 40 servers receive every push together: the run
    ends with the group intact, every member still reading its row and no
    member row holding a point.  A lost group would leave every output
    right and only cost time and memory, so this pins it."""
    job = simulate_spec(get_scenario("scale-120w")).job
    state = job.server_state
    assert len(job.servers) == 40
    assert state.group_intact
    assert all(_in_group(server) for server in job.servers)
    assert state.lengths[state.group_row] > 0
    assert not state.lengths[:len(job.servers)].any()


def test_no_group_forms_without_coalescing():
    job = simulate_spec(_lock_step_spec(), coalesce=False).job
    assert job.server_state.group_row == -1
    assert not any(_in_group(server) for server in job.servers)


def test_a_contention_swap_inside_a_live_window_takes_the_member_out():
    """A member whose contention model is swapped while the group's window
    is live rolls its committed tail back: it leaves the group, its
    siblings stay, the next fan-out declines to per-server submits, and
    every series ends as the uncoalesced run with the same swap records it."""
    outcomes = []
    for coalesce in (True, False):
        job, _ = build_scenario_job(_lock_step_spec(), coalesce=coalesce)
        env = job.env
        state = job.server_state
        swapped = job.servers[1]

        def swap():
            yield env.timeout(LIVE_WINDOW_AT)
            if coalesce:
                assert state.chain_tail[state.group_row] > env.now
            swapped.node.set_contention(NoContention())
            if coalesce:
                assert not _in_group(swapped) and not state.group_intact
                assert all(_in_group(server) for server in job.servers
                           if server is not swapped)
                assert not job.push_fanout("worker-0", 1.0, job.push_targets(), None)

        env.process(swap())
        result = job.run()
        outcomes.append([(series.times(), series.values()) for series in (
            result.metrics.series("server_bpt", server.name) for server in job.servers)])
    assert outcomes[0] == outcomes[1]


def _standalone_group(members=3):
    """``members`` fresh servers on a fake job holding what a server reads
    of its job (no standbys, every push requeued), in lock step and parked."""
    env = Environment()
    specs = [NodeSpec(name=f"server-{index}", role=NodeRole.SERVER, device=CPU_SERVER_4C)
             for index in range(members)]
    cluster = Cluster("c", specs)
    job = SimpleNamespace(
        env=env, config=PSJobConfig(),
        scheduler=ClusterScheduler(env, cluster, pending_model=PendingTimeModel(),
                                   node_init_time=5.0),
        metrics=MetricsRecorder(), server_state=ServerStateArrays(members + 1),
        server_delay_fraction=lambda: 1.0,
        worker_requeue_ok=lambda worker: True,
        server_outage=lambda server, undelivered: False,
        server_recovered=lambda server: None)
    state = job.server_state
    servers = [ParameterServer(job, cluster.get(spec.name)) for spec in specs]
    ParameterServer.form_group(servers)
    for server in servers:
        server.start()
    env.run(until=0.5)
    return env, state, servers


def test_a_kill_on_the_groups_chain_tail_takes_the_member_out():
    """A killed member drops its chain tail.  Killed exactly on the
    group's tail, it leaves: a commit at that instant would still join the
    group's window, but opens a new one on the relaunched server.  Killed
    after the tail, it stays: no later commit can tell the two apart."""
    env, state, servers = _standalone_group()
    latch = CountdownEvent(env, len(servers))
    credited = env.coalesced_count
    state.commit(state.group_row, (PushRequest("worker-0", 1e9, latch),), env,
                 servers[0].config.server_per_byte_cost_s, count=len(servers))
    # One request and one window per member.
    assert env.coalesced_count - credited == 2 * len(servers)
    ack = state.chain_tail[state.group_row]
    env.run(until=ack)
    assert latch.processed
    assert servers[0].request_kill_restart()
    env.run(until=ack + 0.5)
    assert servers[1].request_kill_restart()
    env.run(until=ack + 1.0)
    assert [_in_group(server) for server in servers] == [False, True, True]
    assert state.chain_tail[servers[0]._slot] == -math.inf


def test_a_member_stepping_a_request_writes_its_own_row():
    """Under a random contention model a member steps a request it is
    handed (a drain's re-route) and appends its point uncoalesced: it
    leaves the group first, so no sibling's series sees the point."""
    env, _, servers = _standalone_group()
    servers[0].node.set_contention(RandomContention(probability=1.0))
    request = PushRequest("worker-0", 1e9, env.event())
    servers[0].enqueue(request)
    env.run()
    assert request.done.triggered
    assert [_in_group(server) for server in servers] == [False, True, True]
    lengths = [len(server.job.metrics.series("server_bpt", server.name))
               for server in servers]
    assert lengths == [1, 0, 0]


class _PoisonedNumpy:
    """NumPy with ``empty`` filling every new column with -2."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def empty(shape, dtype=float):
        return np.full(shape, -2, dtype=dtype)


def test_growing_the_store_never_touches_a_member_row(monkeypatch):
    """A doubling copies each row's own points: the group row's, but none
    of the members' empty rows, whose fresh cells so stay untouched (and
    take no memory)."""
    members = 5
    env = Environment()
    state = ServerStateArrays(members + 1, points=8)
    slots = [state.allocate_slot(0.01) for _ in range(members)]
    group = state.add_group(slots, 0.01, 0)
    request = PushRequest("worker-0", 1.0, CountdownEvent(env, 9 * members))
    for step in range(8):
        env.run(until=float(step))
        state.commit(group, (request,), env, 0.5, count=members)
    for name, _ in state.POINT_COLUMNS:
        getattr(state, name).reshape(-1, state.capacity)[slots] = -1
    monkeypatch.setattr(metrics_module, "np", _PoisonedNumpy())
    env.run(until=8.0)
    state.commit(group, (request,), env, 0.5, count=members)  # the ninth point doubles the rows
    assert state.capacity == 16
    for name, _ in state.POINT_COLUMNS:
        cells = getattr(state, name).reshape(-1, state.capacity)
        assert (cells[slots] == -2).all()
    assert _row(state, "times", group, 9) == [0.51 + step for step in range(9)]


def test_a_commit_that_fills_a_row_grows_the_store_and_writes_every_point():
    """A commit past its row's capacity doubles the store before it writes:
    its points land in the new columns, every row keeps its points, length
    and chain tail, and each acknowledgement is delivered at its point's
    time."""
    env = Environment()
    state = ServerStateArrays(4, points=4)
    slots = [state.allocate_slot(0.0) for _ in range(4)]
    committed = {slot: [] for slot in slots}

    def commit(slot, count):
        """Commit ``count`` one-second requests to ``slot``; returns the
        logical events the commit credited."""
        requests = [PushRequest("worker-0", 1.0, env.event()) for _ in range(count)]
        credited = env.coalesced_count
        state.commit(slot, requests, env, 1.0)
        committed[slot].extend(requests)
        return env.coalesced_count - credited

    commit(slots[1], 4)
    commit(slots[3], 3)
    commit(slots[2], 1)
    assert state.capacity == 4 and state.lengths[slots].tolist() == [0, 4, 1, 3]
    assert commit(slots[3], 2) == 2  # joins the live window: no window credit
    assert state.capacity == 8
    assert commit(slots[0], 1) == 2  # the empty row opened a window
    lengths = [1, 4, 1, 5]
    assert state.lengths[slots].tolist() == lengths
    for slot, length in zip(slots, lengths):
        assert _row(state, "times", slot, length) == [1.0 + step for step in range(length)]
        assert _row(state, "values", slot, length) == [1.0] * length
        assert [state.record_at(slot * state.capacity + index)
                for index in range(length)] == committed[slot]
    assert state.chain_tail[slots].tolist() == [1.0, 4.0, 1.0, 5.0]
    env.run()
    for slot, length in zip(slots, lengths):
        assert [request.done.value for request in committed[slot]] == [
            1.0 + step for step in range(length)]
