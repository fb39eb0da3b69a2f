"""Registry-wide proof that cohort coalescing is behaviour-preserving.

The engine's fast paths — servers committing requests into coalesced
windows, the lock-step group's one-point fan-out — may only ever change *how fast* a run executes,
never *what* it computes.  The golden suite pins 36 checked-in traces; these tests go further and pin, for **every** registered
scenario, that the fingerprint with coalescing forced on is byte-identical to
the fingerprint with coalescing forced off (``Environment(coalesce=False)``),
and so is every server's ``server_bpt`` series (which no fingerprint holds),
and so are the allocator's and the agents' overheads (Fig. 18's inputs,
which no fingerprint holds either), and that the ``REPRO_NO_COALESCE=1``
escape hatch selects the slow path.  Every registered scenario but one runs
3 servers, so five of them, the scale-in probe below and a run stopped by
its deadline run again on a wide tier of 24 servers, through the lock-step
group and the per-server submits of the fan-outs it declines.

The coalescing × elastic interaction gets its own regression test: a scale-in
that retires a worker mid-iteration — i.e. from inside a live coalesced
cohort plan on the servers — must split the cohort (roll the plan back and
replay the surviving entries), keep the exactly-once sample ledger conserved
(``shard_accounting``), and still fingerprint identically to the uncoalesced
run.

The benchmark's serving shape — 12 servers under tenants at 6.4x their
registered rates — runs both ways too, plain and with a primary evicted
while requests are in flight: with coalescing on, the acknowledgements the
servers commit during the arrival walk are keys the walk holds and steps
to in place, and those a rollback re-commits are ordinary heap events.

Idle workers' parked data polls are held to the same coalesced job with
every park turned back into the timeout it stands for: fingerprints, logical
events and the DDS's overhead must be equal when a parked worker is evicted
or retired, when an action is broadcast over parked workers, when a kill
requeues a shard to them, and under a static partition.
"""

import json
from dataclasses import replace

import pytest

from repro.core.actions import AdjustBatchSize
from repro.elastic.spec import ElasticSpec, ScaleEvent
from repro.orchestrator import simulate_spec
from repro.orchestrator.worker import SimRun
from repro.perf import EngineStats
from repro.psarch.job import PSTrainingJob
from repro.scenarios import ScenarioSpec, all_scenarios, get_scenario
from repro.scenarios.fingerprint import fingerprint
from repro.scenarios.matrix import build_scenario_job
from repro.scenarios.spec import FailureEvent, FailureTraceSpec
from repro.sim.engine import Environment, Parking, Process, Wakeups, _Held
from repro.sim.failures import ErrorCode

ALL_NAMES = [spec.name for spec in all_scenarios()]

# A deterministic scale-in at a time that is *not* an iteration boundary:
# when it fires, the retiring worker's requests sit inside live coalesced
# windows on the servers, so the interrupt must split the cohort
# (rollback + replay of the surviving entries) rather than merely skip it.
SCALE_IN_PROBE = ScenarioSpec(
    name="coalesce-scale-in-probe",
    method="antdt-nd",
    seed=11,
    elastic=ElasticSpec(events=(
        ScaleEvent(time_s=33.7, action="in", count=1),
    )),
    description="probe: scale-in lands mid-iteration inside a coalesced cohort",
)


def _server_series(sim):
    """Every server's ``server_bpt`` times and values, by server name."""
    metrics = sim.run.metrics
    return {tag: (metrics.series("server_bpt", tag).times(),
                  metrics.series("server_bpt", tag).values())
            for tag in metrics.tags("server_bpt")}


def _overheads(sim):
    """The DDS's and the agents' total overheads (Fig. 18)."""
    return sim.job.allocator.total_overhead_s, sim.job.agent_group.total_overhead_s


def test_registry_is_fully_covered():
    # The equivalence sweep below must stay registry-wide: if scenarios are
    # added, they are parametrized in automatically; if the registry ever
    # shrank below the golden set this would be the first alarm.
    assert len(ALL_NAMES) >= 29


@pytest.mark.parametrize("name", ALL_NAMES)
def test_coalesce_on_off_fingerprints_byte_identical(name):
    spec = get_scenario(name)
    fast = simulate_spec(spec, coalesce=True)
    slow = simulate_spec(spec, coalesce=False)
    assert fast.golden_trace() == slow.golden_trace(), (
        f"scenario {name!r} fingerprints differently with cohort coalescing "
        f"on vs off — the fast path changed observable behaviour")
    assert _server_series(fast) == _server_series(slow), (
        f"scenario {name!r} records different server_bpt series with cohort "
        f"coalescing on vs off")
    assert _overheads(fast) == _overheads(slow), (
        f"scenario {name!r} charges different DDS or agent overheads with "
        f"cohort coalescing on vs off")


def _simulate(spec, coalesce, max_duration_s=None):
    """:func:`simulate_spec`, stopped by the job's deadline if one is given."""
    job, injector = build_scenario_job(spec, coalesce=coalesce)
    if max_duration_s is not None:
        job.config.max_duration_s = max_duration_s
    result = job.run()
    return SimRun(spec=spec, job=job, injector=injector, run=result,
                  fingerprint=fingerprint(spec, result, injector))


@pytest.mark.parametrize("spec, max_duration_s, grouped", [
    pytest.param(get_scenario("server-eviction"), None, True, id="server-eviction"),
    pytest.param(get_scenario("elastic-server-retire-replace"), None, False,
                 id="elastic-server-retire-replace"),
    # A joiner widens the targets while the members are still in the
    # group: the fan-out declines, and each member leaves the group at its
    # own submit's commit.
    pytest.param(get_scenario("elastic-server-churn"), None, True, id="elastic-server-churn"),
    pytest.param(get_scenario("nd-transient-heavy-antdt"), None, True,
                 id="nd-transient-heavy-antdt"),
    # The contended server breaks the group at the first fan-out.
    pytest.param(get_scenario("nd-server-straggler"), None, False, id="nd-server-straggler"),
    pytest.param(SCALE_IN_PROBE, None, True, id=SCALE_IN_PROBE.name),
    # Stopped at 55.5 s, inside a live group window (its tail is at
    # 55.527 s): finalize_run takes every member out and rewinds its copy.
    pytest.param(get_scenario("dedicated-baseline"), 55.5, True,
                 id="dedicated-baseline-stopped-in-a-window"),
])
def test_wide_server_tier_is_mode_invariant(monkeypatch, spec, max_duration_s, grouped):
    """On 24 servers the push fan-out commits through the lock-step group,
    or is submitted per server once the group is gone, and rolls back per
    server: fingerprints, server series, logical events and overheads must
    still equal the uncoalesced run's."""
    committed = []
    push_fanout = PSTrainingJob.push_fanout

    def counted(self, worker, nbytes, targets, latch):
        committed.append(push_fanout(self, worker, nbytes, targets, latch))
        return committed[-1]

    monkeypatch.setattr(PSTrainingJob, "push_fanout", counted)
    wide = replace(spec, name=f"{spec.name}@servers=24",
                   topology=replace(spec.topology, num_servers=24))
    fast = _simulate(wide, True, max_duration_s)
    assert any(committed) is grouped
    if max_duration_s is not None:
        assert not fast.run.completed
        assert not any(server._row != server._slot for server in fast.job.servers)
    slow = _simulate(wide, False, max_duration_s)
    assert fast.golden_trace() == slow.golden_trace()
    assert _server_series(fast) == _server_series(slow)
    assert fast.run.engine_events_processed == slow.run.engine_events_processed
    assert _overheads(fast) == _overheads(slow)


#: Offered traffic of the benchmark's serving workload, as a multiple of
#: ``serving-hot-key-fanout``'s tenant rates (and rate limits).
SERVING_TRAFFIC_SCALE = 6.4


def _serving_bench_shape(evicted):
    """``serving-hot-key-fanout`` at the benchmark's 12 servers and traffic,
    over a 20 s window; ``evicted`` evicts server-2 at 15 s, in the middle
    of the traffic: the hot shards' primary, with requests queued, whose
    warm standbys take over."""
    base = get_scenario("serving-hot-key-fanout")
    tenants = tuple(
        replace(tenant, rate_rps=tenant.rate_rps * SERVING_TRAFFIC_SCALE,
                rate_limit_rps=(tenant.rate_limit_rps * SERVING_TRAFFIC_SCALE
                                if tenant.rate_limit_rps is not None else None))
        for tenant in base.serving.tenants)
    spec = replace(base, name="serving-bench-shape",
                   topology=replace(base.topology, num_servers=12),
                   serving=replace(base.serving, tenants=tenants, duration_s=20.0))
    if evicted:
        spec = replace(spec, name="serving-bench-shape-evicted",
                       failures=FailureTraceSpec(events=(FailureEvent(
                           time_s=15.0, node="server-2",
                           code=ErrorCode.JOB_EVICTION.value),)))
    return spec


class _OnTheHeap(_Held):
    """A held event's type the walk does not recognise: its acknowledgement
    is an ordinary heap event wherever it is scheduled."""

    __slots__ = ()


#: Logical events the uncoalesced run counts beyond the coalesced one: the
#: eviction shows the known parity gap ``serving-promotion-burst`` shows
#: (ROADMAP item 5), by the same +1, and did before the walk held
#: acknowledgements.
_SERVING_SHAPE_PARITY_GAP = {False: 0, True: 1}


@pytest.mark.parametrize("evicted", [False, True], ids=["plain", "evicted"])
def test_serving_at_benchmark_scale_is_mode_invariant(monkeypatch, evicted):
    spec = _serving_bench_shape(evicted)
    rescinded = []
    declined = []
    discard_scheduled = Environment.discard_scheduled
    push_fanout = PSTrainingJob.push_fanout

    def counted(env, eid):
        rescinded.append(eid)
        discard_scheduled(env, eid)

    def counted_fanout(job, worker, nbytes, targets, latch):
        committed = push_fanout(job, worker, nbytes, targets, latch)
        if not committed:
            declined.append(len(targets))
        return committed

    with monkeypatch.context() as patch:
        patch.setattr(Environment, "discard_scheduled", counted)
        patch.setattr(PSTrainingJob, "push_fanout", counted_fanout)
        fast = _simulate(spec, True)
    # The eviction rolled back acknowledgements committed past it.
    assert bool(rescinded) == evicted
    # Serving traffic takes the servers out of lock step, so training
    # fan-outs decline to per-server submits: of the benchmark's
    # workloads, only this one declines at 12 targets.
    assert 12 in declined
    slow = _simulate(spec, False)
    assert fast.golden_trace() == slow.golden_trace()
    assert (slow.run.engine_events_processed - fast.run.engine_events_processed
            == _SERVING_SHAPE_PARITY_GAP[evicted])
    assert _overheads(fast) == _overheads(slow)
    serving = fast.fingerprint["serving"]
    assert serving["arrivals"] > 15_000 and serving["completed"] > 5_000
    resharding = fast.fingerprint.get("elastic", {}).get("resharding", {})
    assert (resharding.get("promoted_total", 0) > 0) == evicted

    # The exact oracle: the same coalesced job with every acknowledgement
    # on the heap.  Holding them changes heap pops only.
    monkeypatch.setattr(Wakeups, "event", lambda wakeups, callback, payload=None:
                        _OnTheHeap(wakeups, callback, payload))
    oracle = _simulate(spec, True)
    assert fast.golden_trace() == oracle.golden_trace()
    assert fast.run.engine_events_processed == oracle.run.engine_events_processed
    assert _overheads(fast) == _overheads(oracle)
    assert fast.run.engine_events_physical < oracle.run.engine_events_physical // 4


def test_no_coalesce_env_hatch_selects_the_slow_path(monkeypatch):
    spec = get_scenario("dedicated-baseline")
    monkeypatch.setenv("REPRO_NO_COALESCE", "1")
    job, _ = build_scenario_job(spec)
    assert job.env.coalesce is False
    hatched = simulate_spec(spec)
    monkeypatch.delenv("REPRO_NO_COALESCE")
    default = simulate_spec(spec)
    assert hatched.golden_trace() == default.golden_trace()


def test_scale_in_mid_iteration_splits_cohort_and_conserves_ledger():
    spec = SCALE_IN_PROBE
    results = {}
    for coalesce in (True, False):
        job, injector = build_scenario_job(spec, coalesce=coalesce)
        stats = EngineStats(job.env)
        run = job.run()
        accounting = job.allocator.shard_accounting()
        assert accounting["conserved"], (
            f"shard ledger unbalanced after mid-iteration scale-in "
            f"(coalesce={coalesce}): {accounting}")
        results[coalesce] = (fingerprint(spec, run, injector), stats, run)

    fast_print, fast_stats, fast_run = results[True]
    slow_print, slow_stats, slow_run = results[False]

    # The scale-in actually happened mid-run and retired a worker.
    assert fast_print["elastic"]["left"] >= 1
    assert fast_run.completed and slow_run.completed

    # The coalesced run really took the fast path (events were coalesced and
    # later survived the cohort split), yet logical behaviour is identical.
    assert fast_stats.physical < slow_stats.physical
    assert fast_stats.logical == slow_stats.logical
    assert json.dumps(fast_print, sort_keys=True) == \
        json.dumps(slow_print, sort_keys=True)


# -- Parked idle workers: the same job sleeping plain timeouts is the oracle --
#
# The uncoalesced mode counts a few logical events differently on some specs,
# so it cannot referee logical counts.  The exact oracle for the parked idle
# polls is the same coalesced job with ``Parking.park`` forced back to the
# ``env.timeout`` it stands for.  ``scale-120w`` runs 120 workers of which
# 60 hold no data for most of the run; each perturbation below lands while
# they wait.

SCALE_POINT = get_scenario("scale-120w")


class _IdleRun:
    """One coalesced run whose idle workers park, or sleep timeouts instead.

    Records, for every interrupt, whether it hit a parked worker, which
    workers were parked then and how many shards each had taken.
    """

    def __init__(self, monkeypatch, spec, parked, broadcast_at=None):
        handed_out = set()
        self.interrupts = []
        self.parked_at_broadcast = None
        park = Parking.park
        interrupt = Process.interrupt

        def parking(waiters, tag, stamp=None):
            if not parked:
                return waiters.env.timeout(waiters.interval)
            event = park(waiters, tag, stamp)
            handed_out.add(event)
            return event

        def interrupting(process, cause=None):
            idle = {w.name for w in job.workers if w.process.target in handed_out}
            self.interrupts.append((process.target in handed_out, idle,
                                    job.allocator.shards_taken()))
            interrupt(process, cause)

        def broadcast():
            # Resizes only the last 20 workers, which never train: each
            # applies the action at its next poll, and the training part of
            # the run stays as it was.
            yield job.env.timeout(broadcast_at)
            idle = job.workers[-20:]
            self.parked_at_broadcast = sum(w.process.target in handed_out for w in idle)
            job.agent_group.broadcast(AdjustBatchSize(
                {w.name: w.batch_size // 2 + 1 for w in idle}))

        with monkeypatch.context() as patch:
            patch.setattr(Parking, "park", parking)
            patch.setattr(Process, "interrupt", interrupting)
            job, injector = build_scenario_job(spec, coalesce=True)
            if broadcast_at is not None:
                job.env.process(broadcast())
            run = job.run()
        self.job = job
        self.fingerprint = json.dumps(fingerprint(spec, run, injector), sort_keys=True)
        self.logical = run.engine_events_processed
        self.physical = run.engine_events_physical
        self.overhead = job.allocator.total_overhead_s


def _parked_matches_oracle(monkeypatch, spec, broadcast_at=None):
    parked = _IdleRun(monkeypatch, spec, True, broadcast_at)
    oracle = _IdleRun(monkeypatch, spec, False, broadcast_at)
    assert parked.fingerprint == oracle.fingerprint
    assert parked.logical == oracle.logical
    assert parked.overhead == oracle.overhead  # bit-identical, not approximate
    assert parked.physical < oracle.physical
    return parked


def _at_12s(**fields):
    return replace(SCALE_POINT, name=f"{SCALE_POINT.name}@12s", **fields)


def test_evicting_a_parked_worker_matches_the_timeout_oracle(monkeypatch):
    spec = _at_12s(failures=FailureTraceSpec(events=(
        FailureEvent(time_s=12.0, node="worker-100"),)))
    run = _parked_matches_oracle(monkeypatch, spec)
    assert run.interrupts[0][0], "the evicted worker was not parked"


def test_scaling_in_a_parked_worker_matches_the_timeout_oracle(monkeypatch):
    spec = _at_12s(elastic=replace(SCALE_POINT.elastic, events=(
        ScaleEvent(time_s=12.0, action="in", nodes=("worker-100",)),)))
    run = _parked_matches_oracle(monkeypatch, spec)
    assert run.interrupts[0][0], "the retired worker was not parked"
    assert run.job.membership.events


def test_an_adjust_bs_broadcast_over_parked_workers_matches_the_oracle(monkeypatch):
    # After the controller's last kill (60 s) nothing requeues a shard, so
    # only the broadcast can resume the parked workers before the run ends.
    run = _parked_matches_oracle(monkeypatch, SCALE_POINT, broadcast_at=61.3)
    assert run.parked_at_broadcast == 20


def test_a_requeued_shard_goes_to_the_first_parked_worker_as_in_the_oracle(monkeypatch):
    # worker-5 holds a shard; its kill requeues it while 60 workers are
    # parked, and a parked worker (the first in key order) must take it.
    spec = _at_12s(failures=FailureTraceSpec(events=(
        FailureEvent(time_s=12.0, node="worker-5"),)))
    run = _parked_matches_oracle(monkeypatch, spec)
    was_parked, idle, taken = run.interrupts[0]
    assert not was_parked and len(idle) == 60
    after = run.job.allocator.shards_taken()
    assert any(after[name] > taken[name] for name in idle)


def test_a_static_partition_parks_like_the_timeout_oracle(monkeypatch):
    _parked_matches_oracle(monkeypatch, get_scenario("hetero-static-partition"))
