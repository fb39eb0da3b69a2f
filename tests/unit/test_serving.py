"""Unit tests for the serving tier (repro.serving).

Covers the deterministic arrival traces (seeded reproducibility, mean rate,
shape envelopes), Zipf key popularity, token-bucket throttling, SLO
accounting over the per-arrival columns (windowed snapshot and cumulative
fingerprint section), the spec layer (validation, presets, serialization),
the serving-slo autoscaler policy, and the driver's routing, bounded
admission and ledger checks on a real scenario job.
"""

import hashlib
from collections import defaultdict
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.actions import ScaleInServers, ScaleOutServers
from repro.elastic import ElasticContext, make_server_policy
from repro.elastic.policies import ServingSLOPolicy
from repro.psarch.server import ParameterServer
from repro.scenarios import build_scenario_job, get_scenario
from repro.scenarios.fingerprint import series_digest
from repro.serving import (
    NO_SERVING,
    SERVING_PRESETS,
    SERVING_WORKER_PREFIX,
    ServingSpec,
    SLOTracker,
    TenantSpec,
    TokenBucket,
    arrival_times,
    zipf_keys,
)
from repro.serving.arrivals import peak_rate
from repro.serving.slo import ADMITTED, OVERLOAD, THROTTLED
from repro.serving.tenants import bucket_for
from repro.sim.engine import Wakeups


# ---------------------------------------------------------------------------
# Arrival traces
# ---------------------------------------------------------------------------


def test_arrival_times_are_seed_deterministic_and_sorted():
    first = arrival_times(np.random.default_rng(7), "diurnal", 50.0, 5.0, 40.0)
    again = arrival_times(np.random.default_rng(7), "diurnal", 50.0, 5.0, 40.0)
    np.testing.assert_array_equal(first, again)
    assert np.all(np.diff(first) >= 0)
    assert first[0] >= 5.0 and first[-1] < 45.0


@pytest.mark.parametrize("shape", ["uniform", "diurnal", "bursty"])
def test_arrival_mean_rate_matches_the_requested_rate(shape):
    # Long window + law of large numbers: the thinned process realises the
    # requested mean rate for every shape whose cycle mean is rate_rps.
    times = arrival_times(np.random.default_rng(3), shape, 40.0, 0.0, 400.0)
    assert len(times) == pytest.approx(40.0 * 400.0, rel=0.05)


def test_bursty_shape_concentrates_arrivals_in_the_on_phase():
    times = arrival_times(np.random.default_rng(11), "bursty", 60.0, 0.0, 200.0)
    in_burst = np.mod(times, 20.0) < 5.0
    # 5 s at 3x vs 15 s at 1/3x: the on-phase carries 75% of the traffic.
    assert in_burst.mean() == pytest.approx(0.75, abs=0.05)


def test_flash_crowd_peaks_mid_window():
    times = arrival_times(np.random.default_rng(5), "flash-crowd",
                          50.0, 0.0, 60.0)
    # The Gaussian spike is centred at 40% of the window; the surrounding
    # +/-10% slice must be far denser than the half-rate baseline tail.
    spike = ((times > 18.0) & (times < 30.0)).sum() / 12.0
    tail = (times > 48.0).sum() / 12.0
    assert spike > 3.0 * tail


def test_peak_rate_bounds_every_shape_and_rejects_unknown_shapes():
    assert peak_rate("uniform", 10.0) == 10.0
    assert peak_rate("bursty", 10.0) == 30.0
    assert peak_rate("flash-crowd", 10.0) == 80.0
    with pytest.raises(ValueError):
        peak_rate("sawtooth", 10.0)
    with pytest.raises(ValueError):
        arrival_times(np.random.default_rng(0), "sawtooth", 10.0, 0.0, 10.0)


def test_zipf_keys_are_rank_skewed_and_bounded():
    keys = zipf_keys(np.random.default_rng(2), 20_000, 64, 1.1)
    assert keys.min() >= 0 and keys.max() < 64
    counts = np.bincount(keys, minlength=64)
    # Rank 0 is the hottest key and the head dominates the tail.
    assert counts[0] == counts.max()
    assert counts[:8].sum() > counts[32:].sum()


# ---------------------------------------------------------------------------
# Token buckets
# ---------------------------------------------------------------------------


def test_token_bucket_refills_at_rate_and_caps_at_capacity():
    bucket = TokenBucket(rate=2.0, capacity=4.0, start_s=0.0)
    # Burst capacity drains first...
    assert all(bucket.try_acquire(0.0) for _ in range(4))
    assert not bucket.try_acquire(0.0)
    # ...then refills at `rate` tokens per second.
    assert not bucket.try_acquire(0.4)
    assert bucket.try_acquire(0.5)
    # A long idle stretch refills to capacity, never beyond.
    assert all(bucket.try_acquire(100.0) for _ in range(4))
    assert not bucket.try_acquire(100.0)


def test_bucket_for_builds_buckets_only_for_throttled_tenants():
    assert bucket_for(None, 1.0, 0.0) is None
    bucket = bucket_for(10.0, 0.5, 0.0)
    assert isinstance(bucket, TokenBucket)
    # Capacity is rate * burst_s, floored at one whole request.
    assert bucket_for(0.5, 0.1, 0.0).try_acquire(0.0)


# ---------------------------------------------------------------------------
# SLO accounting
# ---------------------------------------------------------------------------


def _tracker(*tenants, size=128):
    """An SLO tracker started for ``tenants``, each with room for ``size`` arrivals."""
    tracker = SLOTracker(window_s=10.0)
    tracker.start(tenants, [size] * len(tenants))
    return tracker


def _arrive(tracker, tenant, now, outcome=ADMITTED, ack=None):
    """Write the tenant's next arrival into the columns, as the driver does."""
    line = tracker.names.index(tenant)
    index = tracker.counts[line]
    tracker.handled[line][index] = now
    tracker.outcomes[line][index] = outcome
    if ack is not None:
        tracker.acks[line][index] = ack
    tracker.counts[line] = index + 1


def test_slo_snapshot_windows_arrivals_sheds_and_p99():
    tracker = _tracker("web")
    for t in range(20):
        _arrive(tracker, "web", float(t), outcome=OVERLOAD if t == 19 else ADMITTED,
                ack=18.2 if t == 18 else None)
    snap = tracker.snapshot(20.0, inflight=3)
    # Only the last 10 s of arrivals survive the prune.
    assert snap["arrival_rps"] == pytest.approx(1.0)
    assert snap["shed_rate"] == pytest.approx(0.1)
    assert snap["inflight"] == 3.0
    assert snap["p99_s"] == pytest.approx(0.2)
    # Once the window slides past every sample, p99 disappears rather than
    # reporting a stale value.
    empty = tracker.snapshot(60.0, inflight=0)
    assert empty["arrival_rps"] == 0.0 and "p99_s" not in empty


def test_slo_snapshot_before_start_has_no_arrivals():
    snap = SLOTracker(window_s=10.0).snapshot(5.0, inflight=0)
    assert snap == {"arrival_rps": 0.0, "shed_rate": 0.0, "inflight": 0.0}


def test_slo_finalize_aggregates_tenants_and_digests_latencies():
    tracker = _tracker("web", "batch", "idle")
    for t in (1.0, 2.0, 3.0):
        _arrive(tracker, "web", t, ack=t + 0.1)
    _arrive(tracker, "batch", 2.5, outcome=THROTTLED)
    summary = tracker.finalize(elapsed_s=10.0, admitted=3, completed=3)
    assert summary["arrivals"] == 4 and summary["completed"] == 3
    assert summary["shed"] == {"overload": 0, "throttled": 1}
    assert summary["shed_rate"] == pytest.approx(0.25)
    assert summary["goodput_rps"] == pytest.approx(0.3)
    assert summary["p50_s"] == summary["p99_s"] == pytest.approx(0.1)
    assert sorted(summary["tenants"]) == ["batch", "web"]
    assert summary["tenants"]["batch"]["shed"]["throttled"] == 1
    assert "p50_s" not in summary["tenants"]["batch"]  # no completions
    assert len(summary["latency_digest"]) == 16


def test_digests_match_their_per_point_formulations():
    # Few distinct values, so ties in a time, and in both a time and its
    # value, are common.
    rng = np.random.default_rng(7)
    for _ in range(25):
        count = int(rng.integers(1, 120))
        times = (rng.integers(0, 16, count) / 8).tolist()
        values = (rng.integers(0, 4, count) / 3).tolist()
        hasher = hashlib.sha256()
        for time, value in zip(times, values):
            hasher.update(f"{time:.9e},{value:.9e};".encode("ascii"))
        assert series_digest(times, values) == hasher.hexdigest()[:16]

        # Each point is one arrival handled ``value`` before its
        # acknowledgement at ``time``; its latency is the difference the
        # tracker takes, which may round ``value`` by an ulp.
        tracker = _tracker("web", "batch")
        for index, (time, value) in enumerate(zip(times, values)):
            _arrive(tracker, ("web", "batch")[index % 2], time - value, ack=time)
        values = [time - (time - value) for time, value in zip(times, values)]
        # Tenants in name order, then sorted by index under the pair key.
        acks = times[1::2] + times[0::2]
        latencies = values[1::2] + values[0::2]
        order = sorted(range(count), key=lambda i: (acks[i], latencies[i]))
        assert tracker.finalize(1.0, count, count)["latency_digest"] == series_digest(
            [acks[i] for i in order], [latencies[i] for i in order])


@pytest.mark.parametrize("counters", [(4, 2), (3, 3), (3, 1)])
def test_finalize_refuses_counters_the_columns_disagree_with(counters):
    # Three admitted arrivals, two acknowledged; one shed.
    tracker = _tracker("web")
    for t in (1.0, 2.0, 3.0):
        _arrive(tracker, "web", t, ack=t + 0.1 if t < 3.0 else None)
    _arrive(tracker, "web", 4.0, outcome=OVERLOAD)
    assert tracker.finalize(10.0, 3, 2)["in_flight_at_end"] == 1
    with pytest.raises(RuntimeError, match="serving ledger open"):
        tracker.finalize(10.0, *counters)


def test_finalize_refuses_an_acknowledged_shed_arrival():
    tracker = _tracker("web")
    _arrive(tracker, "web", 1.0, ack=1.5)
    _arrive(tracker, "web", 2.0, outcome=OVERLOAD, ack=2.5)
    with pytest.raises(RuntimeError, match="serving ledger open for web"):
        tracker.finalize(10.0, 1, 2)


# ---------------------------------------------------------------------------
# Spec layer
# ---------------------------------------------------------------------------


def test_serving_spec_validation_rejects_bad_shapes_and_duplicates():
    with pytest.raises(ValueError):
        TenantSpec(name="web", rate_rps=10.0, shape="sawtooth")
    with pytest.raises(ValueError):
        TenantSpec(name="web", rate_rps=0.0)
    with pytest.raises(ValueError):
        ServingSpec(tenants=(TenantSpec(name="a", rate_rps=1.0),
                             TenantSpec(name="a", rate_rps=2.0)))
    with pytest.raises(ValueError):
        ServingSpec(tenants=(TenantSpec(name="a", rate_rps=1.0),),
                    read_fraction=1.5)


def test_serving_spec_is_falsy_without_tenants_and_presets_are_armed():
    assert not NO_SERVING and not ServingSpec()
    assert not SERVING_PRESETS["off"]
    for name in ("steady", "bursty", "flash"):
        assert SERVING_PRESETS[name]
        rebuilt = ServingSpec.from_dict(SERVING_PRESETS[name].to_dict())
        assert rebuilt == SERVING_PRESETS[name]


def test_serving_worker_prefix_marks_pseudo_workers():
    assert SERVING_WORKER_PREFIX == "serve:"
    spec = SERVING_PRESETS["steady"]
    assert all(tenant.rate_rps > 0 for tenant in spec.tenants)


# ---------------------------------------------------------------------------
# The serving-slo autoscaler policy
# ---------------------------------------------------------------------------


def _slo_context(**overrides):
    defaults = dict(
        now=100.0,
        active_workers=["worker-0"],
        pending_workers=0,
        min_workers=1,
        max_workers=None,
        cluster_busy=False,
        pending_time_s=5.0,
        remaining_samples=100_000,
        active_servers=["server-0", "server-1", "server-2"],
        pending_servers=0,
        min_servers=1,
        max_servers=5,
        serving={"arrival_rps": 80.0, "shed_rate": 0.0,
                 "inflight": 4.0, "p99_s": 0.1},
    )
    defaults.update(overrides)
    defaults.setdefault("committed_workers", len(defaults["active_workers"]))
    defaults.setdefault("committed_servers", len(defaults["active_servers"])
                        + defaults["pending_servers"])
    return ElasticContext(**defaults)


def test_slo_policy_scales_out_on_shed_rate_or_p99_breach():
    policy = ServingSLOPolicy(target_p99_s=0.3, max_shed_rate=0.02)
    shed = _slo_context(serving={"arrival_rps": 80.0, "shed_rate": 0.1,
                                 "inflight": 12.0, "p99_s": 0.1})
    actions = policy.decide(shed)
    assert len(actions) == 1 and isinstance(actions[0], ScaleOutServers)
    slow = _slo_context(serving={"arrival_rps": 80.0, "shed_rate": 0.0,
                                 "inflight": 12.0, "p99_s": 0.9})
    assert isinstance(policy.decide(slow)[0], ScaleOutServers)
    # The busy-cluster gate and the headroom cap both veto the grow.
    assert policy.decide(_slo_context(
        serving=dict(shed.serving), cluster_busy=True)) == []
    assert policy.decide(_slo_context(
        serving=dict(shed.serving), pending_servers=2)) == []


def test_slo_policy_scales_in_newest_servers_only_when_clean():
    policy = ServingSLOPolicy(target_p99_s=0.5, max_shed_rate=0.02,
                              scale_in_fraction=0.25, min_arrival_rps=1.0)
    actions = policy.decide(_slo_context())  # p99 0.1 < 0.125, shed 0
    assert len(actions) == 1 and isinstance(actions[0], ScaleInServers)
    assert actions[0].node_names == ("server-2",)  # the newest
    # Quiet tier (no real traffic), warm p99, or the floor: no shrink.
    assert policy.decide(_slo_context(serving={
        "arrival_rps": 0.0, "shed_rate": 0.0, "inflight": 0.0})) == []
    assert policy.decide(_slo_context(serving={
        "arrival_rps": 80.0, "shed_rate": 0.0, "inflight": 4.0,
        "p99_s": 0.2})) == []
    assert policy.decide(_slo_context(min_servers=3)) == []


def test_slo_policy_stands_down_without_a_serving_snapshot():
    policy = ServingSLOPolicy()
    assert policy.decide(_slo_context(serving=None)) == []
    assert isinstance(make_server_policy("serving-slo", target_p99_s=0.3),
                      ServingSLOPolicy)


def test_slo_policy_rejects_nonsense_parameters():
    with pytest.raises(ValueError):
        ServingSLOPolicy(target_p99_s=0.0)
    with pytest.raises(ValueError):
        ServingSLOPolicy(max_shed_rate=1.0)
    with pytest.raises(ValueError):
        ServingSLOPolicy(scale_in_fraction=1.0)
    with pytest.raises(ValueError):
        ServingSLOPolicy(step=0)


# ---------------------------------------------------------------------------
# Driver routing
# ---------------------------------------------------------------------------


def test_routing_follows_a_shard_map_changed_in_place(monkeypatch):
    # Every request a write, so each goes to its shard's primary.  Promoting
    # server-0's standbys changes the chains in place, while the push
    # targets stay the same list: the next requests must see the new owners.
    base = get_scenario("serving-hot-key-fanout")
    spec = replace(base, serving=replace(base.serving, read_fraction=0.0))
    job, _ = build_scenario_job(spec)
    routed = []
    submit = ParameterServer.submit

    def recording(server, worker, nbytes, done=None):
        if worker.startswith(SERVING_WORKER_PREFIX):
            routed.append(server.name)
        return submit(server, worker, nbytes, done)

    monkeypatch.setattr(ParameterServer, "submit", recording)
    job.start()
    job.env.run(until=10.0)
    assert "server-0" in routed
    targets = job.push_targets()
    assert job.shard_map.promote_standbys("server-0")
    assert job.shard_map.assignment()["server-0"] == []
    routed.clear()
    job.env.run(until=12.0)
    assert job.push_targets() is targets
    assert routed and "server-0" not in routed


# ---------------------------------------------------------------------------
# Driver admission and ledger checks
# ---------------------------------------------------------------------------


def _started_serving_job(monkeypatch, name="serving-overload-shed"):
    """A started job of scenario ``name`` whose serving acknowledgements are
    recorded as (callback, payload) and counted per server on their own:
    each held event counts its server up when made and down when it fires."""
    held = []
    depths = defaultdict(int)
    peaks = defaultdict(int)
    event = Wakeups.event

    def recording(wakeups, callback, payload=None):
        server = payload[2]
        depths[server] += 1
        peaks[server] = max(peaks[server], depths[server])

        def counted(fired):
            depths[server] -= 1
            callback(fired)

        held.append((callback, payload))
        return event(wakeups, counted, payload)

    monkeypatch.setattr(Wakeups, "event", recording)
    job, _ = build_scenario_job(get_scenario(name))
    job.start()
    return job, job._serving, held, depths, peaks


def test_admission_bounds_each_servers_inflight_and_tracks_the_peak(monkeypatch):
    job, tier, held, depths, peaks = _started_serving_job(monkeypatch)
    capacity = tier.spec.queue_capacity
    job.env.run(until=job._completion_event)
    # The overload scenario fills servers to the bound, never past it.
    assert max(peaks.values()) == capacity
    summary = tier.finalize(job.env.now)
    assert summary["peak_server_inflight"] == capacity
    assert summary["shed"]["overload"] > 0
    assert summary["in_flight_at_end"] == sum(depths.values())
    assert tier.admitted == len(held)


def _in_flight(tier):
    """(tenant, index) of an admitted arrival not acknowledged yet."""
    slo = tier.slo
    for tenant, count in enumerate(slo.counts):
        waiting = np.flatnonzero((slo.outcomes[tenant][:count] == ADMITTED)
                                 & np.isnan(slo.acks[tenant][:count]))
        if len(waiting):
            return tenant, int(waiting[0])
    raise AssertionError("no arrival in flight")


def test_a_release_without_an_admission_raises(monkeypatch):
    job, tier, held, _, _ = _started_serving_job(monkeypatch)
    job.env.run(until=20.0)
    callback = held[0][0]
    tenant, index = _in_flight(tier)
    idle_server = type("IdleServer", (), {"name": "server-idle"})()
    with pytest.raises(RuntimeError, match="release without admission on 'server-idle'"):
        callback(SimpleNamespace(payload=(tenant, index, idle_server)))


def test_a_second_delivery_of_one_acknowledgement_raises(monkeypatch):
    job, tier, held, _, _ = _started_serving_job(monkeypatch)
    job.env.run(until=20.0)
    callback, payload = held[0]
    tenant, index, _ = payload
    assert tier.slo.acks[tenant][index] == tier.slo.acks[tenant][index]  # delivered
    with pytest.raises(RuntimeError, match="acknowledged again"):
        callback(SimpleNamespace(payload=payload))


def test_an_acknowledgement_of_a_shed_arrival_raises(monkeypatch):
    job, tier, held, _, _ = _started_serving_job(monkeypatch)
    job.env.run(until=20.0)
    callback, (_, _, server) = held[0]
    tenant, index = _in_flight(tier)
    tier.slo.outcomes[tenant][index] = OVERLOAD
    with pytest.raises(RuntimeError, match="after it was shed"):
        callback(SimpleNamespace(payload=(tenant, index, server)))


@pytest.mark.parametrize("counter", ["admitted", "completed"])
def test_a_running_counter_off_by_one_fails_the_ledger(monkeypatch, counter):
    job, tier, _, _, _ = _started_serving_job(monkeypatch)
    job.env.run(until=job._completion_event)
    tier.finalize(job.env.now)
    setattr(tier, counter, getattr(tier, counter) + 1)
    with pytest.raises(RuntimeError, match="serving ledger open"):
        tier.finalize(job.env.now)
