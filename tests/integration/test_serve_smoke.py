"""Serve-smoke: the overload scenario really sheds and reports SLO metrics.

``make serve-smoke`` runs this file in CI.  It pins the serving tier's
end-to-end contract on the one registered scenario built to saturate the
admission queues (``serving-overload-shed``): requests are shed for *both*
reasons (queue overload and tenant throttling), tail latency is measured and
lands in the fingerprint, and bounded admission really bounds the per-server
in-flight count.
"""

from repro.elastic import verify_exactly_once, verify_shard_coverage
from repro.orchestrator import SweepRunner, simulate_spec
from repro.scenarios import all_scenarios, build_scenario_job, get_scenario
from repro.scenarios.fingerprint import fingerprint

SCENARIO = "serving-overload-shed"


def test_overload_scenario_sheds_and_reports_slo_metrics():
    spec = get_scenario(SCENARIO)
    outcome = simulate_spec(spec)
    assert outcome.run.completed
    serving = outcome.fingerprint["serving"]

    # The scenario is sized to overrun both protection layers: bounded
    # per-server admission (shed reason "overload") and the spiky tenant's
    # token bucket (shed reason "throttled").
    assert serving["shed_rate"] > 0.0
    assert serving["shed"]["overload"] > 0
    assert serving["shed"]["throttled"] > 0

    # Latency quantiles are part of the fingerprint whenever any request
    # completed — p99 is the SLO the autoscaler policy steers on.
    assert serving["p99_s"] > serving["p50_s"] > 0.0
    assert serving["goodput_rps"] > 0.0

    # Bounded admission is a hard bound, not advisory: the ledger never held
    # more in-flight requests per server than the spec's queue capacity.
    assert 0 < serving["peak_server_inflight"] <= spec.serving.queue_capacity

    # Open-loop accounting closes: every arrival was shed, completed, or
    # still in flight when training finished (rescinded acks count there).
    tenants = serving["tenants"]
    assert set(tenants) == {tenant.name for tenant in spec.serving.tenants}
    total_shed = sum(serving["shed"].values())
    assert (serving["completed"] + total_shed + serving["in_flight_at_end"]
            == serving["arrivals"])


def test_serving_sweep_is_byte_identical_serial_vs_parallel():
    """Fan-out must not change serving bytes — worker processes regenerate
    every arrival trace from the spec seed, so serial and 2-process sweeps
    of the whole serving family produce identical fingerprints."""
    specs = [spec for spec in all_scenarios() if "serving" in spec.tags]
    assert len(specs) >= 4
    serial = SweepRunner(jobs=1, store=None).run(specs)
    parallel = SweepRunner(jobs=2, store=None).run(specs)
    assert not serial.errors and not parallel.errors
    assert serial.fingerprints() == parallel.fingerprints()


def test_request_burst_racing_standby_promotion_stays_exactly_once():
    """A primary evicted mid-burst: promoted standbys absorb both the
    re-delivered serving requests and the training pushes, and the
    per-sample exactly-once audit still balances."""
    spec = get_scenario("serving-promotion-burst")
    job, injector = build_scenario_job(spec, track_coverage=True)
    job.start()
    deadline = job.env.timeout(job.config.max_duration_s)
    job.env.run(until=job.env.any_of([job._completion_event, deadline]))
    assert job.completed
    # The eviction really fired inside the serving window and promoted.
    assert any(event.kind == "promotion" for event in job.reshard_log)
    verify_shard_coverage(job.shard_map, job.active_server_names())
    summary = verify_exactly_once(job.allocator)
    assert summary["missed"] == 0 and summary["duplicated"] == 0
    # Serving accounting closed despite the mid-run ownership change.
    serving = fingerprint(spec, job._build_result(job.env.now), injector)["serving"]
    assert serving["completed"] > 0
    assert (serving["completed"] + sum(serving["shed"].values())
            + serving["in_flight_at_end"] == serving["arrivals"])
