"""Unit tests for the sweep orchestrator (repro.orchestrator).

Covers content addressing (salted with the package's code digest), the JSONL
result store (including corruption tolerance), cache semantics of the sweep
runner (reuse without re-simulation, recompute on any spec or code change),
per-spec failure isolation (a lost pool child included), and the grid
expansion combinators.  The parallel/serial byte-identity guard lives in
``tests/integration/test_orchestrator_sweep.py``.
"""

import json
import os
from dataclasses import replace

import pytest

from repro.orchestrator import (
    CACHE_DIR_ENV,
    ResultStore,
    SweepError,
    SweepRunner,
    default_store_path,
    expand,
    expand_registry,
    resolve_jobs,
    run_payload,
    simulate_spec,
    spec_key,
)
from repro.orchestrator import hashing
from repro.orchestrator.worker import map_payloads
from repro.perf import Counter
from repro.scenarios import ScenarioSpec, canonical_json, get_scenario


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "results.jsonl")


FAST_SPEC = ScenarioSpec(name="orc-fast", method="bsp", seed=3, iterations=4)


# ---------------------------------------------------------------------------
# Content addressing
# ---------------------------------------------------------------------------


def test_spec_key_is_stable_and_field_sensitive():
    base = get_scenario("dedicated-baseline")
    assert spec_key(base) == spec_key(ScenarioSpec.from_json(base.to_json()))
    # Any field change — even the description — moves the key.
    assert spec_key(replace(base, seed=base.seed + 1)) != spec_key(base)
    assert spec_key(replace(base, method="asp")) != spec_key(base)
    assert spec_key(replace(base, description="edited")) != spec_key(base)


def test_code_digest_salts_every_key(monkeypatch):
    """Keys address the code as well as the spec: a different package digest
    moves every key."""
    specs = [get_scenario("dedicated-baseline"), FAST_SPEC]
    before = [spec_key(spec) for spec in specs]
    monkeypatch.setattr(hashing, "code_digest", lambda: "0" * 64)
    after = [spec_key(spec) for spec in specs]
    assert all(old != new for old, new in zip(before, after))


# ---------------------------------------------------------------------------
# Result store
# ---------------------------------------------------------------------------


def test_default_store_path_honours_cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
    assert default_store_path() == tmp_path / "results.jsonl"


def test_default_store_path_defaults_to_repo_root(monkeypatch):
    monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
    path = default_store_path()
    root = path.parent.parent
    assert path == root / ".repro-cache" / "results.jsonl"
    assert (root / "src" / "repro").is_dir()


def test_store_roundtrip_and_last_write_wins(store):
    key = store.put(FAST_SPEC, {"jct_s": 1.0})
    assert key == spec_key(FAST_SPEC)
    assert store.get(key) == {"jct_s": 1.0}
    assert store.get_spec(key) == FAST_SPEC
    store.put(FAST_SPEC, {"jct_s": 2.0})
    assert store.get(key) == {"jct_s": 2.0}
    # A fresh handle reads the same state back from disk (last record wins).
    reread = ResultStore(store.path)
    assert reread.get(key) == {"jct_s": 2.0}
    assert len(reread) == 1


def test_store_discards_corrupt_and_mismatched_records(store):
    store.put(FAST_SPEC, {"jct_s": 1.0})
    with open(store.path, "a", encoding="utf-8") as handle:
        handle.write("{not json at all\n")                       # parse error
        handle.write(json.dumps({"key": "junk"}) + "\n")          # missing fields
        record = {"key": "0" * 64, "scenario": "tampered",        # key mismatch
                  "spec": FAST_SPEC.to_dict(), "fingerprint": {"jct_s": 9.0}}
        handle.write(json.dumps(record) + "\n")
    reread = ResultStore(store.path)
    assert reread.get(spec_key(FAST_SPEC)) == {"jct_s": 1.0}
    assert len(reread) == 1
    assert reread.discarded == 3


def test_store_rejects_tampered_fingerprints(store):
    """The digest covers the result payload: a fingerprint edited in place
    (valid JSON, untouched spec/key) must not be served as a hit."""
    key = store.put(FAST_SPEC, {"jct_s": 1.0})
    tampered = store.path.read_text().replace('"jct_s": 1.0', '"jct_s": 999.0')
    store.path.write_text(tampered)
    reread = ResultStore(store.path)
    assert reread.get(key) is None
    assert reread.discarded == 1


def test_store_get_and_put_do_not_alias_caller_dicts(store):
    fingerprint = {"jct_s": 1.0, "restarts": {"worker-1": 1}}
    key = store.put(FAST_SPEC, fingerprint)
    fingerprint["restarts"]["worker-1"] = 99   # caller mutates after put
    first = store.get(key)
    assert first["restarts"] == {"worker-1": 1}
    first["restarts"]["worker-1"] = 77          # ...and mutates a get() result
    assert store.get(key)["restarts"] == {"worker-1": 1}
    assert ResultStore(store.path).get(key)["restarts"] == {"worker-1": 1}


def test_store_last_record_for_a_key_wins(store):
    for value in (1.0, 2.0, 3.0):
        store.put(FAST_SPEC, {"jct_s": value})
    assert ResultStore(store.path).get(spec_key(FAST_SPEC)) == {"jct_s": 3.0}


def test_store_load_with_mixed_valid_corrupt_and_duplicate_lines(store):
    """Loading a file holding everything at once: live records, superseded
    duplicates, half-written junk, tampered entries, and blank lines.  Only
    the live records are served, and nothing readable is lost."""
    other = ScenarioSpec(name="orc-fast-2", method="bsp", seed=4, iterations=4)
    store.put(FAST_SPEC, {"jct_s": 1.0})
    store.put(FAST_SPEC, {"jct_s": 2.0})          # supersedes the first line
    store.put(other, {"jct_s": 7.0})
    with open(store.path, "a", encoding="utf-8") as handle:
        handle.write("\n")                         # blank line
        handle.write("{truncated write\n")         # not JSON
        handle.write(json.dumps({"key": "junk"}) + "\n")  # missing fields
        record = {"key": "0" * 64, "scenario": "tampered",
                  "spec": FAST_SPEC.to_dict(), "fingerprint": {"jct_s": 9.0},
                  "digest": "not-a-digest"}
        handle.write(json.dumps(record) + "\n")    # key+digest mismatch
    reread = ResultStore(store.path)
    assert len(reread) == 2
    assert reread.discarded == 3                   # junk lines, not the blanks
    assert reread.get(spec_key(FAST_SPEC)) == {"jct_s": 2.0}
    assert reread.get(spec_key(other)) == {"jct_s": 7.0}


# ---------------------------------------------------------------------------
# Sweep runner: cache semantics
# ---------------------------------------------------------------------------


def test_cached_result_skips_simulation_entirely(store):
    cold = SweepRunner(jobs=1, store=store).run([FAST_SPEC])
    assert cold.simulated == 1 and cold.hits == 0
    assert cold.counters["engine_events_processed"] > 0

    warm = SweepRunner(jobs=1, store=store).run([FAST_SPEC])
    assert warm.hits == 1 and warm.misses == 0 and warm.simulated == 0
    # The engine never ran: zero events were scheduled or processed.
    assert warm.counters["engine_events_processed"] == 0
    assert warm.counters["engine_events_scheduled"] == 0
    assert warm.outcomes[0].cached and warm.outcomes[0].source == "cache"
    # ...and the cached fingerprint is byte-identical to the computed one.
    assert warm.outcomes[0].golden_trace() == cold.outcomes[0].golden_trace()


def test_any_spec_change_forces_recompute(store):
    SweepRunner(jobs=1, store=store).run([FAST_SPEC])
    for changed in (replace(FAST_SPEC, seed=99),
                    replace(FAST_SPEC, method="asp"),
                    replace(FAST_SPEC, iterations=5),
                    replace(FAST_SPEC, description="same run, new words")):
        report = SweepRunner(jobs=1, store=store).run([changed])
        assert report.hits == 0 and report.simulated == 1, changed


def test_corrupt_store_entry_is_recomputed_not_fatal(store):
    SweepRunner(jobs=1, store=store).run([FAST_SPEC])
    # Flip a byte inside the stored line: the key no longer matches the spec.
    text = store.path.read_text().replace('"seed": 3', '"seed": 4')
    store.path.write_text(text)
    report = SweepRunner(jobs=1, store=ResultStore(store.path)).run([FAST_SPEC])
    assert report.hits == 0 and report.simulated == 1
    assert report.outcomes[0].ok
    # The recomputed result was written back, so the store is repaired.
    assert SweepRunner(jobs=1, store=ResultStore(store.path)).run([FAST_SPEC]).hits == 1


def test_store_written_under_other_code_is_discarded(store, monkeypatch):
    """Records keyed under another code digest never verify: loading drops
    them all, and a sweep from that store re-simulates every spec."""
    specs = [FAST_SPEC, replace(FAST_SPEC, name="orc-fast-2", seed=4)]
    monkeypatch.setattr(hashing, "code_digest", lambda: "0" * 64)
    assert SweepRunner(jobs=1, store=store).run(specs).simulated == 2
    monkeypatch.undo()
    reloaded = ResultStore(store.path)
    assert len(reloaded) == 0 and reloaded.discarded == 2
    report = SweepRunner(jobs=1, store=reloaded).run(specs)
    assert report.hits == 0 and report.simulated == 2


def test_store_disabled_always_simulates():
    runner = SweepRunner(jobs=1, store=None)
    assert runner.run([FAST_SPEC]).simulated == 1
    assert SweepRunner(jobs=1, store=None).run([FAST_SPEC]).simulated == 1


# ---------------------------------------------------------------------------
# Sweep runner: isolation, ordering, validation
# ---------------------------------------------------------------------------


def _failing_spec() -> ScenarioSpec:
    """A spec that builds fine but explodes when the job is assembled:
    its failure trace names a node outside the resolved topology."""
    from repro.scenarios import FailureEvent, FailureTraceSpec

    return ScenarioSpec(
        name="orc-broken", method="bsp", seed=1, iterations=4,
        failures=FailureTraceSpec(events=(
            FailureEvent(time_s=1.0, node="worker-999", code="job_eviction"),)),
    )


def test_failing_scenario_is_isolated_and_reported(store):
    specs = [FAST_SPEC, _failing_spec(), replace(FAST_SPEC, name="orc-fast-2", seed=4)]
    report = SweepRunner(jobs=1, store=store).run(specs)
    assert [outcome.name for outcome in report.outcomes] == \
        ["orc-fast", "orc-broken", "orc-fast-2"]
    assert report.outcomes[0].ok and report.outcomes[2].ok
    broken = report.outcomes[1]
    assert not broken.ok and broken.source == "error"
    assert "worker-999" in broken.error
    assert len(report.errors) == 1 and report.simulated == 2
    # Failures never poison the store.
    assert len(ResultStore(store.path)) == 2
    with pytest.raises(SweepError, match="orc-broken"):
        report.raise_on_error()
    # The summary table still renders, with a placeholder row for the error.
    table = report.summary_table()
    assert "error" in table and "TOTAL" in table


def test_run_payload_reports_errors_as_records():
    payload = run_payload(_failing_spec().to_dict())
    assert payload["ok"] is False
    assert "worker-999" in payload["error"] and "Traceback" in payload["traceback"]
    ok = run_payload(FAST_SPEC.to_dict())
    assert ok["ok"] is True and ok["engine_events_processed"] > 0


def _exit_child(spec_dict):
    """A pool entry that kills its worker process outright."""
    os._exit(3)


def test_lost_pool_child_comes_back_as_error_record():
    """A child the pool loses (BrokenProcessPool) yields an error record per
    spec instead of raising out of the fan-out."""
    specs = [FAST_SPEC, replace(FAST_SPEC, name="orc-fast-2", seed=4)]
    payloads = list(map_payloads(_exit_child, specs, jobs=2))
    assert len(payloads) == 2
    for payload in payloads:
        assert payload["ok"] is False
        assert "BrokenProcessPool" in payload["error"]


def test_runner_rejects_duplicate_names_and_bad_jobs():
    with pytest.raises(ValueError):
        SweepRunner(jobs=1, store=None).run([FAST_SPEC, FAST_SPEC])
    with pytest.raises(ValueError):
        SweepRunner(jobs=0)


def test_resolve_jobs_env(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert resolve_jobs() == 1
    monkeypatch.setenv("REPRO_JOBS", "3")
    assert resolve_jobs() == 3
    assert resolve_jobs(2) == 2  # explicit argument wins
    monkeypatch.setenv("REPRO_JOBS", "many")
    with pytest.raises(ValueError):
        resolve_jobs()


def test_simulate_spec_exposes_live_job():
    sim = simulate_spec(FAST_SPEC)
    assert sim.run.completed
    assert sim.job.cluster.workers
    assert sim.fingerprint["scenario"] == "orc-fast"
    assert sim.golden_trace() == canonical_json(sim.fingerprint)


# ---------------------------------------------------------------------------
# Grid expansion
# ---------------------------------------------------------------------------


def test_expand_cartesian_product_and_names():
    base = get_scenario("nd-transient-mild")
    variants = expand(base, methods=("bsp", "antdt-nd"), seeds=(1, 2, 3))
    assert len(variants) == 6
    names = [spec.name for spec in variants]
    assert len(set(names)) == len(names)
    assert "nd-transient-mild@method=bsp,seed=1" in names
    assert all(spec.tags == base.tags for spec in variants)
    assert expand(base) == [base]


def test_expand_workers_axis_rewrites_topology():
    base = get_scenario("dedicated-baseline")
    variants = expand(base, workers=(6, 12))
    assert [spec.resolve_scale().num_workers for spec in variants] == [6, 12]
    assert variants[0].name == "dedicated-baseline@workers=6"


def test_expand_validates_axis_values():
    base = get_scenario("dedicated-baseline")
    with pytest.raises(ValueError):
        expand(base, methods=("not-a-method",))
    with pytest.raises(ValueError):
        expand(base, scales=("not-a-scale",))
    with pytest.raises(ValueError):
        expand(base, methods=())


def test_cli_report_disambiguates_duplicate_scenario_names(store, capsys):
    """Regression: two cached results under one scenario name (the spec was
    edited between sweeps) must both be reported, distinguishably — not have
    one silently shadow the other."""
    from repro.orchestrator.cli import main as cli_main

    store.put(FAST_SPEC, {"jct_s": 1.0, "samples_confirmed": 10})
    edited = replace(FAST_SPEC, seed=FAST_SPEC.seed + 1)
    store.put(edited, {"jct_s": 2.0, "samples_confirmed": 20})
    assert cli_main(["report", "--cache-dir", str(store.path.parent),
                     "--json"]) == 0
    fingerprints = json.loads(capsys.readouterr().out)
    assert len(fingerprints) == 2
    assert sorted(fp["jct_s"] for fp in fingerprints.values()) == [1.0, 2.0]
    assert all(label.startswith("orc-fast#") for label in fingerprints)


def test_cli_report_filters_by_tags(store, capsys):
    """``report --tags`` keeps the stored results whose spec carries a tag;
    ``--exclude-tags`` drops them."""
    from repro.orchestrator.cli import main as cli_main

    store.put(replace(FAST_SPEC, name="orc-tagged", tags=("A",)), {"jct_s": 1.0})
    store.put(replace(FAST_SPEC, name="orc-other", tags=("B",)), {"jct_s": 2.0})
    report = ["report", "--cache-dir", str(store.path.parent), "--json"]
    assert cli_main(report + ["--tags", "A"]) == 0
    assert list(json.loads(capsys.readouterr().out)) == ["orc-tagged"]
    assert cli_main(report + ["--exclude-tags", "A"]) == 0
    assert list(json.loads(capsys.readouterr().out)) == ["orc-other"]


def test_expand_autoscalers_axis_rewrites_elastic_policy():
    base = get_scenario("dedicated-baseline")
    variants = expand(base, autoscalers=("utilization", "straggler-pressure"))
    assert [spec.elastic.policy for spec in variants] == [
        "utilization", "straggler-pressure"]
    assert variants[0].name == "dedicated-baseline@autoscaler=utilization"
    # An elastic base keeps its schedule/cadence but swaps the policy (and
    # drops parameters that belong to the old policy).
    elastic_base = get_scenario("elastic-scheduled-capacity")
    swapped = expand(elastic_base, autoscalers=("utilization",))[0]
    assert swapped.elastic.policy == "utilization"
    assert swapped.elastic.policy_params == ()
    assert swapped.elastic.interval_s == elastic_base.elastic.interval_s
    kept = expand(elastic_base, autoscalers=("scheduled-capacity",))[0]
    assert kept.elastic.policy_params == elastic_base.elastic.policy_params


def test_expand_drops_unrepresentable_elastic_static_combos():
    """An elastic base crossed with a static-allocator method is not a
    scenario that can exist; the grid drops the point instead of failing."""
    elastic_base = get_scenario("elastic-scale-out")
    variants = expand(elastic_base, methods=("bsp", "asp", "asp-dds"))
    assert [spec.method for spec in variants] == ["bsp", "asp-dds"]
    # Same rule when the autoscaler axis makes a fixed-fleet base elastic.
    fixed_static = get_scenario("hetero-static-partition")  # method "asp"
    assert expand(fixed_static, autoscalers=("utilization",)) == []


def test_expand_registry_name_uniqueness_under_elastic_axes():
    """Satellite: the autoscaler axis composes with the classic axes without
    name or key collisions across the whole registry."""
    derived = expand_registry(seeds=(0, 1),
                              autoscalers=("utilization", "straggler-pressure"))
    # Every DDS-based base takes the full 2x2 product; the one static-method
    # base (hetero-static-partition) cannot be made elastic and drops out.
    names = [spec.name for spec in derived]
    assert len(derived) == (36 - 1) * 4
    assert len(set(names)) == len(names)
    assert len({spec_key(spec) for spec in derived}) == len(derived)
    assert all(spec.elastic.policy in ("utilization", "straggler-pressure")
               for spec in derived)


def test_expand_registry_grows_to_hundreds_of_scenarios():
    derived = expand_registry(methods=("bsp", "asp", "antdt-nd"),
                              seeds=(0, 1, 2, 3))
    # 19 fixed-fleet bases take the full 3x4 product; the 17 elastic bases
    # (7 worker-elastic + 5 server-elastic + the 2 replication scenarios +
    # the 3 elastic serving scenarios) drop the static-allocator method
    # ("asp") and take a 2x4 product.
    assert len(derived) == 19 * 12 + 17 * 8
    names = [spec.name for spec in derived]
    assert len(set(names)) == len(names), "derived names must be collision-free"
    # Derived specs are content-addressable like any other.
    assert len({spec_key(spec) for spec in derived}) == len(derived)


def test_outcome_counter_merge():
    counter = Counter()
    counter.update({"a": 2, "b": 1.5})
    counter.update({"a": 1})
    assert counter["a"] == 3.0 and counter["b"] == 1.5
