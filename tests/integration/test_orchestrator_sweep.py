"""Integration: parallel sweeps, the determinism proof, and the CLI.

The tentpole guarantee of the orchestrator is that *how* a sweep executes —
serial in-process, or fanned out over a process pool — never changes *what*
it computes: fingerprints are byte-identical either way.  The full-registry
guard below runs the entire scenario catalogue through a 2-process pool and
compares every fingerprint byte-for-byte against the serial
:func:`~repro.orchestrator.simulate_spec` path (the one the checked-in golden
traces were produced by).
"""

import json

import pytest

from repro.orchestrator import ResultStore, SweepRunner, simulate_spec
from repro.orchestrator.cli import main as cli_main
from repro.scenarios import all_scenarios, get_scenario


FAST_NAMES = ["dedicated-baseline", "eviction-storm", "nd-server-straggler"]


def test_parallel_sweep_matches_serial_fingerprints_fast_subset():
    specs = [get_scenario(name) for name in FAST_NAMES]
    parallel = SweepRunner(jobs=2, store=None).run(specs)
    assert not parallel.errors
    for spec, outcome in zip(specs, parallel.outcomes):
        assert outcome.name == spec.name  # submission order preserved
        assert outcome.golden_trace() == simulate_spec(spec).golden_trace()


@pytest.mark.slow
def test_two_process_sweep_of_full_registry_is_byte_identical_to_serial():
    """The determinism proof, over every registered scenario."""
    specs = all_scenarios()
    parallel = SweepRunner(jobs=2, store=None).run(specs)
    assert not parallel.errors
    serial = {spec.name: simulate_spec(spec).golden_trace() for spec in specs}
    for outcome in parallel.outcomes:
        assert outcome.golden_trace() == serial[outcome.name], (
            f"scenario {outcome.name!r} fingerprints differently under the "
            f"process pool than serially")


def test_parallel_sweep_isolates_failures(tmp_path):
    from repro.scenarios import FailureEvent, FailureTraceSpec, ScenarioSpec

    broken = ScenarioSpec(
        name="par-broken", method="bsp", iterations=4,
        failures=FailureTraceSpec(events=(
            FailureEvent(time_s=1.0, node="worker-999"),)),
    )
    specs = [get_scenario("dedicated-baseline"), broken,
             get_scenario("checkpoint-failover")]
    report = SweepRunner(jobs=2, store=ResultStore(tmp_path / "r.jsonl")).run(specs)
    assert [outcome.ok for outcome in report.outcomes] == [True, False, True]
    assert "worker-999" in report.outcomes[1].error
    assert report.simulated == 2 and len(report.errors) == 1


@pytest.mark.slow
def test_two_process_sweep_is_byte_identical_at_1000_workers():
    """Serial vs 2-proc byte-identity holds at the 1000-worker scale point.

    The cohort-coalescing fast paths (eager commits, vectorized push fan-out)
    are exactly the machinery a 1000-worker run leans on hardest, so the
    determinism proof is re-pinned at that scale: the derived
    ``scale-120w@workers=1000`` scenario must fingerprint identically under
    the process pool and under the serial golden path.
    """
    from repro.orchestrator import expand_registry

    specs = expand_registry([get_scenario("scale-120w")], workers=[1000])
    assert [spec.resolve_scale().num_workers for spec in specs] == [1000]
    parallel = SweepRunner(jobs=2, store=None).run(specs)
    assert not parallel.errors
    serial = simulate_spec(specs[0])
    assert parallel.outcomes[0].golden_trace() == serial.golden_trace()


@pytest.mark.slow
def test_warm_cache_full_registry_sweep_runs_zero_simulations(tmp_path):
    """Acceptance: a warm-cache sweep of the whole registry simulates nothing."""
    specs = all_scenarios()
    store = ResultStore(tmp_path / "results.jsonl")
    runner = SweepRunner(jobs=2, store=store)
    cold = runner.run(specs)
    assert cold.simulated == len(specs) and not cold.errors

    warm = runner.run(specs)
    assert warm.hits == len(specs)
    assert warm.simulated == 0
    # Per-run counters: the warm report describes the warm sweep only, even
    # though the same runner executed the cold one (cumulative totals live on
    # runner.counters).
    assert warm.misses == 0
    assert warm.counters["engine_events_processed"] == 0
    assert runner.counters["simulations"] == len(specs)
    assert warm.fingerprints() == cold.fingerprints()


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_list_and_show(capsys):
    assert cli_main(["list"]) == 0
    out = capsys.readouterr().out
    assert "dedicated-baseline" in out and "36 scenario(s)" in out

    assert cli_main(["list", "--tags", "failures", "--exclude-tags", "eviction",
                     "--json"]) == 0
    specs = json.loads(capsys.readouterr().out)
    names = {spec["name"] for spec in specs}
    assert "checkpoint-failover" in names and "eviction-storm" not in names

    assert cli_main(["show", "eviction-storm"]) == 0
    out = capsys.readouterr().out
    assert '"eviction-storm"' in out and "result-store key" in out

    # Bad input is a one-line error and exit code 2, not a traceback.
    assert cli_main(["show", "no-such-scenario"]) == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_cli_sweep_with_cache_and_expansion(tmp_path, capsys):
    args = ["sweep", "dedicated-baseline", "--cache-dir", str(tmp_path), "-j", "1"]
    assert cli_main(args) == 0
    out = capsys.readouterr().out
    assert "simulated=1" in out

    # Second invocation: served from the store.
    assert cli_main(args) == 0
    out = capsys.readouterr().out
    assert "hits=1" in out and "simulated=0" in out

    # Grid expansion through the CLI; --json keeps stdout machine-parseable
    # (the expansion notice and stats line go to stderr).
    assert cli_main(["sweep", "dedicated-baseline", "--seeds", "5", "6",
                     "--no-cache", "--json"]) == 0
    captured = capsys.readouterr()
    fingerprints = json.loads(captured.out)
    assert set(fingerprints) == {"dedicated-baseline@seed=5",
                                 "dedicated-baseline@seed=6"}
    assert "simulated=2" in captured.err


def test_cli_golden_update_writes_and_checks(tmp_path, capsys):
    trace_dir = tmp_path / "traces"
    base = ["--trace-dir", str(trace_dir), "-j", "1",
            "dedicated-baseline", "checkpoint-failover"]
    assert cli_main(["golden-update"] + base) == 0
    assert sorted(path.name for path in trace_dir.glob("*.json")) == \
        ["checkpoint-failover.json", "dedicated-baseline.json"]
    # What golden-update wrote is exactly the serial golden-trace bytes.
    for name in ("dedicated-baseline", "checkpoint-failover"):
        assert (trace_dir / f"{name}.json").read_text() == \
            simulate_spec(get_scenario(name)).golden_trace()
    assert cli_main(["golden-update", "--check"] + base) == 0
    # Drift detection: corrupt one trace, the check must fail.
    (trace_dir / "dedicated-baseline.json").write_text("{}\n")
    assert cli_main(["golden-update", "--check"] + base) == 1
    err = capsys.readouterr().err
    assert "DRIFTED" in err


def test_cli_golden_update_refuses_empty_selection(tmp_path, capsys):
    assert cli_main(["golden-update", "--check", "--tags", "no-such-tag",
                     "--trace-dir", str(tmp_path)]) == 2
    assert "no scenarios selected" in capsys.readouterr().err


def test_cli_golden_update_never_reads_the_result_store(tmp_path, capsys,
                                                        monkeypatch):
    """Golden regeneration must reflect current behaviour, so even a fully
    warm default store is bypassed (a stale cached fingerprint must never be
    written back as a 'regenerated' trace)."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    assert cli_main(["sweep", "dedicated-baseline", "-j", "1"]) == 0
    assert "simulated=1" in capsys.readouterr().out
    assert cli_main(["golden-update", "dedicated-baseline", "-j", "1",
                     "--trace-dir", str(tmp_path / "traces")]) == 0
    out = capsys.readouterr().out
    assert "hits=0" in out and "simulated=1" in out


@pytest.mark.slow
def test_cli_parallel_golden_update_matches_checked_in_traces(tmp_path):
    """Acceptance: the parallel CLI path regenerates every golden trace
    byte-identical to the checked-in serial ones."""
    from repro.orchestrator.cli import default_trace_dir

    trace_dir = tmp_path / "traces"
    assert cli_main(["golden-update", "--trace-dir", str(trace_dir),
                     "-j", "2"]) == 0
    checked_in = default_trace_dir()
    generated = sorted(path.name for path in trace_dir.glob("*.json"))
    assert generated == sorted(path.name for path in checked_in.glob("*.json"))
    for name in generated:
        assert (trace_dir / name).read_bytes() == (checked_in / name).read_bytes(), (
            f"parallel CLI regeneration of {name} diverged from the "
            f"checked-in golden trace")
