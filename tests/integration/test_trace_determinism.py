"""Integration: trace determinism and the observability CLI surface.

The tracing layer's contract mirrors the sweep runner's: *how* a trace is
produced — serial or fanned out over a process pool, with cohort coalescing
on or off — never changes the trace bytes.  And attaching a recorder must be
pure observation: the traced run's fingerprint must still match the
checked-in golden trace byte for byte.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.obs import capture_trace, run_trace_sweep
from repro.orchestrator import ResultStore, spec_key
from repro.orchestrator.cli import main as cli_main
from repro.orchestrator.store import STORE_FILENAME
from repro.scenarios import FailureEvent, FailureTraceSpec, ScenarioSpec, get_scenario
from repro.scenarios.fingerprint import canonical_json

GOLDEN_TRACE_DIR = Path(__file__).resolve().parent.parent / "golden" / "traces"

#: Fast scenarios with an armed autoscaler (non-empty decision log) plus a
#: static one, so the determinism checks cover both instrumented shapes.
AUTOSCALED = "elastic-autoscale-utilization"
STATIC = "dedicated-baseline"


@pytest.mark.parametrize("name", [
    AUTOSCALED,
    # Serving arrivals stepped inline record shed counters and request spans
    # at arrival time; the promotion burst also re-delivers in-flight requests.
    "serving-overload-shed",
    "serving-promotion-burst",
])
def test_coalescing_mode_does_not_change_trace_bytes(name):
    spec = get_scenario(name)
    on = capture_trace(spec, coalesce=True)
    off = capture_trace(spec, coalesce=False)
    assert on.jsonl == off.jsonl
    assert on.chrome == off.chrome
    # ... and neither mode perturbs the simulation itself.
    assert canonical_json(on.fingerprint) == canonical_json(off.fingerprint)


#: SHA-256 prefixes of the serving scenarios' JSONL trace bodies: every
#: record below the header (which carries the spec key).  Request spans
#: carry their arrival and acknowledgement times, and the shed counters
#: their running counts, so the serving tier's bookkeeping cannot change
#: either without moving a digest.
SERVING_TRACE_DIGESTS = {
    "serving-overload-shed": "46ecaddd360d52c4",
    "serving-promotion-burst": "65e005c60c0a7042",
    "serving-slo-autoscale": "e91022735044a48a",
}


@pytest.mark.parametrize("name", sorted(SERVING_TRACE_DIGESTS))
def test_serving_trace_bodies_match_their_pinned_digests(name):
    body = capture_trace(get_scenario(name)).jsonl.split("\n", 1)[1]
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()[:16]
    assert digest == SERVING_TRACE_DIGESTS[name]


def test_parallel_trace_sweep_is_byte_identical_to_serial():
    specs = [get_scenario(AUTOSCALED), get_scenario(STATIC)]
    serial = run_trace_sweep(specs, jobs=1)
    parallel = run_trace_sweep(specs, jobs=2)
    assert [p["name"] for p in parallel] == [spec.name for spec in specs]
    for left, right in zip(serial, parallel):
        assert left["ok"] and right["ok"]
        assert left["jsonl"] == right["jsonl"]
        assert left["chrome"] == right["chrome"]


def test_trace_sweep_reports_a_failing_spec_as_an_error_record():
    """A spec that fails comes back as an error record in its own slot, and
    the sweep still traces the rest."""
    broken = ScenarioSpec(
        name="trace-broken", method="bsp", seed=1, iterations=4,
        failures=FailureTraceSpec(events=(
            FailureEvent(time_s=1.0, node="worker-999", code="job_eviction"),)))
    payloads = run_trace_sweep([broken, get_scenario(STATIC)], jobs=1)
    assert payloads[0]["ok"] is False and "worker-999" in payloads[0]["error"]
    assert "Traceback" in payloads[0]["traceback"]
    assert payloads[1]["ok"] and payloads[1]["name"] == STATIC


def test_traced_run_fingerprint_matches_checked_in_golden_trace():
    """Attaching a recorder must not perturb simulation behaviour."""
    for name in (AUTOSCALED, STATIC):
        capture = capture_trace(get_scenario(name))
        golden = (GOLDEN_TRACE_DIR / f"{name}.json").read_text(encoding="utf-8")
        assert canonical_json(capture.fingerprint) == golden, (
            f"tracing perturbed the {name!r} run: fingerprint no longer "
            f"matches the checked-in golden trace")


def test_autoscaled_trace_has_decisions_spans_and_gauges():
    capture = capture_trace(get_scenario(AUTOSCALED))
    counts = capture.recorder.counts()
    assert counts.get("span", 0) > 0
    assert counts.get("gauge", 0) > 0
    assert capture.decisions > 0

    known_verdicts = {"scale-out", "scale-in", "scale-out-servers",
                      "scale-in-servers", "hold", "cooldown", "denied"}
    for decision in capture.recorder.decisions:
        assert decision.verdict in known_verdicts
        # Reasons are human-readable sentences, not codes.
        assert decision.reason and " " in decision.reason
        assert isinstance(decision.inputs, dict) and decision.inputs
    granted_verdicts = {d.verdict for d in capture.recorder.decisions
                        if d.granted}
    assert granted_verdicts & known_verdicts - {"hold", "cooldown", "denied"}


def test_static_scenario_records_no_decisions():
    capture = capture_trace(get_scenario(STATIC))
    assert capture.decisions == 0
    assert capture.recorder.counts().get("span", 0) > 0


def test_trace_records_drain_requests_with_reason():
    """A granted scale-in shows up on the membership track with its reason."""
    capture = capture_trace(get_scenario("elastic-server-churn"))
    drains = [(record["track"], record["name"], record["t"], record["args"])
              for record in capture.recorder.sorted_records()
              if record["kind"] == "event"
              and record["name"].endswith("-drain-requested")]
    reason = "elastic-schedule"
    assert drains == [
        ("membership", "worker-drain-requested", 70.0,
         {"node": "worker-7", "reason": reason}),
        ("membership", "worker-drain-requested", 70.0,
         {"node": "worker-6", "reason": reason}),
        ("membership", "server-drain-requested", 90.0,
         {"node": "server-3", "reason": reason}),
    ]


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_trace_writes_and_validates(tmp_path, capsys):
    assert cli_main(["trace", AUTOSCALED, "--trace-dir", str(tmp_path),
                     "--validate", "-j", "1"]) == 0
    out = capsys.readouterr().out
    assert "1 trace(s) written" in out

    jsonl_path = tmp_path / f"{AUTOSCALED}.trace.jsonl"
    chrome_path = tmp_path / f"{AUTOSCALED}.trace.json"
    assert jsonl_path.exists() and chrome_path.exists()

    header = json.loads(jsonl_path.read_text().splitlines()[0])
    assert header["kind"] == "header"
    assert header["scenario"] == AUTOSCALED
    assert header["decisions"] > 0

    document = json.loads(chrome_path.read_text())
    assert document["traceEvents"]
    assert document["otherData"]["scenario"] == AUTOSCALED


def test_cli_trace_format_selection(tmp_path):
    assert cli_main(["trace", STATIC, "--trace-dir", str(tmp_path),
                     "--format", "jsonl", "-j", "1"]) == 0
    assert (tmp_path / f"{STATIC}.trace.jsonl").exists()
    assert not (tmp_path / f"{STATIC}.trace.json").exists()


def test_cli_sweep_trace_and_report_engine_columns(tmp_path, capsys):
    """One sweep feeds both satellite surfaces: --trace writes trace files
    and the store sidecar makes the report's engine-event split non-empty."""
    cache = tmp_path / "cache"
    traces = tmp_path / "traces"
    assert cli_main(["sweep", AUTOSCALED, "--cache-dir", str(cache),
                     "-j", "1", "--trace", "--trace-dir", str(traces)]) == 0
    capsys.readouterr()
    assert (traces / f"{AUTOSCALED}.trace.jsonl").exists()
    assert (traces / f"{AUTOSCALED}.trace.json").exists()

    assert cli_main(["report", "--cache-dir", str(cache)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[-2:] == ["events", "coalesced"]
    row = next(line for line in lines if AUTOSCALED in line)
    events, coalesced = (int(cell) for cell in row.split()[-2:])
    # The cells are the store sidecar's logical events and its
    # logical-minus-physical split, not placeholders.
    store = ResultStore(cache / STORE_FILENAME)
    engine = store.get_record(spec_key(get_scenario(AUTOSCALED)))["engine"]
    assert events == engine["engine_events_processed"]
    assert coalesced == events - engine["engine_events_physical"]


def test_cli_trace_files_match_library_capture(tmp_path):
    """The CLI writes exactly the bytes the library API produces."""
    assert cli_main(["trace", AUTOSCALED, "--trace-dir", str(tmp_path),
                     "-j", "1"]) == 0
    capture = capture_trace(get_scenario(AUTOSCALED))
    assert (tmp_path / f"{AUTOSCALED}.trace.jsonl").read_text() == capture.jsonl
    assert (tmp_path / f"{AUTOSCALED}.trace.json").read_text() == capture.chrome
