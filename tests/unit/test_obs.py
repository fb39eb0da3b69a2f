"""Unit tests of the observability layer (``repro.obs``).

Recorder API semantics, the deterministic export order, both export forms,
the Chrome trace-event schema validator, and the zero-overhead NullRecorder
contract.
"""

import json

from repro.obs import (
    Decision,
    NULL_RECORDER,
    NullRecorder,
    TRACE_FORMAT,
    TraceRecorder,
    export_chrome_trace,
    export_jsonl,
    validate_chrome_trace,
)


def _sample_recorder() -> TraceRecorder:
    recorder = TraceRecorder()
    recorder.span("worker-0", "iteration", 1.0, 3.0, cat="train",
                  args={"samples": 128})
    recorder.span("worker-1", "iteration", 1.0, 2.5, cat="train")
    recorder.gauge("server-0", "queue-depth", 2.0, 4)
    recorder.counter("fleet", "restarts", 2.5, 1)
    recorder.event("membership", "worker-joined", 2.0, {"node": "worker-2"})
    recorder.decision(Decision(
        time_s=20.0, tier="workers", policy="utilization",
        verdict="scale-out", reason="cluster underutilized",
        inputs={"active_workers": 2}, requested=(), granted=("worker-3",),
        count=1))
    return recorder


class TestTraceRecorder:
    def test_len_and_counts(self):
        recorder = _sample_recorder()
        assert len(recorder) == 6
        assert recorder.counts() == {
            "span": 2, "gauge": 1, "counter": 1, "event": 1, "decision": 1}

    def test_decisions_list(self):
        recorder = _sample_recorder()
        assert len(recorder.decisions) == 1
        assert recorder.decisions[0].verdict == "scale-out"

    def test_sorted_records_total_order(self):
        recorder = _sample_recorder()
        records = recorder.sorted_records()
        # Sorted by (time, track, per-track seq): the two t=1.0 spans come
        # first ordered by track name, then the t=2.0 pair by track name.
        kinds = [(r["kind"], r["track"]) for r in records]
        assert kinds == [
            ("span", "worker-0"), ("span", "worker-1"),
            ("event", "membership"), ("gauge", "server-0"),
            ("counter", "fleet"), ("decision", "autoscaler"),
        ]

    def test_per_track_order_preserved_at_equal_time(self):
        recorder = TraceRecorder()
        recorder.event("a", "first", 5.0)
        recorder.event("a", "second", 5.0)
        names = [r["name"] for r in recorder.sorted_records()]
        assert names == ["first", "second"]

    def test_span_payload(self):
        recorder = _sample_recorder()
        span = recorder.sorted_records()[0]
        assert span == {"kind": "span", "track": "worker-0",
                        "name": "iteration", "t0": 1.0, "t1": 3.0,
                        "cat": "train", "args": {"samples": 128}}

    def test_values_clamped_json_safe(self):
        recorder = TraceRecorder()
        recorder.gauge("t", "g", 0.0, object())
        recorder.event("t", "e", 0.0, {"pi": 3.14159265358979})
        records = recorder.sorted_records()
        assert isinstance(records[0]["value"], str)
        assert records[1]["args"]["pi"] == round(3.14159265358979, 9)

    def test_decision_to_record(self):
        record = _sample_recorder().decisions[0].to_record()
        assert record["kind"] == "decision"
        assert record["track"] == "autoscaler"
        assert record["verdict"] == "scale-out"
        assert record["reason"] == "cluster underutilized"
        assert record["granted"] == ["worker-3"]
        assert record["inputs"] == {"active_workers": 2}
        assert record["count"] == 1


class TestNullRecorder:
    def test_disabled_and_noop(self):
        recorder = NullRecorder()
        assert recorder.enabled is False
        assert NULL_RECORDER.enabled is False
        # Every API accepts calls and records nothing (no attributes exist).
        recorder.span("t", "n", 0.0, 1.0)
        recorder.gauge("t", "n", 0.0, 1)
        recorder.counter("t", "n", 0.0, 1)
        recorder.event("t", "n", 0.0)
        recorder.decision(Decision(time_s=0.0, tier="workers", policy="p",
                                   verdict="hold", reason="r"))
        assert not hasattr(recorder, "_records")

    def test_enabled_is_class_attribute(self):
        # Hot loops hoist `recorder.enabled` into a local; a property would
        # silently reintroduce per-read overhead.
        assert "enabled" in NullRecorder.__dict__
        assert not isinstance(NullRecorder.__dict__["enabled"], property)


class TestExportJsonl:
    def test_header_then_records(self):
        recorder = _sample_recorder()
        text = export_jsonl(recorder, "demo", spec_key="abc123")
        lines = text.splitlines()
        assert len(lines) == 1 + len(recorder)
        header = json.loads(lines[0])
        assert header == {"kind": "header", "format": TRACE_FORMAT,
                          "scenario": "demo", "records": 6, "decisions": 1,
                          "spec_key": "abc123"}
        assert text.endswith("\n")

    def test_deterministic_bytes(self):
        a = export_jsonl(_sample_recorder(), "demo")
        b = export_jsonl(_sample_recorder(), "demo")
        assert a == b

    def test_lines_are_compact_sorted_json(self):
        text = export_jsonl(_sample_recorder(), "demo")
        for line in text.splitlines():
            parsed = json.loads(line)
            assert line == json.dumps(parsed, sort_keys=True,
                                      separators=(",", ":"))


class TestExportChromeTrace:
    def test_document_structure(self):
        recorder = _sample_recorder()
        document = json.loads(export_chrome_trace(recorder, "demo"))
        assert document["otherData"] == {"format": TRACE_FORMAT,
                                         "scenario": "demo"}
        events = document["traceEvents"]
        phases = [event["ph"] for event in events]
        # process_name + one thread_name per track, then the records.
        tracks = {r["track"] for r in recorder.sorted_records()}
        assert phases.count("M") == 1 + len(tracks)
        assert phases.count("X") == 2      # spans
        assert phases.count("C") == 2      # gauge + counter
        assert phases.count("i") == 2      # event + decision

    def test_span_microseconds(self):
        document = json.loads(export_chrome_trace(_sample_recorder(), "demo"))
        spans = [e for e in document["traceEvents"] if e["ph"] == "X"]
        by_dur = sorted(span["dur"] for span in spans)
        assert by_dur == [1.5e6, 2.0e6]
        assert all(span["ts"] == 1.0e6 for span in spans)

    def test_decision_instant(self):
        document = json.loads(export_chrome_trace(_sample_recorder(), "demo"))
        instants = [e for e in document["traceEvents"]
                    if e["ph"] == "i" and e["name"].startswith("decision:")]
        assert len(instants) == 1
        assert instants[0]["name"] == "decision:scale-out"
        assert instants[0]["args"]["reason"] == "cluster underutilized"

    def test_validates_clean(self):
        text = export_chrome_trace(_sample_recorder(), "demo")
        assert validate_chrome_trace(text) == []

    def test_deterministic_bytes(self):
        a = export_chrome_trace(_sample_recorder(), "demo")
        b = export_chrome_trace(_sample_recorder(), "demo")
        assert a == b


class TestValidateChromeTrace:
    def test_rejects_bad_json(self):
        assert validate_chrome_trace("{not json")[0].startswith("not valid JSON")

    def test_rejects_non_object(self):
        assert validate_chrome_trace("[1,2]") == ["top level must be a JSON object"]

    def test_rejects_missing_trace_events(self):
        assert validate_chrome_trace({"foo": 1}) == ["missing traceEvents list"]

    def test_flags_empty_trace_events(self):
        assert "traceEvents is empty" in validate_chrome_trace(
            {"traceEvents": []})

    def test_flags_unknown_phase(self):
        errors = validate_chrome_trace({"traceEvents": [
            {"ph": "Z", "name": "x", "pid": 1}]})
        assert any("unknown phase" in error for error in errors)

    def test_flags_complete_event_without_dur(self):
        errors = validate_chrome_trace({"traceEvents": [
            {"ph": "X", "name": "x", "pid": 1, "ts": 0.0}]})
        assert any("without numeric dur" in error for error in errors)

    def test_flags_non_numeric_counter_args(self):
        errors = validate_chrome_trace({"traceEvents": [
            {"ph": "C", "name": "x", "pid": 1, "ts": 0.0,
             "args": {"depth": True}}]})
        assert any("must be numeric" in error for error in errors)


class TestEngineStatsSplit:
    def test_without_coalescing_logical_equals_physical(self):
        from repro.perf import EngineStats
        from repro.sim.engine import Environment

        env = Environment()
        stats = EngineStats(env)
        env.timeout(1.0)
        env.run()
        assert stats.physical == 1
        assert stats.logical == stats.physical == stats.processed

    def test_coalesced_folds_count_as_logical_not_physical(self):
        from repro.perf import EngineStats
        from repro.sim.engine import Environment

        env = Environment()
        env.timeout(0.5)
        env.run()
        stats = EngineStats(env)
        env.timeout(1.0)
        env.timeout(2.0)
        env.coalesced_count += 5
        env.run()
        assert stats.physical == 2
        assert stats.logical == stats.processed == 7
