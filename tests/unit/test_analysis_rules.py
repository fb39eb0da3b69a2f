"""Unit tests of the determinism & sim-safety linter (``repro.analysis``).

Per-rule positive/negative fixtures through :func:`lint_source`, the inline
suppression round-trip (including the unused-waiver check), baseline
persistence and absorption, the CON001 cross-artifact pass against both the
real repository and a deliberately broken one, the CLI exit-code contract,
and the self-lint: ``src/repro`` must be clean against the committed
baseline — with a deliberately planted wall-clock read proving the gate
actually fires.
"""

import argparse
import dataclasses
import json
import textwrap

import pytest

from repro.analysis import (
    BASELINE_FILENAME,
    Baseline,
    Finding,
    all_rules,
    lint_paths,
    lint_source,
)
from repro.analysis.cli import configure_lint_parser, default_baseline_path
from repro.analysis.consistency import check_project
from repro.analysis.runner import repo_root
from repro.analysis.suppress import collect_suppressions
from repro.codec import SpecCodec

OUTPUT_REL = "src/repro/scenarios/fingerprint.py"


def rules_of(findings):
    return [finding.rule for finding in findings]


def lint(snippet: str, rel: str = "src/repro/sim/somewhere.py"):
    return lint_source(textwrap.dedent(snippet), path=rel, rel=rel)


# ---------------------------------------------------------------------------
# DET001 — unseeded randomness
# ---------------------------------------------------------------------------

class TestUnseededRandom:
    def test_global_random_module_flagged(self):
        findings = lint("""
            import random
            x = random.random()
        """)
        assert rules_of(findings) == ["DET001"]
        assert "random.random" in findings[0].message

    def test_seeded_random_instance_ok(self):
        assert lint("""
            import random
            rng = random.Random(7)
        """) == []

    def test_unseeded_random_instance_flagged(self):
        assert rules_of(lint("""
            import random
            rng = random.Random()
        """)) == ["DET001"]

    def test_numpy_default_rng_needs_seed(self):
        assert rules_of(lint("""
            import numpy as np
            g = np.random.default_rng()
        """)) == ["DET001"]
        assert lint("""
            import numpy as np
            g = np.random.default_rng(7)
        """) == []

    def test_numpy_module_level_rng_always_flagged(self):
        findings = lint("""
            import numpy as np
            x = np.random.rand(3)
        """)
        assert rules_of(findings) == ["DET001"]
        assert "default_rng" in findings[0].message

    def test_alias_resolution_via_from_import(self):
        assert rules_of(lint("""
            from numpy.random import default_rng
            g = default_rng()
        """)) == ["DET001"]


# ---------------------------------------------------------------------------
# DET002 — wall-clock reads
# ---------------------------------------------------------------------------

class TestWallClock:
    def test_time_time_flagged(self):
        findings = lint("""
            import time
            t = time.time()
        """)
        assert rules_of(findings) == ["DET002"]
        assert "Stopwatch" in findings[0].message

    def test_perf_counter_flagged(self):
        assert rules_of(lint("""
            import time
            t = time.perf_counter()
        """)) == ["DET002"]

    def test_datetime_now_flagged(self):
        assert rules_of(lint("""
            import datetime
            stamp = datetime.datetime.now()
        """)) == ["DET002"]

    def test_timing_module_whitelisted(self):
        assert lint("""
            import time
            t = time.perf_counter()
        """, rel="src/repro/perf/timing.py") == []

    def test_localtime_conversion_vs_clock_read(self):
        # No-arg localtime() reads the clock; localtime(secs) converts.
        assert rules_of(lint("""
            import time
            now = time.localtime()
        """)) == ["DET002"]
        assert lint("""
            import time
            broken_down = time.localtime(12345.0)
        """) == []


# ---------------------------------------------------------------------------
# DET003 — unsorted iteration in output modules
# ---------------------------------------------------------------------------

class TestUnsortedIteration:
    def test_dict_view_loop_flagged_in_output_module(self):
        findings = lint("""
            def emit(d, out):
                for key in d.keys():
                    out.append(key)
        """, rel=OUTPUT_REL)
        assert rules_of(findings) == ["DET003"]

    def test_sorted_wrapper_ok(self):
        assert lint("""
            def emit(d, out):
                for key in sorted(d.keys()):
                    out.append(key)
        """, rel=OUTPUT_REL) == []

    def test_set_literal_flagged(self):
        assert rules_of(lint("""
            def emit(out):
                for tag in {"a", "b"}:
                    out.append(tag)
        """, rel=OUTPUT_REL)) == ["DET003"]

    def test_enumerate_wrapper_is_transparent(self):
        assert rules_of(lint("""
            def emit(d, out):
                for i, v in enumerate(d.values()):
                    out.append((i, v))
        """, rel=OUTPUT_REL)) == ["DET003"]

    def test_list_comp_over_items_flagged(self):
        assert rules_of(lint("""
            def emit(d):
                return [v for _, v in d.items()]
        """, rel=OUTPUT_REL)) == ["DET003"]

    def test_order_insensitive_reducer_ok(self):
        # sum()/any()/... cannot leak iteration order into output bytes.
        assert lint("""
            def total(d):
                return sum(v for v in d.values())
        """, rel=OUTPUT_REL) == []

    def test_dict_comprehension_ok(self):
        # The result is an order-insensitive container (output is
        # canonicalised with sort_keys), pinned here as a negative fixture.
        assert lint("""
            def invert(d):
                return {v: k for k, v in d.items()}
        """, rel=OUTPUT_REL) == []

    def test_rule_silent_outside_output_modules(self):
        assert lint("""
            def emit(d, out):
                for key in d.keys():
                    out.append(key)
        """, rel="src/repro/sim/engine_helpers.py") == []


# ---------------------------------------------------------------------------
# DET004 — os.environ outside repro.core.config
# ---------------------------------------------------------------------------

class TestEnvAccess:
    def test_environ_get_flagged(self):
        findings = lint("""
            import os
            flag = os.environ.get("REPRO_X")
        """)
        assert rules_of(findings) == ["DET004"]
        assert "repro.core.config" in findings[0].message

    def test_getenv_flagged(self):
        assert rules_of(lint("""
            import os
            flag = os.getenv("REPRO_X")
        """)) == ["DET004"]

    def test_environ_reported_once_per_read(self):
        # The ``os.environ`` attribute node is the finding, not every parent
        # in the ``os.environ.get(...)`` chain.
        findings = lint("""
            import os
            a = os.environ.get("A")
            b = os.environ["B"]
        """)
        assert rules_of(findings) == ["DET004", "DET004"]

    def test_config_module_whitelisted(self):
        assert lint("""
            import os
            def env_text(name):
                return os.environ.get(name)
        """, rel="src/repro/core/config.py") == []


# ---------------------------------------------------------------------------
# DET005 — id()/hash()-derived keys and output
# ---------------------------------------------------------------------------

class TestIdentityDerived:
    def test_id_as_subscript_key_flagged(self):
        assert rules_of(lint("""
            def track(registry, obj):
                registry[id(obj)] = obj
        """)) == ["DET005"]

    def test_id_as_dict_literal_key_flagged(self):
        assert rules_of(lint("""
            def snapshot(obj):
                return {id(obj): repr(obj)}
        """)) == ["DET005"]

    def test_id_as_sort_key_flagged(self):
        assert rules_of(lint("""
            def order(objs):
                return sorted(objs, key=lambda o: 0) or sorted(id(objs))
        """)) == ["DET005"]

    def test_plain_identity_comparison_ok(self):
        # id() for an identity check never leaves the process: fine.
        assert lint("""
            def same(a, b):
                return id(a) == id(b)
        """) == []

    def test_any_use_flagged_in_output_modules(self):
        assert rules_of(lint("""
            def label(obj):
                return f"obj-{id(obj)}"
        """, rel=OUTPUT_REL)) == ["DET005"]


# ---------------------------------------------------------------------------
# SIM001 / SIM002 — engine safety
# ---------------------------------------------------------------------------

class TestEngineRules:
    def test_env_run_inside_generator_flagged(self):
        findings = lint("""
            def process(env):
                yield env.timeout(1.0)
                env.run()
        """)
        assert rules_of(findings) == ["SIM001"]

    def test_env_run_outside_generator_ok(self):
        assert lint("""
            def drive(env):
                env.run()
        """) == []

    def test_nested_helper_not_attributed_to_outer_generator(self):
        # The nested non-generator owns the call; the outer generator must
        # not be blamed for it.
        assert lint("""
            def process(env):
                def finish():
                    return env.now
                yield env.timeout(1.0)
                finish()
        """) == []

    def test_self_env_run_inside_generator_flagged(self):
        assert rules_of(lint("""
            class Driver:
                def process(self):
                    yield self.env.timeout(1.0)
                    self.env.run()
        """)) == ["SIM001"]

    def test_event_heap_access_flagged(self):
        findings = lint("""
            def cheat(env, event):
                env._queue.append(event)
        """)
        assert rules_of(findings) == ["SIM002"]
        assert "_queue" in findings[0].message

    def test_store_getters_flagged_and_items_heuristic(self):
        findings = lint("""
            def peek(queue):
                waiting = queue._getters
                backlog = queue.items
                view = config.items()
                return waiting, backlog, view
        """)
        assert rules_of(findings) == ["SIM002", "SIM002"]

    def test_self_attributes_and_engine_module_exempt(self):
        assert lint("""
            class Store:
                def size(self):
                    return len(self._getters)
        """) == []
        assert lint("""
            def inside(env, event):
                env._queue.append(event)
        """, rel="src/repro/sim/engine.py") == []


# ---------------------------------------------------------------------------
# Suppressions (detlint: ignore[...]) and SUP001
# ---------------------------------------------------------------------------

class TestSuppressions:
    def test_waiver_suppresses_matching_finding(self):
        findings = lint("""
            import time
            t = time.time()  # detlint: ignore[DET002]
        """)
        assert [f.rule for f in findings if f.active] == []
        suppressed = [f for f in findings if f.suppressed]
        assert rules_of(suppressed) == ["DET002"]

    def test_waiver_is_per_rule(self):
        # A DET001 waiver does not cover the DET002 finding on the line.
        findings = lint("""
            import time
            t = time.time()  # detlint: ignore[DET001]
        """)
        assert sorted(f.rule for f in findings if f.active) == [
            "DET002", "SUP001"]

    def test_unused_waiver_reported(self):
        findings = lint("""
            x = 1  # detlint: ignore[DET002]
        """)
        assert rules_of(findings) == ["SUP001"]
        assert "stale" in findings[0].message

    def test_multi_rule_waiver(self):
        findings = lint("""
            import os, time
            stamp = (time.time(), os.getenv("X"))  # detlint: ignore[DET002, DET004]
        """)
        assert [f.rule for f in findings if f.active] == []
        assert sorted(f.rule for f in findings if f.suppressed) == [
            "DET002", "DET004"]

    def test_docstring_mention_is_not_a_waiver(self):
        source = '"""Docs: waive with ``# detlint: ignore[DET002]``."""\n'
        assert collect_suppressions(source) == {}
        assert lint_source(source, path="doc.py") == []


# ---------------------------------------------------------------------------
# SYN001 and the lint_source front door
# ---------------------------------------------------------------------------

def test_syntax_error_becomes_syn001():
    findings = lint_source("def broken(:\n", path="bad.py")
    assert rules_of(findings) == ["SYN001"]
    assert findings[0].active


def test_findings_sorted_and_rendered():
    findings = lint("""
        import time
        b = time.time()
        a = time.time()
    """)
    assert [f.line for f in findings] == sorted(f.line for f in findings)
    rendered = findings[0].render()
    assert rendered.startswith("src/repro/sim/somewhere.py:")
    assert "DET002" in rendered


def test_rule_catalogue_is_complete():
    ids = {rule.rule_id for rule in all_rules()}
    assert {"DET001", "DET002", "DET003", "DET004", "DET005",
            "SIM001", "SIM002", "CON001", "SUP001", "SYN001"} <= ids


# ---------------------------------------------------------------------------
# Baseline persistence and absorption
# ---------------------------------------------------------------------------

class TestBaseline:
    def _finding(self, message="wall-clock read time.time()"):
        return Finding(rule="DET002", path="src/repro/x.py", line=3, col=1,
                       message=message)

    def test_round_trip(self, tmp_path):
        path = tmp_path / BASELINE_FILENAME
        Baseline.from_findings([self._finding(), self._finding()]).save(path)
        loaded = Baseline.load(path)
        assert len(loaded) == 2
        document = json.loads(path.read_text())
        assert document["version"] == 1
        assert document["findings"][0]["count"] == 2

    def test_absorb_decrements_and_reports_stale(self):
        baseline = Baseline.from_findings([self._finding(), self._finding()])
        finding = self._finding()
        assert baseline.absorb(finding)
        assert finding.baselined and not finding.active
        assert baseline.absorb(self._finding())
        fresh = self._finding()
        assert not baseline.absorb(fresh)  # grant exhausted
        assert fresh.active

    def test_stale_entries_surface_fixed_findings(self):
        baseline = Baseline.from_findings([self._finding()])
        stale = baseline.stale_entries()
        assert len(stale) == 1
        assert stale[0]["rule"] == "DET002"
        baseline.absorb(self._finding())
        assert baseline.stale_entries() == []

    def test_missing_file_is_empty(self, tmp_path):
        assert len(Baseline.load(tmp_path / "absent.json")) == 0


# ---------------------------------------------------------------------------
# CON001 — cross-artifact consistency
# ---------------------------------------------------------------------------

class TestConsistency:
    def test_real_repository_is_consistent(self):
        assert check_project(repo_root()) == []

    def test_broken_root_reports_every_artifact(self, tmp_path):
        # An empty root: every registered scenario misses its trace, and the
        # round-trip strategy file is gone.
        findings = check_project(tmp_path)
        messages = [f.message for f in findings]
        assert any("has no golden trace" in m for m in messages)
        assert any("strategy file is missing" in m for m in messages)

    def test_orphan_trace_detected(self, tmp_path):
        traces = tmp_path / "tests" / "golden" / "traces"
        traces.mkdir(parents=True)
        (traces / "zz-not-a-scenario.json").write_text("{}")
        findings = check_project(tmp_path)
        assert any("matches no registered scenario" in f.message
                   for f in findings)

    def test_spec_defined_outside_repro_is_not_checked(self):
        # A toy spec whose field no strategy names: only specs under
        # ``repro.`` are held to the round-trip strategy file.
        @dataclasses.dataclass(frozen=True)
        class ToySpec(SpecCodec):
            toy_only_knob: int = 0

        assert ToySpec.from_dict(ToySpec(1).to_dict()) == ToySpec(1)
        assert check_project(repo_root()) == []

    @pytest.mark.parametrize("keyword", ["staleness_catchup_s",
                                         "include_persistent_worker"])
    def test_missing_strategy_field_detected(self, tmp_path, keyword):
        real_root = repo_root()
        traces = tmp_path / "tests" / "golden" / "traces"
        traces.mkdir(parents=True)
        for trace in (real_root / "tests" / "golden" / "traces").glob("*.json"):
            (traces / trace.name).write_text("{}")
        strategy_dir = tmp_path / "tests" / "property"
        strategy_dir.mkdir(parents=True)
        real_strategy = (real_root / "tests" / "property"
                         / "test_scenario_roundtrip.py").read_text()
        # Drop one keyword the spec dataclasses require.
        broken = real_strategy.replace(f"{keyword}=", "removed_kw=")
        (strategy_dir / "test_scenario_roundtrip.py").write_text(broken)
        findings = check_project(tmp_path)
        assert any(keyword in f.message for f in findings)


# ---------------------------------------------------------------------------
# lint_paths, the self-lint gate, and the CLI
# ---------------------------------------------------------------------------

def _parse(argv):
    parser = argparse.ArgumentParser()
    configure_lint_parser(parser)
    return parser.parse_args(argv)


def test_self_lint_clean_against_committed_baseline():
    """THE gate: src/repro has no findings beyond the committed baseline."""
    baseline = Baseline.load(default_baseline_path())
    report = lint_paths([repo_root() / "src" / "repro"], baseline=baseline)
    assert report.active == [], "\n".join(
        finding.render() for finding in report.active)
    assert report.stale_baseline == [], (
        "baseline grants more than the tree needs — regenerate it with "
        "`python -m repro lint --write-baseline`")


def test_planted_nondeterminism_fails_the_lint(tmp_path):
    """A deliberate wall-clock read + unseeded RNG must fail the gate."""
    bad = tmp_path / "sim_module.py"
    bad.write_text(textwrap.dedent("""
        import random
        import time

        def jitter():
            return time.time() + random.random()
    """))
    report = lint_paths([bad], baseline=Baseline.empty(), root=tmp_path)
    assert sorted(report.counts_by_rule()) == ["DET001", "DET002"]
    args = _parse([str(bad)])
    assert args.func(args) == 1


def test_cli_exit_codes_and_json(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text("VALUE = 1\n")
    args = _parse([str(clean), "--json"])
    assert args.func(args) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["files"] == 1
    assert document["findings"] == []
    assert document["counts"] == {}


def test_cli_write_baseline_grandfathers(tmp_path, capsys):
    bad = tmp_path / "legacy.py"
    bad.write_text("import time\nT = time.time()\n")
    baseline_path = tmp_path / "baseline.json"
    write_args = _parse([str(bad), "--baseline", str(baseline_path),
                         "--write-baseline"])
    assert write_args.func(write_args) == 0
    capsys.readouterr()
    gated = _parse([str(bad), "--baseline", str(baseline_path)])
    assert gated.func(gated) == 0
    out = capsys.readouterr().out
    assert "1 baselined" in out


def test_cli_list_rules(capsys):
    args = _parse(["--list-rules"])
    assert args.func(args) == 0
    out = capsys.readouterr().out
    for rule_id in ("DET001", "SIM002", "CON001"):
        assert rule_id in out


def test_lint_paths_rejects_missing_target(tmp_path):
    with pytest.raises(ValueError, match="does not exist"):
        lint_paths([tmp_path / "nope"], baseline=None, root=tmp_path)
