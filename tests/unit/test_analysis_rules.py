"""Unit tests of the determinism & sim-safety linter (``repro.analysis``).

Per-rule positive/negative fixtures through :func:`lint_source`, the inline
suppression round-trip (including the unused-waiver check), the CON001
cross-artifact pass against both the real repository and a deliberately
broken one, the USE001/USE002 consumer rules on a planted package, the CLI
exit-code contract, and the self-lint: ``src/repro`` must have no finding
that an inline waiver does not accept — with a deliberately planted
wall-clock read proving the gate actually fires.
"""

import argparse
import dataclasses
import json
import textwrap

import pytest

from repro.analysis import (
    Finding,
    all_rules,
    lint_paths,
    lint_source,
)
from repro.analysis.cli import configure_lint_parser
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

    def test_store_findings_point_at_put_and_get_only(self):
        # Store's public surface is put/get; the messages must not send an
        # author to methods that no longer exist.
        findings = lint("""
            def peek(queue):
                return queue._dispatch, queue.items
        """)
        assert rules_of(findings) == ["SIM002", "SIM002"]
        for finding in findings:
            assert "use put/get" in finding.message
            for removed in ("push", "try_get", "cancel"):
                assert removed not in finding.message

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
            "SIM001", "SIM002", "CON001", "SUP001", "SYN001",
            "USE001", "USE002"} <= ids


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
# USE001 — definitions only tests reach; USE002 — imports nothing reads
# ---------------------------------------------------------------------------

def _plant(root, files):
    """Write a package under ``root/src/repro`` plus the given files."""
    files = {"src/repro/__init__.py": '"""A planted package."""\n', **files}
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))


def _unused_definitions(report):
    return sorted(finding.message.split("`")[1] for finding in report.active
                  if finding.rule == "USE001")


class TestUnusedDefinitions:
    def _lint(self, root, files):
        _plant(root, files)
        return lint_paths([root / "src" / "repro"], root=root)

    def test_definitions_without_a_consumer_are_findings(self, tmp_path):
        report = self._lint(tmp_path, {
            "src/repro/mod.py": """
                __all__ = ["exported_only"]

                def only_tests():
                    return 1

                def exported_only():
                    return 2

                def recursive(n):
                    return recursive(n - 1) if n else 0

                class Widget:
                    def helper(self):
                        return Widget()
            """,
            "src/repro/other.py": """
                from .mod import exported_only
            """,
            "tests/test_mod.py": """
                from repro.mod import Widget, only_tests, recursive
                only_tests(), recursive(2), Widget().helper()
            """,
        })
        assert _unused_definitions(report) == [
            "Widget", "Widget.helper", "exported_only", "only_tests",
            "recursive"]

    def test_consumers_outside_src_and_getattr_literals_count(self, tmp_path):
        report = self._lint(tmp_path, {
            "src/repro/mod.py": """
                def for_benchmarks():
                    return 1

                def for_examples():
                    return 2

                def for_perfbench():
                    return 3

                class Hooks:
                    def on_event(self):
                        return 4

                    def probed(self):
                        return 5

                    def __repr__(self):
                        return "Hooks()"

                def dispatch(hooks):
                    return getattr(hooks, "on_event")(), hasattr(hooks, "probed")
            """,
            "benchmarks/bench.py": """
                from repro.mod import Hooks, dispatch, for_benchmarks
                for_benchmarks(), dispatch(Hooks())
            """,
            "examples/demo.py": """
                import repro.mod
                repro.mod.for_examples()
            """,
            "perfbench/run.py": """
                from repro import mod
                mod.for_perfbench()
            """,
        })
        assert _unused_definitions(report) == []

    def test_waiver_suppresses_and_a_stale_waiver_is_reported(self, tmp_path):
        report = self._lint(tmp_path, {
            "src/repro/mod.py": """
                def registered():  # detlint: ignore[USE001]
                    return 1

                def used():  # detlint: ignore[USE001]
                    return 2

                VALUE = used()
            """,
        })
        assert [finding.message.split("`")[1]
                for finding in report.suppressed] == ["registered"]
        assert [(finding.rule, finding.line) for finding in report.active] == [
            ("SUP001", 5)]

    def test_waiver_is_not_judged_when_the_pass_does_not_run(self, tmp_path):
        _plant(tmp_path, {"src/repro/mod.py": """
            def registered():  # detlint: ignore[USE001]
                return 1
        """})
        # The package __init__.py is outside the selection: USE001 is idle.
        report = lint_paths([tmp_path / "src" / "repro" / "mod.py"],
                            root=tmp_path)
        assert report.findings == []

    def test_lint_source_judges_waivers_only_for_passes_that_ran(self):
        rel = "src/repro/mod.py"
        source = "def registered():  # detlint: ignore[USE001]\n    return 1\n"
        found = Finding(rule="USE001", path=rel, line=1, col=1,
                        message="`registered` is referred to nowhere")
        [waived] = lint_source(source, path=rel, rel=rel, project=[found],
                               ran=["CON001", "USE001"])
        assert waived.rule == "USE001" and waived.suppressed
        # The pass ran and found nothing here: the waiver is stale ...
        assert rules_of(lint_source(source, path=rel, rel=rel,
                                    ran=["USE001"])) == ["SUP001"]
        # ... but when it did not run, the waiver cannot be judged.
        assert lint_source(source, path=rel, rel=rel, ran=["CON001"]) == []

    def test_a_call_from_another_package_module_is_a_consumer(self, tmp_path):
        report = self._lint(tmp_path, {
            "src/repro/mod.py": """
                def helper():
                    return 1
            """,
            "src/repro/other.py": """
                from .mod import helper

                VALUE = helper()
            """,
        })
        assert _unused_definitions(report) == []

    def test_a_decorator_use_is_a_consumer_of_the_decorator_only(self, tmp_path):
        report = self._lint(tmp_path, {
            "src/repro/mod.py": """
                HANDLERS = []

                def handler(fn):
                    HANDLERS.append(fn)
                    return fn

                @handler
                def on_start():
                    return on_start
            """,
        })
        # The decorator line sits in on_start's own span: being registered
        # is not being referred to, which is why registries need waivers.
        assert _unused_definitions(report) == ["on_start"]

    def test_nested_and_dunder_definitions_are_not_checked(self, tmp_path):
        report = self._lint(tmp_path, {
            "src/repro/mod.py": """
                def outer():
                    def inner():
                        return 1

                    class Local:
                        def method(self):
                            return 2
                    return inner, Local

                def __getattr__(name):
                    raise AttributeError(name)

                VALUE = outer()
            """,
        })
        assert _unused_definitions(report) == []

    def test_async_definitions_are_checked(self, tmp_path):
        report = self._lint(tmp_path, {
            "src/repro/mod.py": """
                async def fetch():
                    return 1

                class Client:
                    async def poll(self):
                        return 2

                CLIENT = Client()
            """,
        })
        assert _unused_definitions(report) == ["Client.poll", "fetch"]

    def test_only_getattr_literals_count_among_strings(self, tmp_path):
        report = self._lint(tmp_path, {
            "src/repro/mod.py": """
                def hook():
                    return 1

                def documented():
                    return 2

                NAME = "hook"
                NOTE = "call documented() first"

                def call(obj, name):
                    return getattr(obj, name), setattr(obj, "hook", None)
            """,
            "examples/demo.py": """
                from repro.mod import call
                call(object(), "x")
            """,
        })
        assert _unused_definitions(report) == ["documented", "hook"]

    def test_a_shared_bare_name_keeps_every_definition(self, tmp_path):
        report = self._lint(tmp_path, {
            "src/repro/mod.py": """
                class Fast:
                    def run(self):
                        return 1

                class Slow:
                    def run(self):
                        return 2

                ENGINES = (Fast, Slow)

                def pick(engine):
                    return engine.run()
            """,
            "benchmarks/bench.py": """
                from repro.mod import Fast, pick
                pick(Fast())
            """,
        })
        # Without type resolution, engine.run keeps both methods alive.
        assert _unused_definitions(report) == []

    def test_only_package_definitions_are_held_to_account(self, tmp_path):
        _plant(tmp_path, {
            "src/repro/mod.py": """
                def used_by_tools():
                    return 1
            """,
            "src/tools/helper.py": """
                from repro.mod import used_by_tools

                def orphan_tool():
                    return used_by_tools()
            """,
            "benchmarks/bench.py": """
                def orphan_bench():
                    return 2
            """,
        })
        report = lint_paths([tmp_path / "src", tmp_path / "benchmarks"],
                            root=tmp_path)
        assert report.files == 4
        assert _unused_definitions(report) == []

    def test_seed_engine_oracle_is_exempt(self, tmp_path):
        body = """
            def frozen_helper():
                return 1
        """
        report = self._lint(tmp_path, {
            "src/repro/perf/seed_engine.py": body,
            "src/repro/perf/live_engine.py": body,
        })
        assert [(finding.path, finding.message.split("`")[1])
                for finding in report.active if finding.rule == "USE001"] == [
            ("src/repro/perf/live_engine.py", "frozen_helper")]

    def test_only_definitions_in_linted_files_are_reported(self, tmp_path):
        _plant(tmp_path, {
            "src/repro/alpha.py": """
                def alpha_only():
                    return 1
            """,
            "src/repro/beta.py": """
                def beta_only():
                    return 2
            """,
        })
        package = tmp_path / "src" / "repro"
        report = lint_paths([package / "__init__.py", package / "alpha.py"],
                            root=tmp_path)
        assert _unused_definitions(report) == ["alpha_only"]

    def test_finding_points_at_the_definition(self, tmp_path):
        report = self._lint(tmp_path, {
            "src/repro/mod.py": """
                class Widget:
                    '''A widget.'''

                    def helper(self):
                        return 1

                WIDGET = Widget()
            """,
        })
        [finding] = report.active
        assert (finding.rule, finding.path, finding.line, finding.col) == (
            "USE001", "src/repro/mod.py", 5, 5)
        assert finding.message.startswith("`Widget.helper` is referred to "
                                          "nowhere outside tests")

    def test_an_unparsable_file_is_reported_and_the_pass_still_runs(self, tmp_path):
        report = self._lint(tmp_path, {
            "src/repro/broken.py": "def broken(:\n",
            "src/repro/mod.py": """
                def unused():
                    return 1
            """,
            "examples/broken.py": "import (\n",
        })
        assert sorted((finding.rule, finding.path)
                      for finding in report.active) == [
            ("SYN001", "src/repro/broken.py"), ("USE001", "src/repro/mod.py")]

    def test_self_lint_waives_exactly_the_rule_catalogue_and_adjust_lr(self):
        report = lint_paths([repo_root() / "src" / "repro"])
        assert [finding for finding in report.active
                if finding.rule in ("USE001", "USE002")] == []
        waived = sorted(finding.message.split("`")[1]
                        for finding in report.suppressed
                        if finding.rule in ("USE001", "USE002"))
        catalogue = [type(rule).__name__ for rule in all_rules()]
        assert len(catalogue) == 12
        assert waived == sorted(catalogue + ["AdjustLRSolution"])


class TestUnusedImports:
    def test_unread_module_level_imports_are_findings(self):
        findings = lint("""
            import os
            import numpy as np
            from typing import Dict, List
            from collections import OrderedDict as OD

            def zeros() -> List[int]:
                import json  # function-level: not checked
                return np.zeros(1)
        """)
        assert rules_of(findings) == ["USE002"] * 3
        assert [finding.message.split("`")[1] for finding in findings] == [
            "os", "Dict", "OD"]

    def test_all_string_annotations_and_future_imports_count_as_read(self):
        assert lint("""
            from __future__ import annotations
            from typing import TYPE_CHECKING, Optional
            from .api import exported
            if TYPE_CHECKING:
                from .store import Store

            __all__ = ["exported"]

            def lookup(key: "Optional[Store]") -> None:
                return None
        """) == []

    def test_package_init_is_skipped(self):
        assert lint("import os\n", rel="src/repro/pkg/__init__.py") == []

    def test_a_dotted_import_binds_its_top_level_name(self):
        findings = lint("""
            import os.path
            import xml.dom

            HOME = os.path.join("a", "b")
        """)
        assert rules_of(findings) == ["USE002"]
        assert findings[0].message.startswith("`xml` is imported but never read")

    def test_star_imports_are_skipped(self):
        assert lint("from json import *\n") == []

    def test_imports_in_module_level_blocks_are_checked(self):
        findings = lint("""
            try:
                import json
            except ImportError:
                import pickle as json
            if json:
                import csv

            class Codec:
                import struct  # a class attribute, not a module binding
        """)
        assert [(finding.message.split("`")[1], finding.line)
                for finding in findings] == [("csv", 7)]

    def test_a_read_inside_a_function_counts(self):
        assert lint("""
            import json

            def dump(value):
                return json.dumps(value)
        """) == []

    def test_augmented_and_annotated_all_count_as_read(self):
        assert lint("""
            from typing import List
            from .api import first, second

            __all__: List[str] = ["first"]
            __all__ += ["second"]
        """) == []

    def test_string_annotations_on_variables_and_returns_count(self):
        assert lint("""
            from typing import Dict
            from .store import Store

            CACHE: "Dict[str, int]" = {}

            def open_store() -> "Store":
                raise NotImplementedError
        """) == []

    def test_a_waiver_silences_an_unread_import(self):
        findings = lint("""
            import json  # detlint: ignore[USE002]
            import csv  # detlint: ignore[USE002]

            ROW = csv.reader([])
        """)
        assert [(finding.rule, finding.line) for finding in findings
                if finding.active] == [("SUP001", 3)]
        assert [finding.message.split("`")[1] for finding in findings
                if finding.suppressed] == ["json"]


# ---------------------------------------------------------------------------
# lint_paths, the self-lint gate, and the CLI
# ---------------------------------------------------------------------------

def _parse(argv):
    parser = argparse.ArgumentParser()
    configure_lint_parser(parser)
    return parser.parse_args(argv)


def test_self_lint_clean():
    """THE gate: every finding in src/repro is accepted by an inline waiver,
    and none of those is a SIM002 (engine internals are never waived)."""
    report = lint_paths([repo_root() / "src" / "repro"])
    assert report.active == [], "\n".join(
        finding.render() for finding in report.active)
    assert [finding.render() for finding in report.suppressed
            if finding.rule == "SIM002"] == []


def test_planted_nondeterminism_fails_the_lint(tmp_path):
    """A deliberate wall-clock read + unseeded RNG must fail the gate."""
    bad = tmp_path / "sim_module.py"
    bad.write_text(textwrap.dedent("""
        import random
        import time

        def jitter():
            return time.time() + random.random()
    """))
    report = lint_paths([bad], root=tmp_path)
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


def test_cli_offers_no_baseline_flags(tmp_path):
    # An inline waiver is the one way to accept a finding: there is no
    # grandfathering file to read, skip or write.
    clean = tmp_path / "clean.py"
    clean.write_text("VALUE = 1\n")
    for flags in (["--baseline", str(tmp_path / "b.json")],
                  ["--no-baseline"], ["--write-baseline"]):
        with pytest.raises(SystemExit):
            _parse([str(clean), *flags])


def test_cli_list_rules(capsys):
    args = _parse(["--list-rules"])
    assert args.func(args) == 0
    out = capsys.readouterr().out
    for rule_id in ("DET001", "SIM002", "CON001"):
        assert rule_id in out


def test_lint_paths_rejects_missing_target(tmp_path):
    with pytest.raises(ValueError, match="does not exist"):
        lint_paths([tmp_path / "nope"], root=tmp_path)
