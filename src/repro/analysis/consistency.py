"""CON001: cross-artifact consistency checks (not a pure AST pass).

Two invariants that no single file can witness:

* **Registry <-> golden traces.**  Every registered scenario must have a
  checked-in golden trace under ``tests/golden/traces/``, and every trace
  file must correspond to a registered scenario.  A missing trace means a
  scenario ships unpinned; an orphan trace means the byte-identity gate is
  "verifying" behaviour nothing can reproduce.

* **Spec fields <-> round-trip strategy.**  Every field of every spec
  dataclass the spec codec (:class:`~repro.codec.SpecCodec`) serializes
  must appear (as a keyword argument) in the hypothesis round-trip
  strategies in ``tests/property/test_scenario_roundtrip.py``.
  A field added to a spec but not to its strategy silently escapes the
  lossless-serialization property — exactly how a cache-key or golden-trace
  bug ships.

The check runs whenever the lint selection includes the scenario registry
module, and reports findings against the artifacts themselves (registry
file, trace files, strategy file).
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
from pathlib import Path
from typing import List, Set

from ..codec import SpecCodec
from .findings import Finding
from .registry import Rule, register

__all__ = ["TRIGGER_SUFFIX", "check_project"]

#: Linting this file triggers the project-level pass.
TRIGGER_SUFFIX = "repro/scenarios/registry.py"

_TRACES_DIR = Path("tests") / "golden" / "traces"
_STRATEGY_FILE = Path("tests") / "property" / "test_scenario_roundtrip.py"


@register
class ConsistencyRule(Rule):
    """Catalogue entry: CON001 runs at project level via check_project."""

    rule_id = "CON001"
    title = "registry/golden-trace/round-trip-strategy consistency"
    rationale = ("Every registered scenario needs a golden trace (and vice "
                 "versa), and every frozen spec field must appear in the "
                 "hypothesis round-trip strategy — otherwise behaviour or "
                 "serialization ships unpinned.")

    def check(self, ctx) -> List[Finding]:
        return []


def _finding(path: str, message: str, line: int = 1) -> Finding:
    return Finding(rule="CON001", path=path, line=line, col=1, message=message)


def _check_traces(root: Path) -> List[Finding]:
    findings: List[Finding] = []
    try:
        registry = importlib.import_module("repro.scenarios.registry")
        names = set(registry.scenario_names())
    except Exception as exc:  # pragma: no cover - import environment broken
        return [_finding("src/repro/scenarios/registry.py",
                         f"could not import the scenario registry: {exc}")]
    traces_dir = root / _TRACES_DIR
    trace_names: Set[str] = (
        {path.stem for path in traces_dir.glob("*.json")}
        if traces_dir.is_dir() else set())
    for name in sorted(names - trace_names):
        findings.append(_finding(
            "src/repro/scenarios/registry.py",
            f"registered scenario '{name}' has no golden trace under "
            f"{_TRACES_DIR.as_posix()}/ — run `make golden-update`"))
    for name in sorted(trace_names - names):
        findings.append(_finding(
            (_TRACES_DIR / f"{name}.json").as_posix(),
            f"golden trace '{name}.json' matches no registered scenario — "
            f"delete it or restore the registration"))
    return findings


def _strategy_keywords(strategy_path: Path) -> Set[str]:
    """Every keyword-argument name used in the round-trip strategy file."""
    tree = ast.parse(strategy_path.read_text(encoding="utf-8"))
    keywords: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            keywords.update(kw.arg for kw in node.keywords if kw.arg)
    return keywords


def _check_roundtrip_fields(root: Path) -> List[Finding]:
    strategy_path = root / _STRATEGY_FILE
    rel = _STRATEGY_FILE.as_posix()
    if not strategy_path.is_file():
        return [_finding(rel, "round-trip strategy file is missing")]
    try:
        keywords = _strategy_keywords(strategy_path)
    except SyntaxError as exc:
        return [_finding(rel, f"could not parse strategy file: {exc}",
                         line=exc.lineno or 1)]
    try:
        # Importing the scenario spec module imports every spec module.
        importlib.import_module("repro.scenarios.spec")
    except Exception as exc:  # pragma: no cover - import environment broken
        return [_finding(rel, f"could not import the scenario specs: {exc}")]
    # Every class the spec codec serializes; the module filter keeps toy
    # specs that tests define out of the check.
    spec_classes = sorted(
        (cls for cls in SpecCodec.__subclasses__()
         if cls.__module__.startswith("repro.")),
        key=lambda cls: cls.__name__)
    findings: List[Finding] = []
    for cls in spec_classes:
        for spec_field in dataclasses.fields(cls):
            if spec_field.name not in keywords:
                findings.append(_finding(
                    rel,
                    f"{cls.__name__}.{spec_field.name} never appears as a "
                    f"keyword in the round-trip strategies — a spec field "
                    f"the lossless-serialization property cannot see"))
    return findings


def check_project(root: Path) -> List[Finding]:
    """Run every cross-artifact check against a repository root."""
    return _check_traces(root) + _check_roundtrip_fields(root)
