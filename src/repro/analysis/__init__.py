"""``repro.analysis`` — the determinism, sim-safety and consumer linter.

An AST-based static-analysis framework that proves, before a single event is
simulated, the absence of the nondeterminism sources the golden-trace gate
would otherwise only catch after the fact, and that no code lacks a consumer:

* **Determinism** — DET001 unseeded RNG calls, DET002 wall-clock reads,
  DET003 unsorted dict/set iteration into golden output, DET004 ``os.environ``
  access outside :mod:`repro.core.config`, DET005 ``id()``/``hash()``-derived
  keys.
* **Sim-safety** — SIM001 ``Environment.run`` inside a process generator,
  SIM002 direct access to engine/Store internals.
* **Consistency** — CON001 registry <-> golden traces <-> round-trip
  strategies, checked across artifacts rather than per file.
* **Consumers** — USE001 a definition under ``src/repro`` that nothing in
  ``src/``, ``benchmarks/``, ``examples/`` or ``perfbench/`` refers to
  (tests do not count; checked across files, like CON001), USE002 a
  module-level import its module never reads.

Waivers are explicit (``# detlint: ignore[RULE]``, with an unused-waiver
check SUP001) and grandfathered findings live in a committed baseline, so
the ``python -m repro lint`` CI gate is strict from day one.
"""

from .baseline import BASELINE_FILENAME, Baseline
from .findings import Finding, sort_findings
from .registry import RULES, Rule, RuleContext, all_rules, catalog, register
from .runner import LintReport, lint_paths, lint_source, repo_root

# Importing the rule modules is what populates the registry.
from . import consistency, det_rules, sim_rules, suppress, usage  # noqa: F401  (registration side effect)

__all__ = [
    "BASELINE_FILENAME",
    "Baseline",
    "Finding",
    "LintReport",
    "RULES",
    "Rule",
    "RuleContext",
    "all_rules",
    "catalog",
    "lint_paths",
    "lint_source",
    "register",
    "repo_root",
    "sort_findings",
]
