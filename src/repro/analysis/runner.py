"""The lint pipeline: files -> AST -> rules -> suppressions.

:func:`lint_source` is the per-file unit (what the fixture tests drive);
:func:`lint_paths` is the front door the CLI and the self-lint test use —
it walks the targets, runs every registered rule, runs each project-level
pass whose trigger file is in scope (CON001 for the scenario registry,
USE001 for the package's ``__init__.py``) and applies inline waivers.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Collection, Dict, List, Optional, Sequence, Union

from ..perf import Stopwatch
from . import consistency, usage
from .findings import Finding, sort_findings
from .registry import Rule, RuleContext, all_rules, attach_parents, register
from .suppress import (
    apply_suppressions,
    collect_suppressions,
    unused_suppression_findings,
)

__all__ = ["LintReport", "lint_paths", "lint_source", "repo_root"]

#: Project-level passes: rule id -> the module holding its trigger file
#: suffix and its ``check_project(root)``.
_PROJECT_PASSES = {"CON001": consistency, "USE001": usage}


def repo_root() -> Path:
    """The repository root (the directory containing ``src``)."""
    # src/repro/analysis/runner.py -> analysis -> repro -> src -> root
    return Path(__file__).resolve().parents[3]


@register
class SyntaxErrorRule(Rule):  # detlint: ignore[USE001]
    """Catalogue entry: SYN001 findings come from the parse step itself."""

    rule_id = "SYN001"
    title = "file does not parse"
    rationale = ("A file the linter cannot parse is a file none of the "
                 "determinism rules can vouch for.")

    def check(self, ctx: RuleContext) -> List[Finding]:
        return []


@dataclass
class LintReport:
    """Everything one lint run learned."""

    findings: List[Finding] = field(default_factory=list)
    files: int = 0
    wall_s: float = 0.0

    @property
    def active(self) -> List[Finding]:
        """Findings that fail the lint (not waived inline)."""
        return [finding for finding in self.findings if finding.active]

    @property
    def suppressed(self) -> List[Finding]:
        return [finding for finding in self.findings if finding.suppressed]

    def counts_by_rule(self) -> Dict[str, int]:
        """Active finding tallies per rule (sorted by rule id)."""
        counts: Dict[str, int] = {}
        for finding in self.active:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return {rule: counts[rule] for rule in sorted(counts)}

    def to_document(self) -> Dict[str, object]:
        """The ``--json`` report (also uploaded as a CI artifact)."""
        return {
            "version": 1,
            "files": self.files,
            "wall_s": round(self.wall_s, 6),
            "counts": self.counts_by_rule(),
            "findings": [finding.to_dict() for finding in self.active],
            "suppressed": [finding.to_dict() for finding in self.suppressed],
        }


def lint_source(source: str, path: str = "<memory>",
                rel: Optional[str] = None,
                project: Sequence[Finding] = (),
                ran: Collection[str] = ()) -> List[Finding]:
    """Lint one source string through every per-file rule.

    ``rel`` is the repo-relative posix path used for whitelist / output-
    module gating; it defaults to ``path`` so fixture tests can place a
    snippet "inside" any module they like.  ``project`` holds the findings
    the project-level passes made in this file, so its waivers apply to
    them too; ``ran`` names the passes that ran.  A waiver naming a project
    rule that did not run cannot be judged and is never reported unused.
    """
    rel = rel if rel is not None else path
    findings = list(project)
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        findings.append(Finding(rule="SYN001", path=path,
                                line=exc.lineno or 1,
                                col=(exc.offset or 0) + 1,
                                message=f"syntax error: {exc.msg}"))
        return sort_findings(findings)
    attach_parents(tree)
    ctx = RuleContext(path=path, rel=rel, source=source, tree=tree)
    for rule in all_rules():
        findings.extend(rule.check(ctx))
    suppressions = collect_suppressions(source)
    apply_suppressions(findings, suppressions)
    findings.extend(unused_suppression_findings(
        path, suppressions, idle=set(_PROJECT_PASSES) - set(ran)))
    return sort_findings(findings)


def _iter_python_files(paths: Sequence[Union[str, Path]]) -> List[Path]:
    files: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py" or path.is_file():
            files.append(path)
        else:
            raise ValueError(f"lint target does not exist: {path}")
    # De-duplicate while preserving deterministic order.
    seen = set()
    unique: List[Path] = []
    for path in files:
        resolved = path.resolve()
        if resolved not in seen:
            seen.add(resolved)
            unique.append(path)
    return unique


def _rel_path(path: Path, root: Path) -> str:
    resolved = path.resolve()
    try:
        return resolved.relative_to(root).as_posix()
    except ValueError:
        return path.as_posix()


def lint_paths(paths: Sequence[Union[str, Path]],
               root: Optional[Path] = None) -> LintReport:
    """Lint files/directories and run the project checks in scope."""
    watch = Stopwatch().start()
    root = (root if root is not None else repo_root()).resolve()
    report = LintReport()
    files = [(path, _rel_path(path, root)) for path in _iter_python_files(paths)]
    linted = {rel for _, rel in files}
    ran = sorted(rule_id for rule_id, module in _PROJECT_PASSES.items()
                 if any(rel.endswith(module.TRIGGER_SUFFIX) for rel in linted))
    project: Dict[str, List[Finding]] = {}
    for rule_id in ran:
        for finding in _PROJECT_PASSES[rule_id].check_project(root):
            if finding.path in linted:
                project.setdefault(finding.path, []).append(finding)
            elif rule_id != "USE001":
                # A USE001 finding is kept only where its file's waivers
                # can be read.
                report.findings.append(finding)
    for path, rel in files:
        source = path.read_text(encoding="utf-8")
        report.findings.extend(lint_source(
            source, path=rel, rel=rel, project=project.get(rel, ()), ran=ran))
        report.files += 1
    report.findings = sort_findings(report.findings)
    report.wall_s = watch.stop()
    return report
