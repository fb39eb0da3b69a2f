"""Per-finding suppression comments: ``# detlint: ignore[RULE, ...]``.

A waiver lives on the physical line of the finding it silences and names the
rule(s) explicitly — there is no blanket ``ignore`` form.  Every waiver must
earn its keep: a suppression that matches no finding is itself reported as
``SUP001`` (unused suppression), so stale waivers cannot rot in the tree and
silently swallow a future, real finding on the same line.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Collection, Dict, List, Tuple

from .findings import Finding
from .registry import Rule, register

__all__ = ["Suppression", "collect_suppressions", "apply_suppressions",
           "unused_suppression_findings"]

_SUPPRESS_RE = re.compile(r"#\s*detlint:\s*ignore\[([A-Za-z0-9_\s,]*)\]")


@dataclass
class Suppression:
    """One inline waiver: the rules it names and whether any finding used it."""

    line: int
    rules: Tuple[str, ...]
    used: bool = field(default=False)


@register
class UnusedSuppressionRule(Rule):  # detlint: ignore[USE001]
    """Catalogue entry only: SUP001 findings are emitted by the pipeline
    (after suppression matching), not by a per-file AST pass."""

    rule_id = "SUP001"
    title = "unused suppression comment"
    rationale = ("A `# detlint: ignore[...]` that matches no finding is a "
                 "rotten waiver: it documents a hazard that no longer "
                 "exists and would silently swallow the next real finding "
                 "on its line.  Delete it.")

    def check(self, ctx) -> List[Finding]:
        return []


def collect_suppressions(source: str) -> Dict[int, Suppression]:
    """Parse every waiver comment; returns {physical line -> Suppression}.

    Waivers are recognised only in genuine ``COMMENT`` tokens — the text
    ``# detlint: ignore[...]`` inside a docstring or string literal (e.g.
    documentation *about* the waiver syntax) is not a waiver.  Malformed
    rule lists (empty brackets) still register so they surface as unused
    rather than being ignored outright.
    """
    suppressions: Dict[int, Suppression] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS_RE.search(token.string)
            if match is None:
                continue
            lineno = token.start[0]
            rules = tuple(sorted({part.strip() for part in
                                  match.group(1).split(",") if part.strip()}))
            suppressions[lineno] = Suppression(line=lineno, rules=rules)
    except tokenize.TokenError:
        # An untokenizable file already produced a SYN001 finding; there is
        # nothing meaningful to suppress in it.
        pass
    return suppressions


def apply_suppressions(findings: List[Finding],
                       suppressions: Dict[int, Suppression]) -> None:
    """Mark findings whose line carries a waiver naming their rule."""
    if not suppressions:
        return
    for finding in findings:
        waiver = suppressions.get(finding.line)
        if waiver is not None and finding.rule in waiver.rules:
            finding.suppressed = True
            waiver.used = True


def unused_suppression_findings(path: str,
                                suppressions: Dict[int, Suppression],
                                idle: Collection[str] = ()) -> List[Finding]:
    """SUP001 findings for waivers that silenced nothing.

    ``idle`` names project-level rules that did not run: a waiver naming one
    of them cannot be judged, so it is never reported.
    """
    findings: List[Finding] = []
    for lineno in sorted(suppressions):
        waiver = suppressions[lineno]
        if not waiver.used and set(idle).isdisjoint(waiver.rules):
            named = ", ".join(waiver.rules) if waiver.rules else "<no rules>"
            findings.append(Finding(
                rule="SUP001", path=path, line=lineno, col=1,
                message=(f"suppression for [{named}] matches no finding "
                         f"on this line — delete the stale waiver")))
    return findings
