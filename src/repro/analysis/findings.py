"""The linter's currency: one :class:`Finding` per rule violation.

A finding pins a rule to a source location with a human-readable message.
Findings sort by ``(path, line, col, rule)`` so reports are deterministic
regardless of rule execution order — the linter holds itself to the same
sorted-iteration discipline it enforces (DET003).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

__all__ = ["Finding", "sort_findings"]


@dataclass
class Finding:
    """One rule violation at one source location.

    ``suppressed`` is set by the reporting pipeline when an inline
    ``# detlint: ignore[RULE]`` waiver matches; a suppressed finding does not
    fail the lint.
    """

    rule: str
    path: str
    line: int
    col: int
    message: str
    suppressed: bool = field(default=False, compare=False)

    @property
    def active(self) -> bool:
        """True when the finding counts against the exit code."""
        return not self.suppressed

    @property
    def location(self) -> str:
        """``path:line:col`` — the clickable prefix of :meth:`render`."""
        return f"{self.path}:{self.line}:{self.col}"

    def render(self) -> str:
        """The one-line human report form."""
        return f"{self.location}: {self.rule} {self.message}"

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe form for ``--json`` reports."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


def sort_findings(findings: List[Finding]) -> List[Finding]:
    """Deterministic report order: by location, then rule id."""
    return sorted(findings, key=lambda f: (f.path, f.line, f.col, f.rule))
