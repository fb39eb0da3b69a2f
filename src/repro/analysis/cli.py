"""``python -m repro lint`` — the determinism & sim-safety linter CLI.

Defaults are what CI runs: lint ``src/repro``.  Exit codes: 0 clean, 1 any
active finding, 2 usage error.  An inline ``# detlint: ignore[RULE]`` waiver
on the finding's line is the one way to accept a finding, and SUP001 reports
a waiver that no longer matches anything.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List

from .registry import catalog
from .runner import LintReport, lint_paths, repo_root

__all__ = ["configure_lint_parser", "run_lint"]


def configure_lint_parser(parser: argparse.ArgumentParser) -> None:
    """Attach the lint arguments to a (sub)parser."""
    parser.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files or directories to lint (default: src/repro)")
    parser.add_argument(
        "--json", action="store_true",
        help="emit the full machine-readable report on stdout")
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit")
    parser.set_defaults(func=run_lint)


def _print_rules() -> None:
    for rule_id, title, rationale in catalog():
        print(f"{rule_id}  {title}")
        print(f"        {rationale}")


def _print_human(report: LintReport) -> None:
    for finding in report.active:
        print(finding.render())
    bits = [f"checked {report.files} file(s) in {report.wall_s:.2f}s",
            f"{len(report.active)} finding(s)"]
    if report.suppressed:
        bits.append(f"{len(report.suppressed)} suppressed")
    print(": ".join([bits[0], ", ".join(bits[1:])]))


def run_lint(args: argparse.Namespace) -> int:
    """Execute the lint subcommand; returns the process exit code."""
    if args.list_rules:
        _print_rules()
        return 0
    root = repo_root()
    paths: List[str] = args.paths or [str(root / "src" / "repro")]
    report = lint_paths(paths, root=root)
    if args.json:
        print(json.dumps(report.to_document(), indent=2, sort_keys=True))
        print(f"{len(report.active)} finding(s) in {report.files} file(s)",
              file=sys.stderr)
    else:
        _print_human(report)
    return 1 if report.active else 0
