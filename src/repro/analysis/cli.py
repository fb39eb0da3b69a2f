"""``python -m repro lint`` — the determinism & sim-safety linter CLI.

Defaults are what CI runs: lint ``src/repro`` against the committed
``lint-baseline.json`` at the repository root.  Exit codes: 0 clean, 1 any
active (unsuppressed, non-baselined) finding, 2 usage error.

``--write-baseline`` regenerates the baseline from the current findings —
a deliberate act reviewed like any code change, the escape hatch that keeps
the gate strict (the alternative, loosening a rule, is a linter PR).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List

from .baseline import BASELINE_FILENAME, Baseline
from .registry import catalog
from .runner import LintReport, lint_paths, repo_root

__all__ = ["configure_lint_parser", "run_lint", "default_baseline_path"]


def default_baseline_path() -> Path:
    """The committed baseline at the repository root."""
    return repo_root() / BASELINE_FILENAME


def configure_lint_parser(parser: argparse.ArgumentParser) -> None:
    """Attach the lint arguments to a (sub)parser."""
    parser.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files or directories to lint (default: src/repro)")
    parser.add_argument(
        "--json", action="store_true",
        help="emit the full machine-readable report on stdout")
    parser.add_argument(
        "--baseline", metavar="FILE", default=None,
        help=f"baseline file (default: {BASELINE_FILENAME} at the repo "
             f"root; a missing file is an empty baseline)")
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="ignore the baseline: report every finding, grandfathered or not")
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="rewrite the baseline from the current findings and exit 0 "
             "(review the diff like any code change)")
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit")
    parser.set_defaults(func=run_lint)


def _print_rules() -> None:
    for rule_id, title, rationale in catalog():
        print(f"{rule_id}  {title}")
        print(f"        {rationale}")


def _print_human(report: LintReport, baseline_path: Path,
                 wrote_baseline: bool) -> None:
    for finding in report.active:
        print(finding.render())
    bits = [f"checked {report.files} file(s) in {report.wall_s:.2f}s",
            f"{len(report.active)} finding(s)"]
    if report.suppressed:
        bits.append(f"{len(report.suppressed)} suppressed")
    if report.baselined:
        bits.append(f"{len(report.baselined)} baselined")
    print(": ".join([bits[0], ", ".join(bits[1:])]))
    if wrote_baseline:
        print(f"baseline written to {baseline_path} "
              f"({len(report.active)} grandfathered finding(s))")
    for entry in report.stale_baseline:
        print(f"note: stale baseline entry ({entry['rule']} {entry['path']} "
              f"x{entry['count']}) — shrink {baseline_path.name}",
              file=sys.stderr)


def run_lint(args: argparse.Namespace) -> int:
    """Execute the lint subcommand; returns the process exit code."""
    if args.list_rules:
        _print_rules()
        return 0
    root = repo_root()
    paths: List[str] = args.paths or [str(root / "src" / "repro")]
    baseline_path = (Path(args.baseline) if args.baseline
                     else default_baseline_path())
    if args.write_baseline:
        # Measure ungated, then grandfather everything that was found.
        report = lint_paths(paths, baseline=None, root=root)
        Baseline.from_findings(report.active).save(baseline_path)
        _print_human(report, baseline_path, wrote_baseline=True)
        return 0
    baseline = (None if args.no_baseline else Baseline.load(baseline_path))
    report = lint_paths(paths, baseline=baseline, root=root)
    if args.json:
        print(json.dumps(report.to_document(), indent=2, sort_keys=True))
        print(f"{len(report.active)} finding(s) in {report.files} file(s)",
              file=sys.stderr)
    else:
        _print_human(report, baseline_path, wrote_baseline=False)
    return 1 if report.active else 0
