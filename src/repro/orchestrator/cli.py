"""The ``python -m repro`` command line — the front door to the orchestrator.

Subcommands
-----------
``list``
    Show the registered scenario catalogue (filterable by tags).
``show``
    Print one scenario's full declarative spec, resolved scale, and
    result-store key.
``sweep``
    Run a scenario sweep — registry subsets by name or tag, optionally
    grid-expanded across methods / seeds / scales / cluster sizes / worker-
    and server-tier autoscaler policies — in parallel, with content-addressed
    result caching.  ``--trace`` additionally writes a simulation-time trace
    per scenario (regenerated deterministically even for cached results).
``report``
    Print a per-scenario summary table straight from the cached result store,
    without building or running a single simulation; includes the engine's
    logical/physical event split when the sweep recorded it.
``trace``
    Re-simulate scenarios with the :mod:`repro.obs` recorder attached and
    write JSONL + Chrome trace-event JSON (openable in Perfetto / chrome
    tracing).  Traces are byte-deterministic: serial and parallel invocations
    write identical files.
``golden-update``
    Regenerate (or ``--check``) the golden traces under
    ``tests/golden/traces/`` through the parallel sweep path.  Parallel and
    serial execution produce byte-identical traces; the golden suite is the
    standing proof.
``lint``
    Run the :mod:`repro.analysis` determinism & sim-safety linter: AST rules
    (unseeded RNGs, wall-clock reads, unsorted iteration into golden output,
    stray ``os.environ`` reads, engine-internal access) plus cross-artifact
    consistency checks, gated by inline ``# detlint: ignore[RULE]`` waivers
    and the committed ``lint-baseline.json``.

Worker count comes from ``--jobs`` or the ``REPRO_JOBS`` environment
variable; the result store lives under ``REPRO_CACHE_DIR`` (default:
``.repro-cache/`` at the repository root) and can be bypassed per-invocation
with ``--no-cache``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from ..perf.profiling import (
    profiling_requested,
    run_profiled,
    warn_multiprocess_profile,
)
from ..scenarios.registry import all_scenarios, get_scenario, has_tags
from ..scenarios.spec import ScenarioSpec
from .grid import expand_registry
from .hashing import spec_key
from .runner import AUTO_STORE, SweepReport, SweepRunner, resolve_jobs, summary_row
from .store import STORE_FILENAME, ResultStore, repro_root

__all__ = ["main", "build_parser", "default_trace_dir",
           "default_trace_output_dir"]


def default_trace_dir() -> Path:
    """Where the checked-in golden traces live (repo-root relative)."""
    return repro_root() / "tests" / "golden" / "traces"


def default_trace_output_dir() -> Path:
    """Where ``trace`` / ``--trace`` write observability traces by default.

    Deliberately distinct from :func:`default_trace_dir`: golden traces are
    checked-in behavioural fingerprints; these are viewable run timelines.
    """
    return repro_root() / ".repro-traces"


# ---------------------------------------------------------------------------
# Argument plumbing
# ---------------------------------------------------------------------------


def _add_selection_args(parser: argparse.ArgumentParser,
                        with_names: bool = True) -> None:
    if with_names:
        parser.add_argument(
            "names", nargs="*", metavar="SCENARIO",
            help="explicit scenario names (default: the tag-filtered registry)")
    parser.add_argument("--tags", nargs="+", metavar="TAG",
                        help="keep only scenarios carrying any of these tags")
    parser.add_argument("--exclude-tags", nargs="+", metavar="TAG",
                        help="drop scenarios carrying any of these tags")


def _add_runner_args(parser: argparse.ArgumentParser, cache: bool = True) -> None:
    parser.add_argument("-j", "--jobs", type=int, default=None,
                        help="parallel worker processes (default: $REPRO_JOBS or 1)")
    if cache:
        parser.add_argument("--no-cache", action="store_true",
                            help="bypass the result store: always simulate")
        parser.add_argument("--cache-dir", metavar="DIR", default=None,
                            help="result-store directory (default: $REPRO_CACHE_DIR "
                                 "or .repro-cache/ at the repo root)")


def _select_specs(args: argparse.Namespace) -> List[ScenarioSpec]:
    if getattr(args, "names", None):
        return [get_scenario(name) for name in args.names]
    return all_scenarios(tags=args.tags, exclude_tags=args.exclude_tags)


def _make_runner(args: argparse.Namespace) -> SweepRunner:
    if args.no_cache:
        store = None
    elif args.cache_dir:
        store = ResultStore(Path(args.cache_dir) / STORE_FILENAME)
    else:
        store = AUTO_STORE
    return SweepRunner(jobs=args.jobs, store=store)


def _print_report(report: SweepReport, as_json: bool) -> None:
    if as_json:
        # Keep stdout machine-parseable: the JSON document is the only thing
        # written there; the human stats line goes to stderr.
        print(json.dumps(report.fingerprints(), indent=2, sort_keys=True))
        print(report.stats_line(), file=sys.stderr)
    else:
        print(report.summary_table())
        print(report.stats_line())
    for outcome in report.errors:
        print(f"ERROR {outcome.name}: {outcome.error}", file=sys.stderr)
        if outcome.traceback:
            print(outcome.traceback, file=sys.stderr)


def _spec_is_autoscaled(spec: ScenarioSpec) -> bool:
    """Whether a spec arms any autoscaler policy (worker or server tier)."""
    elastic = spec.elastic
    return bool(elastic) and (elastic.policy is not None
                              or elastic.servers.policy is not None)


def _emit_traces(specs: List[ScenarioSpec], out_dir: Path, fmt: str = "both",
                 validate: bool = False, jobs: Optional[int] = None) -> int:
    """Trace every spec and write the requested forms; returns an exit code.

    Traces are regenerated by re-simulating each spec (deterministically, so
    a cached sweep result's trace is reproduced exactly); parallel and serial
    invocations write byte-identical files.
    """
    from ..obs.capture import run_trace_sweep
    from ..obs.export import validate_chrome_trace

    out_dir.mkdir(parents=True, exist_ok=True)
    payloads = run_trace_sweep(specs, jobs=jobs)
    failures = 0
    for spec, payload in zip(specs, payloads):
        name = str(payload.get("name", spec.name))
        if not payload.get("ok"):
            failures += 1
            print(f"TRACE ERROR {name}: {payload.get('error')}", file=sys.stderr)
            if payload.get("traceback"):
                print(payload["traceback"], file=sys.stderr)
            continue
        written: List[str] = []
        if fmt in ("jsonl", "both"):
            path = out_dir / f"{name}.trace.jsonl"
            path.write_text(str(payload["jsonl"]), encoding="utf-8")
            written.append(path.name)
        if fmt in ("chrome", "both"):
            path = out_dir / f"{name}.trace.json"
            path.write_text(str(payload["chrome"]), encoding="utf-8")
            written.append(path.name)
        problems: List[str] = []
        if validate:
            problems = validate_chrome_trace(str(payload["chrome"]))
            if _spec_is_autoscaled(spec) and not payload.get("decisions"):
                problems.append(
                    "autoscaled scenario produced an empty decision log")
        if problems:
            failures += 1
            for problem in problems:
                print(f"INVALID {name}: {problem}", file=sys.stderr)
            continue
        counts = payload.get("counts", {}) or {}
        summary = " ".join(f"{kind}={counts[kind]}" for kind in sorted(counts))
        print(f"{name}: {' + '.join(written)} ({summary or 'no records'}, "
              f"decisions={payload.get('decisions', 0)})")
    if not failures:
        print(f"{len(payloads)} trace(s) written to {out_dir}")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_list(args: argparse.Namespace) -> int:
    from ..experiments.reporting import format_table

    specs = _select_specs(args)
    if args.json:
        print(json.dumps([spec.to_dict() for spec in specs], indent=2, sort_keys=True))
        return 0
    rows = [[spec.name, spec.method, spec.scale, spec.seed, ",".join(spec.tags)]
            for spec in specs]
    print(format_table(["scenario", "method", "scale", "seed", "tags"], rows))
    print(f"{len(specs)} scenario(s)")
    return 0


def _cmd_show(args: argparse.Namespace) -> int:
    spec = get_scenario(args.name)
    print(spec.to_json())
    scale = spec.resolve_scale()
    print(f"# resolved scale: {scale.num_workers} workers, "
          f"{scale.num_servers} servers, {scale.iterations} iterations")
    print(f"# result-store key: {spec_key(spec)}")
    trace = default_trace_dir() / f"{spec.name}.json"
    status = "present" if trace.exists() else "absent"
    print(f"# golden trace: {trace} ({status})")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    specs = _select_specs(args)
    if not specs:
        print("no scenarios selected", file=sys.stderr)
        return 2
    axes = {}
    if args.methods:
        axes["methods"] = args.methods
    if args.seeds:
        axes["seeds"] = args.seeds
    if args.scales:
        axes["scales"] = args.scales
    if args.workers:
        axes["workers"] = args.workers
    if args.autoscalers:
        axes["autoscalers"] = args.autoscalers
    if args.server_autoscalers:
        axes["server_autoscalers"] = args.server_autoscalers
    if args.server_replicas:
        axes["server_replicas"] = args.server_replicas
    if args.serving:
        axes["serving"] = args.serving
    if axes:
        specs = expand_registry(specs, **axes)
        print(f"expanded to {len(specs)} derived scenario(s)", file=sys.stderr)
    runner = _make_runner(args)
    if profiling_requested(getattr(args, "profile", False)):
        # Profiling is in-process: a multi-process sweep's simulation time
        # hides in pool-wait frames, so say so up front.
        warn_multiprocess_profile(runner.jobs)
        report = run_profiled(lambda: runner.run(specs))
    else:
        report = runner.run(specs)
    _print_report(report, args.json)
    exit_code = 1 if report.errors else 0
    if args.trace:
        out_dir = (Path(args.trace_dir) if args.trace_dir
                   else default_trace_output_dir())
        trace_code = _emit_traces(specs, out_dir, jobs=args.jobs)
        exit_code = exit_code or trace_code
    return exit_code


def _cmd_report(args: argparse.Namespace) -> int:
    from ..experiments.reporting import format_table

    if args.cache_dir:
        store = ResultStore(Path(args.cache_dir) / STORE_FILENAME)
    else:
        store = ResultStore()
    entries = []
    name_counts: dict = {}
    for key in sorted(store.keys()):
        record = store.get_record(key)
        if record is None:
            continue
        spec = store.get_spec(key)
        fingerprint = record.get("fingerprint")
        if spec is None or fingerprint is None:
            continue
        if not has_tags(spec, args.tags, args.exclude_tags):
            continue
        entries.append((key, spec, fingerprint, record.get("engine") or {}))
        name_counts[spec.name] = name_counts.get(spec.name, 0) + 1
    if not entries:
        print(f"no cached results in {store.path}", file=sys.stderr)
        return 2
    # The store may hold several results under one scenario name (the spec
    # was edited between sweeps: same name, different content key).  Rows
    # and JSON keys are disambiguated with a key prefix so no result is
    # silently shadowed by a stale sibling.
    rows = []
    fingerprints = {}
    traceable = []
    for key, spec, fingerprint, engine in entries:
        label = spec.name if name_counts[spec.name] == 1 else \
            f"{spec.name}#{key[:8]}"
        row = summary_row(spec, fingerprint)
        row[0] = label
        # The engine sidecar splits logical events (what an uncoalesced run
        # would process) into physical heap pops + coalesced commits; records
        # written before the sidecar existed show "-".
        logical = engine.get("engine_events_processed")
        physical = engine.get("engine_events_physical")
        row += [int(logical) if logical is not None else "-",
                int(logical) - int(physical)
                if logical is not None and physical is not None else "-"]
        rows.append((label, row))
        fingerprints[label] = fingerprint
        traceable.append((label, spec))
    rows.sort(key=lambda item: item[0])
    traceable.sort(key=lambda item: item[0])
    if args.json:
        print(json.dumps(fingerprints, indent=2, sort_keys=True))
        print(f"{len(rows)} cached result(s) in {store.path}", file=sys.stderr)
        return 0
    headers = ["scenario", "method", "JCT (s)", "samples", "restarts",
               "failures", "events", "coalesced"]
    print(format_table(headers, [row for _, row in rows]))
    print(f"{len(rows)} cached result(s) in {store.path} (0 simulations run)")
    if getattr(args, "trace", False):
        out_dir = (Path(args.trace_dir) if args.trace_dir
                   else default_trace_output_dir())
        return _emit_traces([spec for _, spec in traceable], out_dir,
                            jobs=getattr(args, "jobs", None))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    specs = _select_specs(args)
    if not specs:
        print("no scenarios selected", file=sys.stderr)
        return 2
    out_dir = (Path(args.trace_dir) if args.trace_dir
               else default_trace_output_dir())

    def emit() -> int:
        return _emit_traces(specs, out_dir, fmt=args.format,
                            validate=args.validate, jobs=args.jobs)

    if profiling_requested(args.profile):
        warn_multiprocess_profile(min(resolve_jobs(args.jobs), len(specs)))
        return run_profiled(emit)
    return emit()


def _cmd_golden_update(args: argparse.Namespace) -> int:
    trace_dir = Path(args.trace_dir) if args.trace_dir else default_trace_dir()
    specs = _select_specs(args)
    if not specs:
        # A typo'd tag must not "verify" zero traces and exit green.
        print("no scenarios selected", file=sys.stderr)
        return 2
    # Golden traces pin *current* behaviour, so this command must never be
    # served from the result store: a spec-keyed cache entry predating an
    # intended behaviour change would be written back (or --check-verified)
    # as if it were freshly simulated.
    args.no_cache, args.cache_dir = True, None
    runner = _make_runner(args)
    report = runner.run(specs)
    if report.errors:
        _print_report(report, as_json=False)
        return 1
    drifted: List[str] = []
    missing: List[str] = []
    trace_dir.mkdir(parents=True, exist_ok=True)
    for outcome in report.outcomes:
        path = trace_dir / f"{outcome.name}.json"
        text = outcome.golden_trace()
        if args.check:
            if not path.exists():
                missing.append(outcome.name)
            elif path.read_text() != text:
                drifted.append(outcome.name)
        else:
            path.write_text(text)
    print(report.stats_line())
    if args.check:
        if missing or drifted:
            for name in missing:
                print(f"MISSING {trace_dir / (name + '.json')}", file=sys.stderr)
            for name in drifted:
                print(f"DRIFTED {trace_dir / (name + '.json')}", file=sys.stderr)
            return 1
        print(f"{len(report.outcomes)} golden trace(s) verified byte-identical")
        return 0
    print(f"{len(report.outcomes)} golden trace(s) written to {trace_dir}")
    return 0


# ---------------------------------------------------------------------------
# Parser / entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """The full ``python -m repro`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Scenario sweep orchestrator: parallel execution with a "
                    "content-addressed result store.")
    commands = parser.add_subparsers(dest="command", required=True)

    list_parser = commands.add_parser(
        "list", help="list registered scenarios")
    _add_selection_args(list_parser, with_names=False)
    list_parser.add_argument("--json", action="store_true",
                             help="emit full spec dicts as JSON")
    list_parser.set_defaults(func=_cmd_list)

    show_parser = commands.add_parser(
        "show", help="print one scenario's spec and derived facts")
    show_parser.add_argument("name", metavar="SCENARIO")
    show_parser.set_defaults(func=_cmd_show)

    sweep_parser = commands.add_parser(
        "sweep", help="run a (possibly grid-expanded) scenario sweep")
    _add_selection_args(sweep_parser)
    _add_runner_args(sweep_parser)
    sweep_parser.add_argument("--methods", nargs="+", metavar="METHOD",
                              help="grid axis: training methods")
    sweep_parser.add_argument("--seeds", nargs="+", type=int, metavar="SEED",
                              help="grid axis: seeds")
    sweep_parser.add_argument("--scales", nargs="+", metavar="SCALE",
                              help="grid axis: named workload scales")
    sweep_parser.add_argument("--workers", nargs="+", type=int, metavar="N",
                              help="grid axis: cluster worker counts")
    sweep_parser.add_argument("--autoscalers", nargs="+", metavar="POLICY",
                              help="grid axis: elastic autoscaler policies "
                                   "(requires DDS-based base scenarios)")
    sweep_parser.add_argument("--server-autoscalers", nargs="+", metavar="POLICY",
                              help="grid axis: server-tier autoscaler policies "
                                   "(requires DDS-based base scenarios)")
    sweep_parser.add_argument("--server-replicas", nargs="+", type=int,
                              metavar="N",
                              help="grid axis: warm standbys per parameter "
                                   "shard (0 = single-owner; nonzero requires "
                                   "DDS-based base scenarios)")
    sweep_parser.add_argument("--serving", nargs="+", metavar="PRESET",
                              help="grid axis: serving-traffic presets "
                                   "(off/steady/bursty/flash) driven against "
                                   "the PS tier while each scenario trains")
    sweep_parser.add_argument("--profile", action="store_true",
                              help="run the sweep under cProfile and print the "
                                   "top-20 cumulative entries to stderr (also "
                                   "enabled by REPRO_PROFILE=1)")
    sweep_parser.add_argument("--json", action="store_true",
                              help="emit fingerprints as JSON instead of a table")
    sweep_parser.add_argument("--trace", action="store_true",
                              help="also write an observability trace per "
                                   "scenario (regenerated deterministically, "
                                   "cached results included)")
    sweep_parser.add_argument("--trace-dir", metavar="DIR", default=None,
                              help="trace output directory (default: "
                                   ".repro-traces/ at the repo root)")
    sweep_parser.set_defaults(func=_cmd_sweep)

    report_parser = commands.add_parser(
        "report",
        help="summarise cached sweep results without re-simulating")
    _add_selection_args(report_parser, with_names=False)
    report_parser.add_argument("--cache-dir", metavar="DIR", default=None,
                               help="result-store directory (default: "
                                    "$REPRO_CACHE_DIR or .repro-cache/)")
    report_parser.add_argument("--json", action="store_true",
                               help="emit fingerprints as JSON instead of a table")
    report_parser.add_argument("--trace", action="store_true",
                               help="also regenerate observability traces for "
                                    "every reported result (deterministic "
                                    "re-simulation from the stored specs)")
    report_parser.add_argument("--trace-dir", metavar="DIR", default=None,
                               help="trace output directory (default: "
                                    ".repro-traces/ at the repo root)")
    report_parser.add_argument("-j", "--jobs", type=int, default=None,
                               help="parallel workers for --trace "
                                    "(default: $REPRO_JOBS or 1)")
    report_parser.set_defaults(func=_cmd_report)

    trace_parser = commands.add_parser(
        "trace",
        help="write simulation-time traces (JSONL + Chrome trace-event JSON "
             "viewable in Perfetto) for the selected scenarios")
    _add_selection_args(trace_parser)
    _add_runner_args(trace_parser, cache=False)
    trace_parser.add_argument("--format", choices=("jsonl", "chrome", "both"),
                              default="both",
                              help="which trace form(s) to write (default: both)")
    trace_parser.add_argument("--trace-dir", metavar="DIR", default=None,
                              help="output directory (default: .repro-traces/ "
                                   "at the repo root)")
    trace_parser.add_argument("--validate", action="store_true",
                              help="validate the Chrome trace-event JSON and "
                                   "require a non-empty decision log for "
                                   "autoscaled scenarios")
    trace_parser.add_argument("--profile", action="store_true",
                              help="run under cProfile (also REPRO_PROFILE=1)")
    trace_parser.set_defaults(func=_cmd_trace)

    golden_parser = commands.add_parser(
        "golden-update",
        help="regenerate the golden traces through the parallel sweep path "
             "(always simulates: the result store is bypassed)")
    _add_selection_args(golden_parser)
    _add_runner_args(golden_parser, cache=False)
    golden_parser.add_argument("--check", action="store_true",
                               help="verify traces instead of rewriting them")
    golden_parser.add_argument("--trace-dir", metavar="DIR", default=None,
                               help="write traces here instead of tests/golden/traces/")
    golden_parser.set_defaults(func=_cmd_golden_update)

    lint_parser = commands.add_parser(
        "lint",
        help="run the determinism & sim-safety linter (AST rules DET/SIM, "
             "cross-artifact CON checks) against the committed baseline")
    from ..analysis.cli import configure_lint_parser

    configure_lint_parser(lint_parser)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (KeyError, ValueError) as exc:
        # Bad user input (unknown scenario name, invalid grid axis, ...):
        # a one-line message, not a traceback.
        message = exc.args[0] if exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return 2
