"""The sweep runner — the one way to run many specs.

:class:`SweepRunner` executes an ordered collection of scenario specs:

* **Cache first** — each spec's content key is looked up in the
  :class:`~repro.orchestrator.store.ResultStore`; a hit returns the stored
  fingerprint without building a single simulation object.
* **Fan out** — misses go through :func:`~repro.orchestrator.worker.map_payloads`,
  which runs them on a process pool (worker count from the ``jobs``
  argument, the ``REPRO_JOBS`` environment variable, or 1), or in-process
  when ``jobs=1``; both paths produce the same record shape.
* **Deterministic ordering** — outcomes come back in *spec submission order*
  regardless of which worker finishes first, so a parallel sweep's report is
  byte-comparable with a serial one.
* **Failure isolation** — a scenario that crashes, or whose pool child
  dies, produces an error outcome; the rest of the sweep completes and the
  report says exactly what broke.

Every run feeds a :class:`repro.perf.Counter` (cache hits/misses, simulations
executed, errors, engine events) and the report derives the parallel speedup
(total simulation seconds / sweep wall seconds).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Union

from ..core.config import JOBS_ENV, jobs_env_override
from ..perf import Counter, Stopwatch
from ..scenarios.fingerprint import canonical_json
from ..scenarios.spec import ScenarioSpec
from .hashing import spec_key
from .store import ResultStore
from .worker import map_payloads, run_payload

__all__ = ["AUTO_STORE", "JOBS_ENV", "SweepError", "SweepOutcome",
           "SweepReport", "SweepRunner", "resolve_jobs", "summary_row"]


class _AutoStore:
    """Sentinel: 'use the default on-disk result store'."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "AUTO_STORE"


#: Pass as ``store=`` to use the default store; ``None`` disables caching.
AUTO_STORE = _AutoStore()


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """The effective worker count: explicit arg > ``REPRO_JOBS`` env > 1."""
    if jobs is None:
        override = jobs_env_override()
        jobs = override if override is not None else 1
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return jobs


def summary_row(spec: ScenarioSpec, fingerprint: Dict[str, object]) -> List[object]:
    """One table row for a fingerprinted spec: scenario, method, JCT,
    samples, restarts, failures.

    Reads the fingerprint with ``.get`` defaults: records in an older store
    can lack fields, and they show as zeros rather than raising.
    """
    return [
        spec.name,
        spec.method,
        f"{float(fingerprint.get('jct_s', 0.0)):.1f}",
        fingerprint.get("samples_confirmed", 0),
        sum(fingerprint.get("restarts", {}).values()),
        len(fingerprint.get("failures", [])),
    ]


@dataclass
class SweepOutcome:
    """What happened to one spec in a sweep: cache hit, fresh run, or error."""

    spec: ScenarioSpec
    key: str
    fingerprint: Optional[Dict[str, object]] = None
    error: Optional[str] = None
    traceback: Optional[str] = None
    cached: bool = False
    wall_s: float = 0.0
    #: A fresh run's engine counts (``engine_events_scheduled`` /
    #: ``_processed`` / ``_physical``); empty for cache hits and errors.
    engine: Dict[str, int] = field(default_factory=dict)

    @property
    def name(self) -> str:
        """The scenario's name."""
        return self.spec.name

    @property
    def ok(self) -> bool:
        """True when the sweep has a fingerprint for this spec."""
        return self.fingerprint is not None

    @property
    def source(self) -> str:
        """Where the outcome came from: ``cache`` / ``run`` / ``error``."""
        if self.error is not None:
            return "error"
        return "cache" if self.cached else "run"

    def golden_trace(self) -> str:
        """Canonical byte form of the fingerprint (golden-trace contents)."""
        if self.fingerprint is None:
            raise RuntimeError(
                f"scenario {self.name!r} produced no fingerprint: {self.error}")
        return canonical_json(self.fingerprint)

    def summary_row(self) -> List[object]:
        """One row for :meth:`SweepReport.summary_table`: the scenario's
        :func:`summary_row` plus the outcome's source column."""
        if self.fingerprint is None:
            return [self.name, self.spec.method, self.source, "-", "-", "-", "-"]
        row = summary_row(self.spec, self.fingerprint)
        return row[:2] + [self.source] + row[2:]


class SweepError(RuntimeError):
    """Raised when a sweep is asked to be strict and some scenarios failed."""

    def __init__(self, failures: Sequence[SweepOutcome]) -> None:
        self.failures = list(failures)
        lines = [f"  {outcome.name}: {outcome.error}" for outcome in self.failures]
        super().__init__(
            f"{len(self.failures)} scenario(s) failed in the sweep:\n"
            + "\n".join(lines))


@dataclass
class SweepReport:
    """Everything a finished sweep knows about itself."""

    outcomes: List[SweepOutcome]
    jobs: int
    wall_s: float
    counters: Counter = field(default_factory=Counter)

    # -- derived views ------------------------------------------------------
    @property
    def hits(self) -> int:
        """Cache hits served without simulation."""
        return int(self.counters["cache_hits"])

    @property
    def misses(self) -> int:
        """Specs that had to be simulated (or failed trying)."""
        return int(self.counters["cache_misses"])

    @property
    def simulated(self) -> int:
        """Simulations actually executed to completion."""
        return int(self.counters["simulations"])

    @property
    def errors(self) -> List[SweepOutcome]:
        """The outcomes that failed."""
        return [outcome for outcome in self.outcomes if outcome.error is not None]

    @property
    def simulation_wall_s(self) -> float:
        """Total wall seconds spent inside fresh simulations (across workers)."""
        return sum(outcome.wall_s for outcome in self.outcomes if not outcome.cached)

    @property
    def speedup(self) -> float:
        """Parallel speedup: simulation seconds squeezed per sweep wall second."""
        if self.wall_s <= 0:
            return 0.0
        return self.simulation_wall_s / self.wall_s

    def fingerprints(self) -> Dict[str, Dict[str, object]]:
        """Scenario-name -> fingerprint for every successful outcome."""
        return {outcome.name: dict(outcome.fingerprint)
                for outcome in self.outcomes if outcome.fingerprint is not None}

    def raise_on_error(self) -> "SweepReport":
        """Raise :class:`SweepError` if any scenario failed; else return self."""
        failures = self.errors
        if failures:
            raise SweepError(failures)
        return self

    def summary_table(self) -> str:
        """The sweep as a fixed-width table with a totals row."""
        from ..experiments.reporting import format_table

        headers = ["scenario", "method", "source", "JCT (s)", "samples",
                   "restarts", "failures"]
        rows = [outcome.summary_row() for outcome in self.outcomes]
        succeeded = [o.fingerprint for o in self.outcomes if o.fingerprint is not None]
        rows.append([
            f"TOTAL ({len(self.outcomes)} scenarios)",
            "-",
            f"{self.hits} cached",
            "-",
            sum(fp.get("samples_confirmed", 0) for fp in succeeded),
            sum(sum(fp.get("restarts", {}).values()) for fp in succeeded),
            sum(len(fp.get("failures", [])) for fp in succeeded),
        ])
        return format_table(headers, rows)

    def stats_line(self) -> str:
        """One human line: jobs, wall, cache traffic, speedup."""
        return (f"jobs={self.jobs} wall={self.wall_s:.2f}s "
                f"hits={self.hits} misses={self.misses} "
                f"simulated={self.simulated} errors={len(self.errors)} "
                f"speedup={self.speedup:.2f}x")


class SweepRunner:
    """Executes scenario sweeps: cache lookup, then parallel fan-out."""

    def __init__(self, jobs: Optional[int] = None,
                 store: Union[ResultStore, _AutoStore, None] = AUTO_STORE,
                 counters: Optional[Counter] = None) -> None:
        self.jobs = resolve_jobs(jobs)
        if isinstance(store, _AutoStore):
            store = ResultStore()
        self.store: Optional[ResultStore] = store
        self.counters = counters if counters is not None else Counter()

    # -- internals ----------------------------------------------------------
    def _absorb(self, outcome: SweepOutcome, payload: Dict[str, object],
                counters: Counter) -> SweepOutcome:
        """Fold one execution record into the outcome, counters, and store."""
        outcome.wall_s = float(payload.get("wall_s", 0.0))
        if payload.get("ok"):
            outcome.fingerprint = payload["fingerprint"]
            outcome.engine = {name: int(payload[name]) for name in (
                "engine_events_scheduled", "engine_events_processed",
                "engine_events_physical")}
            counters.add("simulations")
            counters.update(outcome.engine)
            if self.store is not None:
                # Attach the logical/physical split as a store sidecar so
                # `python -m repro report` can show per-scenario engine work
                # without re-simulating.
                self.store.put(outcome.spec, outcome.fingerprint,
                               engine=outcome.engine)
        else:
            outcome.error = str(payload.get("error", "unknown error"))
            outcome.traceback = payload.get("traceback")
            counters.add("sweep_errors")
        return outcome

    # -- public API ---------------------------------------------------------
    def run(self, specs: Iterable[ScenarioSpec]) -> SweepReport:
        """Sweep the specs; outcomes come back in the order specs went in."""
        ordered = list(specs)
        names = [spec.name for spec in ordered]
        if len(set(names)) != len(names):
            raise ValueError("scenario names in a sweep must be unique")
        watch = Stopwatch().start()
        # Each run gets its own counter so the report describes *this* sweep;
        # the runner's cumulative counters are merged at the end.
        counters = Counter()
        outcomes: List[SweepOutcome] = []
        pending: List[SweepOutcome] = []
        for spec in ordered:
            key = spec_key(spec)
            cached = self.store.get(key) if self.store is not None else None
            outcome = SweepOutcome(spec=spec, key=key)
            if cached is not None:
                outcome.fingerprint = cached
                outcome.cached = True
                counters.add("cache_hits")
            else:
                counters.add("cache_misses")
                pending.append(outcome)
            outcomes.append(outcome)
        payloads = map_payloads(run_payload, [outcome.spec for outcome in pending],
                                self.jobs)
        for outcome, payload in zip(pending, payloads):
            self._absorb(outcome, payload, counters)
        self.counters.update(counters.as_dict())
        return SweepReport(
            outcomes=outcomes,
            jobs=self.jobs,
            wall_s=watch.elapsed,
            counters=counters,
        )
