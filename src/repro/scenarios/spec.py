"""Declarative, serializable scenario specifications.

A :class:`ScenarioSpec` is the single declarative description of one operating
condition the paper's claims are evaluated under: cluster topology (size,
dedicated vs. non-dedicated, heterogeneous hardware, scheduler congestion),
straggler pattern (transient / persistent / server-side / mixed trace),
failure trace (evictions and machine faults injected mid-run), workload scale,
training method and seed.  Every spec class here and in the modules it
nests (elastic, serving, stragglers) serializes through the one spec codec,
:class:`~repro.codec.SpecCodec`: ``to_dict`` / ``from_dict`` (and JSON)
round-trip losslessly, so a scenario can be named, registered, diffed, and
pinned to a golden trace.

The module is pure data plus resolution logic: building and *running* the
simulation lives in :mod:`repro.scenarios.matrix`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace
from typing import Optional, Tuple

from ..baselines.registry import PS_METHODS
from ..codec import SpecCodec
from ..elastic.spec import NO_ELASTIC, ElasticSpec
from ..experiments.stragglers import NO_STRAGGLERS, StragglerScenario
from ..experiments.workloads import SCALES, ExperimentScale
from ..serving.spec import NO_SERVING, ServingSpec
from ..sim.failures import ErrorCode

__all__ = [
    "TopologySpec",
    "FailureEvent",
    "FailureTraceSpec",
    "ScenarioSpec",
]


@dataclass(frozen=True)
class TopologySpec(SpecCodec):
    """Cluster-shape knobs of a scenario.

    ``num_workers`` / ``num_servers`` of ``None`` keep the base scale's node
    counts.  ``slow_worker_fraction`` turns the leading fraction of workers
    into deterministic hardware stragglers (older machine series, P100 next to
    V100) slowed by ``slow_factor`` — composed on top of whatever contention
    the straggler pattern already injected.
    """

    num_workers: Optional[int] = None
    num_servers: Optional[int] = None
    dedicated: bool = True
    cluster_busy: bool = False
    slow_worker_fraction: float = 0.0
    slow_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.num_workers is not None and self.num_workers <= 0:
            raise ValueError("num_workers must be positive")
        if self.num_servers is not None and self.num_servers < 0:
            raise ValueError("num_servers must be non-negative")
        if not 0.0 <= self.slow_worker_fraction <= 1.0:
            raise ValueError("slow_worker_fraction must lie in [0, 1]")
        if self.slow_factor < 1.0:
            raise ValueError("slow_factor must be >= 1.0")
        if self.slow_worker_fraction > 0.0 and self.slow_factor == 1.0:
            raise ValueError("a heterogeneous topology needs slow_factor > 1.0")


@dataclass(frozen=True)
class FailureEvent(SpecCodec):
    """One scheduled node termination in a failure trace.

    ``code`` is the :class:`~repro.sim.failures.ErrorCode` *value* (a string,
    to keep the spec JSON-safe).  Only retryable codes are accepted: on a
    configuration or programming error paper §V-D stops the job instead of
    relaunching the node, and that stop is not modelled (the simulated
    scheduler relaunches whatever the code).
    """

    time_s: float
    node: str
    code: str = ErrorCode.JOB_EVICTION.value

    def __post_init__(self) -> None:
        if self.time_s < 0:
            raise ValueError("failure times must be non-negative (the run starts at t=0)")
        # Normalise: accept an ErrorCode member too, but store the JSON-safe
        # string value.  Raises ValueError for unknown codes.
        code = ErrorCode(self.code)
        if code in (ErrorCode.CONFIGURATION_ERROR, ErrorCode.PROGRAMMING_ERROR):
            raise ValueError(f"{code.value!r} is not retryable: it stops the job, "
                             "which a failure trace does not model")
        object.__setattr__(self, "code", code.value)

    @property
    def error_code(self) -> ErrorCode:
        """The typed error code."""
        return ErrorCode(self.code)


@dataclass(frozen=True)
class FailureTraceSpec(SpecCodec):
    """A deterministic schedule of node failures injected during the run."""

    events: Tuple[FailureEvent, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))

    def __bool__(self) -> bool:
        return bool(self.events)

    @staticmethod
    def storm(nodes: Tuple[str, ...], start_s: float, interval_s: float,
              code: ErrorCode = ErrorCode.JOB_EVICTION) -> "FailureTraceSpec":
        """An eviction storm: the given nodes fail one after another.

        Models the cluster scheduler reclaiming capacity from a low-priority
        job — every ``interval_s`` seconds starting at ``start_s`` another node
        of the job is terminated with ``code``.
        """
        if interval_s < 0:
            raise ValueError("interval_s must be non-negative")
        return FailureTraceSpec(events=tuple(
            FailureEvent(time_s=start_s + index * interval_s, node=node, code=code.value)
            for index, node in enumerate(nodes)
        ))


def _encode_scale(scale: ExperimentScale) -> Tuple[Tuple[str, object], ...]:
    """Every field of an :class:`ExperimentScale` as sorted (name, value) pairs."""
    return tuple(sorted(
        (spec_field.name, getattr(scale, spec_field.name))
        for spec_field in fields(ExperimentScale)
    ))


@dataclass(frozen=True)
class ScenarioSpec(SpecCodec):
    """One fully declarative operating condition for a PS training run.

    Attributes
    ----------
    name:
        Unique scenario name (registry key and golden-trace filename).
    method:
        Training method from :data:`repro.baselines.registry.PS_METHODS`.
    scale:
        Base workload scale: a name from
        :data:`repro.experiments.workloads.SCALES`, ``"auto"`` (derive a
        coherent configuration from ``topology.num_workers`` via
        :meth:`ExperimentScale.for_workers`), or ``"custom"`` (rebuild the
        scale entirely from ``scale_overrides``).
    seed:
        Seed for every random element (cluster node noise, transient-worker
        choice, failure-injector sampling).
    topology:
        Cluster-shape knobs (see :class:`TopologySpec`).
    stragglers:
        Straggler injection pattern
        (:class:`~repro.experiments.stragglers.StragglerScenario`).
    failures:
        Deterministic failure trace injected while the job runs.
    elastic:
        Elastic-scaling behaviour (:class:`~repro.elastic.spec.ElasticSpec`):
        a deterministic scale-out/scale-in schedule and/or an autoscaler
        policy.  Requires a DDS-based method — a static partition fixes the
        worker set at construction time.
    serving:
        Open-loop serving traffic driven against the PS tier while the job
        trains (:class:`~repro.serving.spec.ServingSpec`).  The default
        :data:`~repro.serving.spec.NO_SERVING` attaches nothing.
    iterations / epochs:
        Workload-length overrides on top of the base scale.
    scale_overrides:
        ``(field, value)`` pairs applied to the resolved scale via
        :func:`dataclasses.replace` — with ``scale="custom"`` they must cover
        every field and reconstruct the scale from scratch.
    """

    name: str
    method: str = "antdt-nd"
    scale: str = "small"
    seed: int = 0
    description: str = ""
    tags: Tuple[str, ...] = ()
    topology: TopologySpec = field(default_factory=TopologySpec)
    stragglers: StragglerScenario = NO_STRAGGLERS
    failures: FailureTraceSpec = field(default_factory=FailureTraceSpec)
    elastic: ElasticSpec = NO_ELASTIC
    serving: ServingSpec = NO_SERVING
    iterations: Optional[int] = None
    epochs: Optional[int] = None
    scale_overrides: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a scenario needs a non-empty name")
        if self.method not in PS_METHODS:
            raise ValueError(
                f"unknown method {self.method!r}; available: {sorted(PS_METHODS)}")
        if self.scale not in SCALES and self.scale not in ("auto", "custom"):
            raise ValueError(
                f"unknown scale {self.scale!r}; use one of {sorted(SCALES)}, "
                "'auto' (derive from topology.num_workers) or 'custom' "
                "(rebuild from scale_overrides)")
        if self.scale == "auto" and self.topology.num_workers is None:
            raise ValueError("scale='auto' requires topology.num_workers")
        if self.elastic and PS_METHODS[self.method].allocator != "dds":
            raise ValueError(
                f"elastic scaling requires a DDS-based method; {self.method!r} "
                "uses a static partition whose worker set is fixed at "
                "construction time")
        if self.iterations is not None and self.iterations <= 0:
            raise ValueError("iterations override must be positive")
        if self.epochs is not None and self.epochs <= 0:
            raise ValueError("epochs override must be positive")
        object.__setattr__(self, "tags", tuple(self.tags))
        object.__setattr__(self, "scale_overrides",
                           tuple((str(k), v) for k, v in self.scale_overrides))
        valid_fields = {spec_field.name for spec_field in fields(ExperimentScale)}
        for field_name, _ in self.scale_overrides:
            if field_name not in valid_fields:
                raise ValueError(f"unknown ExperimentScale field {field_name!r}")
        if self.scale == "custom":
            missing = valid_fields - {k for k, _ in self.scale_overrides}
            # Fields with defaults may be omitted; ExperimentScale's required
            # fields may not.  Resolution raises naturally, but fail early
            # with a clearer message for the common mistake.
            required = {"name", "num_workers", "num_servers", "per_worker_batch",
                        "iterations"}
            if required & missing:
                raise ValueError(
                    f"scale='custom' is missing required fields: {sorted(required & missing)}")

    # -- construction helpers -----------------------------------------------------
    @classmethod
    def for_scale(cls, scale: ExperimentScale, **kwargs: object) -> "ScenarioSpec":
        """Build a spec pinned to an explicit :class:`ExperimentScale` object.

        If the object is one of the registered named scales it is referenced
        by name; otherwise every field is encoded into ``scale_overrides``
        (``scale="custom"``) so the spec stays lossless and serializable.
        """
        registered = SCALES.get(scale.name)
        if registered is not None and registered == scale:
            return cls(scale=scale.name, **kwargs)
        return cls(scale="custom", scale_overrides=_encode_scale(scale), **kwargs)

    # -- resolution ---------------------------------------------------------------
    def _apply_overrides(self, base: ExperimentScale) -> ExperimentScale:
        """Apply ``scale_overrides`` on top of a resolved base scale."""
        if not self.scale_overrides:
            return base
        coerced = {}
        for key, value in self.scale_overrides:
            current = getattr(base, key)
            coerced[key] = type(current)(value)
        return replace(base, **coerced)

    def resolve_scale(self) -> ExperimentScale:
        """The fully resolved workload scale this scenario runs at."""
        topology = self.topology
        if self.scale == "auto":
            base = ExperimentScale.for_workers(
                topology.num_workers,
                num_servers=topology.num_servers,
                iterations=self.iterations,
                name=f"scenario-{self.name}",
            )
            base = self._apply_overrides(base)
        else:
            if self.scale == "custom":
                # The overrides *are* the scale here; nothing further to apply.
                base = ExperimentScale(**dict(self.scale_overrides))
            else:
                base = self._apply_overrides(SCALES[self.scale])
            if topology.num_workers is not None:
                base = base.with_workers(topology.num_workers, topology.num_servers)
            elif topology.num_servers is not None:
                base = replace(base, num_servers=topology.num_servers)
        if self.iterations is not None and base.iterations != self.iterations:
            base = replace(base, iterations=self.iterations)
        if self.epochs is not None and base.epochs != self.epochs:
            base = replace(base, epochs=self.epochs)
        return base

    # -- serialization -------------------------------------------------------------
    def to_json(self, indent: Optional[int] = 2) -> str:
        """Canonical JSON form of the spec."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))
