"""Straggler scenarios used by the evaluation experiments.

The paper injects synthetic stragglers following FlexRR because naturally
occurring stragglers cannot be controlled (§VII-A.4):

* **Worker-side scenario** — transient stragglers hit roughly 30% of the
  workers (sleep 1.5 s × intensity during periodic bursts) and one worker is a
  severe persistent straggler (constant delay), which is the node that calls
  for KILL_RESTART in Fig. 13.
* **Server-side scenario** — a single server gets a constant persistent delay
  (one slow server throttles the whole job).
* **Trace scenario** — the mixed pattern used to regenerate the motivating BPT
  traces of Fig. 1 (a deterministic slow node, a transient node, a persistent
  node, background noise everywhere), expressed as ``side="trace"``.

:class:`StragglerScenario` is a *serializable* declarative description — it
round-trips through the one spec codec (:class:`~repro.codec.SpecCodec`) —
so the scenario subsystem (:mod:`repro.scenarios`) can embed it in
golden-traced scenario specs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..codec import SpecCodec
from ..sim.cluster import Cluster
from ..sim.contention import (
    CompositeContention,
    ConstantContention,
    DeterministicSlowdown,
    PeriodicContention,
    RandomContention,
)
from .workloads import ExperimentScale

__all__ = ["StragglerScenario", "NO_STRAGGLERS", "worker_scenario", "server_scenario",
           "trace_scenario", "apply_scenario", "apply_trace_pattern"]


@dataclass(frozen=True)
class StragglerScenario(SpecCodec):
    """Declarative description of which stragglers to inject.

    ``side`` selects the paper's injection pattern: ``"worker"`` and
    ``"server"`` are the §VII-A.4 scenarios, ``"trace"`` is the mixed Fig. 1
    pattern (transient + persistent + deterministic workers plus a slow server,
    with background noise everywhere), and ``"none"`` injects nothing.  A
    ``transient_fraction`` of exactly 0 turns the worker scenario into a
    persistent-only pattern (a single severe straggler and no transient
    burst workers).
    """

    name: str
    side: str  # "none", "worker", "server", or "trace"
    intensity: float = 0.8
    sleep_duration_s: float = 1.5
    persistent_delay_s: float = 4.0
    transient_fraction: float = 0.3
    include_persistent_worker: bool = True

    def __post_init__(self) -> None:
        if self.side not in ("none", "worker", "server", "trace"):
            raise ValueError("side must be 'none', 'worker', 'server' or 'trace'")
        if not 0.0 <= self.intensity <= 1.0:
            raise ValueError("intensity must lie in [0, 1]")
        if not 0.0 <= self.transient_fraction <= 1.0:
            raise ValueError("transient_fraction must lie in [0, 1]")


NO_STRAGGLERS = StragglerScenario(name="none", side="none", intensity=0.0)


def worker_scenario(intensity: float = 0.8, include_persistent: bool = True) -> StragglerScenario:
    """The paper's worker-straggler scenario at a given intensity."""
    return StragglerScenario(
        name=f"worker-stragglers(intensity={intensity})",
        side="worker",
        intensity=intensity,
        include_persistent_worker=include_persistent,
    )


def server_scenario(intensity: float = 0.8) -> StragglerScenario:
    """The paper's server-straggler scenario at a given intensity."""
    return StragglerScenario(
        name=f"server-straggler(intensity={intensity})",
        side="server",
        intensity=intensity,
    )


def trace_scenario(intensity: float = 0.8) -> StragglerScenario:
    """The mixed Fig. 1 trace pattern as a declarative scenario."""
    return StragglerScenario(name="fig1-trace", side="trace", intensity=intensity)


def apply_scenario(cluster: Cluster, scenario: StragglerScenario, scale: ExperimentScale,
                   seed: int = 0) -> List[str]:
    """Inject the scenario's contention models into the cluster.

    Returns the names of the nodes that were turned into stragglers (useful
    for assertions in tests and for labelling figures).
    """
    if scenario.side == "trace":
        apply_trace_pattern(cluster, scale, seed=seed)
        return [node.name for node in cluster.nodes]
    if scenario.side == "none" or scenario.intensity == 0.0:
        return []
    rng = np.random.default_rng(seed + 1009)
    affected: List[str] = []

    if scenario.side == "worker":
        workers = cluster.workers
        persistent_worker = workers[-1].name if scenario.include_persistent_worker else None
        if persistent_worker is not None:
            delay = max(scenario.persistent_delay_s * scenario.intensity,
                        scenario.sleep_duration_s * scenario.intensity)
            cluster.set_contention(persistent_worker, ConstantContention(delay_seconds=delay))
            affected.append(persistent_worker)
        candidates = [node.name for node in workers if node.name != persistent_worker]
        if scenario.transient_fraction == 0.0:
            # Persistent-only pattern: exactly the severe straggler, no bursts.
            chosen: List[str] = []
        else:
            num_transient = max(1, int(round(scenario.transient_fraction * len(candidates))))
            chosen = list(rng.choice(candidates, size=min(num_transient, len(candidates)),
                                     replace=False))
        for name in chosen:
            phase = float(rng.uniform(0.0, scale.straggler_period_s / 2))
            cluster.set_contention(
                name,
                PeriodicContention(
                    sleep_duration=scenario.sleep_duration_s,
                    intensity=scenario.intensity,
                    period=scale.straggler_period_s,
                    active_duration=scale.straggler_active_s,
                    phase=phase,
                ),
            )
            affected.append(str(name))
        return affected

    # Server-side: one persistent server straggler is enough to throttle the job.
    servers = cluster.servers
    if not servers:
        return []
    target = servers[-1].name
    delay = scenario.persistent_delay_s * scenario.intensity
    cluster.set_contention(target, ConstantContention(delay_seconds=delay))
    affected.append(target)
    return affected


def apply_trace_pattern(cluster: Cluster, scale: ExperimentScale, seed: int = 0) -> None:
    """Mixed pattern used to regenerate the Fig. 1 motivation traces.

    Worker roles mirror Fig. 1a: ``w1`` transient, ``w2`` persistent, ``w3``
    deterministic (older hardware); everyone gets light background noise.
    One server (``ps-3`` analogue) is a persistent server straggler.
    """
    rng = np.random.default_rng(seed)
    noise = RandomContention(probability=0.2, mean_delay=0.3)
    workers = cluster.workers
    for index, node in enumerate(workers):
        models = [RandomContention(probability=0.2, mean_delay=0.3)]
        if index == 1:
            models.append(PeriodicContention(sleep_duration=2.0, intensity=0.8,
                                             period=scale.straggler_period_s,
                                             active_duration=scale.straggler_active_s))
        elif index == 2:
            models.append(ConstantContention(delay_seconds=3.0))
        elif index == 3:
            models.append(DeterministicSlowdown(factor=2.5))
        cluster.set_contention(node.name, CompositeContention(models))
    servers = cluster.servers
    for index, node in enumerate(servers):
        models = [RandomContention(probability=0.2, mean_delay=0.2)]
        if index == len(servers) - 1:
            models.append(ConstantContention(delay_seconds=2.0))
        cluster.set_contention(node.name, CompositeContention(models))
