"""Build declarative scenarios into runnable jobs.

:func:`build_scenario_job` turns a :class:`~repro.scenarios.spec.ScenarioSpec`
into a ready-to-run :class:`~repro.psarch.job.PSTrainingJob` (cluster built,
stragglers applied, heterogeneity composed, failure trace armed).  Running
and fingerprinting it is :func:`repro.orchestrator.simulate_spec`; sweeping
many specs, in parallel and cached, is :class:`repro.orchestrator.SweepRunner`.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from ..baselines.registry import get_method
from ..core.config import coalesce_default
from ..core.sharding import StatefulDDS, StaticPartition
from ..core.shuffler import ShardShuffler
from ..elastic.autoscaler import Autoscaler, AutoscalerConfig
from ..elastic.policies import make_policy, make_server_policy
from ..elastic.spec import ElasticSpec, ScaleEvent
from ..experiments.stragglers import apply_scenario
from ..experiments.workloads import antdt_config, make_cpu_cluster, pending_model, ps_job_config
from ..psarch.backend import ComputeBackend
from ..psarch.job import PSTrainingJob
from ..sim.cluster import Cluster
from ..sim.contention import CompositeContention, DeterministicSlowdown
from ..sim.engine import Environment
from ..sim.failures import FailureInjector
from ..sim.metrics import MetricsRecorder
from ..sim.scheduler import ClusterScheduler
from .spec import FailureEvent, ScenarioSpec, TopologySpec

__all__ = ["build_scenario_job"]


def _apply_heterogeneity(cluster: Cluster, topology: TopologySpec) -> List[str]:
    """Slow down the leading fraction of workers (older hardware series)."""
    if topology.slow_worker_fraction <= 0.0:
        return []
    workers = cluster.workers
    count = max(1, int(round(topology.slow_worker_fraction * len(workers))))
    slowed: List[str] = []
    for node in workers[:count]:
        slowdown = DeterministicSlowdown(factor=topology.slow_factor)
        existing = node.contention
        cluster.set_contention(
            node.name,
            slowdown if existing.is_null else CompositeContention([existing, slowdown]),
        )
        slowed.append(node.name)
    return slowed


def _failure_trace_process(job: PSTrainingJob, events: Sequence[FailureEvent]):
    """Simulation process that replays a failure trace against the job.

    An injection the job refuses (the node is already mid-restart when its
    event fires) cannot take effect; it is logged as a ``failure_skipped``
    metrics event so the divergence from the declared trace is visible in the
    run record rather than silent.
    """
    env = job.env
    for event in sorted(events, key=lambda item: item.time_s):
        delay = event.time_s - env.now
        if delay > 0:
            yield env.timeout(delay)
        if job.completed:
            return
        granted = job.inject_failure(event.node, event.error_code)
        if not granted:
            job.metrics.log_event(env.now, "failure_skipped", event.node, event.code)


def _scale_event_process(job: PSTrainingJob, events: Sequence[ScaleEvent], tier: str,
                         scale_out: Callable[..., List[str]],
                         scale_in: Callable[..., List[str]],
                         default_targets: Callable[[int], List[str]]):
    """Simulation process replaying one tier's deterministic scale schedule.

    ``scale_out``/``scale_in``/``default_targets`` are the job's methods for
    the tier (workers or servers), and ``tier`` prefixes the record tags
    (``""`` gives ``scale_out``, ``"server_"`` gives ``server_scale_out``).
    A scale-in without explicit node names retires the tier's most recently
    joined active nodes (LIFO).  Requests the job refuses (membership at its
    bounds, named node unknown or already draining) are logged as
    ``scale_skipped`` metrics events so the divergence from the declared
    schedule is visible in the run record rather than silent.
    """
    env = job.env
    for event in sorted(events, key=lambda item: item.time_s):
        delay = event.time_s - env.now
        if delay > 0:
            yield env.timeout(delay)
        if job.completed:
            return
        if event.action == "out":
            granted = scale_out(event.count, reason="elastic-schedule")
        else:
            targets = list(event.nodes) if event.nodes else default_targets(event.count)
            granted = scale_in(targets, reason="elastic-schedule")
        if len(granted) < event.count:
            job.metrics.log_event(
                env.now, "scale_skipped", f"{tier}scale_{event.action}",
                f"granted {len(granted)}/{event.count}")


def _arm_elastic(job: PSTrainingJob, spec: ScenarioSpec) -> None:
    """Wire a spec's elastic behaviour onto a built job."""
    elastic: ElasticSpec = spec.elastic
    servers = elastic.servers
    job.configure_elastic(min_workers=elastic.min_workers,
                          max_workers=elastic.max_workers)
    job.configure_elastic_servers(min_servers=servers.min_servers,
                                  max_servers=servers.max_servers)
    if servers.replicas or servers.hot_shards:
        job.configure_server_replication(
            replicas=servers.replicas,
            hot_shards=servers.hot_shards,
            staleness_catchup_s=servers.staleness_catchup_s)
    if elastic.policy is not None or servers.policy is not None:
        policy = (make_policy(elastic.policy, **dict(elastic.policy_params))
                  if elastic.policy is not None else None)
        server_policy = (
            make_server_policy(servers.policy, **dict(servers.policy_params))
            if servers.policy is not None else None)
        antdt = job.antdt_config
        autoscaler = Autoscaler(
            env=job.env,
            monitor=job.monitor,
            policy=policy,
            server_policy=server_policy,
            executor=job,
            config=AutoscalerConfig(
                interval_s=elastic.interval_s,
                cooldown_s=elastic.cooldown_s,
                min_workers=elastic.min_workers,
                max_workers=elastic.max_workers,
                min_servers=servers.min_servers,
                max_servers=servers.max_servers,
                short_window_s=antdt.transient_window_s,
                long_window_s=antdt.persistent_window_s,
                slowness_ratio=antdt.slowness_ratio,
            ),
            recorder=job.recorder,
        )
        job.attach_autoscaler(autoscaler)
    if elastic.events:
        job.env.process(_scale_event_process(
            job, elastic.events, "", job.request_scale_out, job.request_scale_in,
            job.default_scale_in_targets))
    if servers.events:
        job.env.process(_scale_event_process(
            job, servers.events, "server_", job.request_server_scale_out,
            job.request_server_scale_in, job.default_server_scale_in_targets))


def build_scenario_job(spec: ScenarioSpec, *,
                       backend: Optional[ComputeBackend] = None,
                       evaluate_after_run: bool = False,
                       num_samples: Optional[int] = None,
                       track_coverage: bool = False,
                       failure_injector: Optional[FailureInjector] = None,
                       coalesce: Optional[bool] = None,
                       recorder: Optional[object] = None,
                       ) -> Tuple[PSTrainingJob, FailureInjector]:
    """Assemble the runnable job (with armed failure trace) for a scenario.

    Builds the environment, the CPU cluster with the spec's stragglers, the
    method's allocator (DDS or static partition), scheduler and solution,
    then arms the failure trace, heterogeneity, elastic behaviour and serving
    traffic on the job.  Returns the job plus the failure injector that will
    record every relaunch, so callers that need job internals (allocator
    state, agent overheads) can still fingerprint the run afterwards.
    Raises ``ValueError`` when the failure trace names a node that does not
    exist in the resolved topology — otherwise a typo'd spec would produce a
    plausible golden trace for a scenario that never ran.

    The keyword overrides cover the knobs that are *not* part of the
    declarative scenario: a real compute ``backend`` (with
    ``evaluate_after_run`` for its test AUC), a dataset-driven
    ``num_samples`` for the allocator, per-sample coverage counters
    (``track_coverage``: a numpy slice-add per confirmed range, so only the
    integrity runs turn it on), a caller-held ``failure_injector``, the
    engine's cohort ``coalesce`` mode (None = on unless
    ``REPRO_NO_COALESCE`` is set; both modes are byte-identical, so this is
    for debugging and for checking that equivalence) and a trace
    ``recorder`` (None = the zero-overhead NullRecorder; see repro.obs).
    """
    method = get_method(spec.method)
    scale = spec.resolve_scale()
    injector = failure_injector or FailureInjector()
    env = Environment(coalesce=coalesce_default() if coalesce is None else coalesce)
    cluster = make_cpu_cluster(scale, seed=spec.seed, dedicated=spec.topology.dedicated)
    apply_scenario(cluster, spec.stragglers, scale, seed=spec.seed)
    if num_samples is None:
        num_samples = scale.num_samples
    cfg = antdt_config(scale)
    if method.allocator == "dds":
        allocator = StatefulDDS(
            num_samples=num_samples,
            global_batch_size=scale.global_batch_size,
            batches_per_shard=cfg.batches_per_shard,
            epochs=scale.epochs,
            shuffler=ShardShuffler(seed=spec.seed),
            op_cost_s=cfg.dds_op_overhead_s,
            track_coverage=track_coverage,
            # Keep the shard granularity proportional to the global batch (as
            # in the paper, where a shard covers M global batches) but never
            # below two worker-batches, so the scaled-down runs preserve the
            # assignment agility of the paper-scale configuration (M=100 at
            # thousands of iterations).
            samples_per_shard=scale.per_worker_batch * max(2, scale.num_workers // 3),
        )
    else:
        allocator = StaticPartition(
            num_samples=num_samples,
            workers=[node.name for node in cluster.workers],
            epochs=scale.epochs,
        )
    scheduler = ClusterScheduler(
        env,
        cluster,
        pending_model=pending_model(scale, busy=spec.topology.cluster_busy),
        node_init_time=scale.node_init_time_s,
        failure_injector=injector,
    )
    job = PSTrainingJob(
        env=env,
        cluster=cluster,
        allocator=allocator,
        config=ps_job_config(scale, consistency=method.consistency,
                             backup_workers=method.backup_workers),
        antdt_config=cfg,
        backend=backend,
        solution=method.make_solution(),
        scheduler=scheduler,
        metrics=MetricsRecorder(),
        evaluate_after_run=evaluate_after_run,
        recorder=recorder,
    )
    unknown = sorted({event.node for event in spec.failures.events}
                     - {node.name for node in cluster.nodes})
    if unknown and not spec.elastic:
        # With elastic scaling the membership is dynamic — a trace may
        # legitimately target a node that joins later (a miss is logged as
        # ``failure_skipped`` at fire time instead).
        raise ValueError(
            f"scenario {spec.name!r}: failure trace names nodes not in the "
            f"resolved topology: {unknown}")
    _apply_heterogeneity(cluster, spec.topology)
    if spec.failures:
        env.process(_failure_trace_process(job, spec.failures.events))
    if spec.elastic:
        _arm_elastic(job, spec)
    if spec.serving:
        # Lazy import: the serving runtime pulls in the psarch layer, and
        # importing it at module top would cycle through the scenario
        # package's own __init__.
        from ..serving.driver import ServingTier
        job.attach_serving(ServingTier(job, spec.serving, seed=spec.seed,
                                       recorder=job.recorder))
    return job, injector
