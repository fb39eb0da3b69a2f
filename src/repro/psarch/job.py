"""Orchestration of a simulated Parameter Server training job.

:class:`PSTrainingJob` wires the substrate (cluster, scheduler, metrics), the
data allocator (Stateful DDS or static partition), the compute backend, the
AntDT components (Monitor, AgentGroup, Controller + solution) and the worker
and server processes into a runnable simulation.  It also implements the
:class:`~repro.core.controller.ActionExecutor` protocol, so the Controller
can kill/relaunch its nodes and reconfigure backup workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

from ..core.actions import Action
from ..core.agent import AgentGroup
from ..core.config import AntDTConfig, ConsistencyModel
from ..core.controller import Controller
from ..core.monitor import Monitor
from ..core.sharding import DataAllocator, StatefulDDS
from ..core.solutions.base import Solution
from ..elastic.membership import (
    JOIN_REQUESTED,
    JOINED,
    LEFT,
    MembershipEvent,
    MembershipLog,
)
from ..elastic.resharding import MigrationCostModel, ReshardEvent, ServerShardMap
from ..obs.recorder import NULL_RECORDER
from ..sim.cluster import Cluster, Node, NodeStatus
from ..sim.engine import Environment
from ..sim.failures import ErrorCode
from ..sim.metrics import MetricsRecorder
from ..sim.scheduler import ClusterScheduler

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..elastic.autoscaler import Autoscaler
from .backend import ComputeBackend, SyntheticBackend
from .barrier import BSPBarrier
from .config import PSJobConfig
from .server import ParameterServer, PushRequest, ServerStateArrays
from .worker import PSWorker

__all__ = ["PSRunResult", "PSTrainingJob", "SERVING_WORKER_PREFIX"]

_RUNNING = NodeStatus.RUNNING

#: Pseudo-worker prefix carried by serving-tier requests.  Lives here (not
#: in :mod:`repro.serving`) so the requeue filter can honour it without the
#: training layer depending on the serving layer.
SERVING_WORKER_PREFIX = "serve:"


@dataclass
class PSRunResult:
    """Summary of one simulated Parameter Server training run."""

    job_completion_time_s: float
    completed: bool
    total_samples: int
    samples_confirmed: int
    consumed_per_worker: Dict[str, int]
    restarts_per_node: Dict[str, int]
    dropped_iterations: int
    framework_overhead_s: float
    action_log: List[Action] = field(default_factory=list)
    done_shards: Optional[int] = None
    total_shards: Optional[int] = None
    auc: Optional[float] = None
    metrics: Optional[MetricsRecorder] = None
    monitor: Optional[Monitor] = None
    # Elastic membership transitions (empty for fixed-fleet runs).
    membership_events: List[MembershipEvent] = field(default_factory=list)
    # Elastic *server* membership transitions and the parameter-shard
    # re-partitionings they caused (both empty for fixed-server-fleet runs).
    server_membership_events: List[MembershipEvent] = field(default_factory=list)
    reshard_events: List[ReshardEvent] = field(default_factory=list)
    # Final parameter-shard assignment digest (None for server-less jobs).
    shard_map_digest: Optional[str] = None
    # Warm-standby depth of the shard map (0 = single-owner, pre-replication
    # behaviour) and the hot-shard weighting summary (None when uniform).
    shard_replicas: int = 0
    shard_weights: Optional[Dict[str, object]] = None
    # Engine counters for the perf subsystem (events over the whole run).
    # ``engine_events_processed`` counts *logical* events — per-worker/request
    # semantics, comparable across coalescing-era and pre-coalescing BENCH
    # entries — while ``engine_events_physical`` counts actual heap pops.
    engine_events_scheduled: int = 0
    engine_events_processed: int = 0
    engine_events_physical: int = 0
    # Serving-tier SLO summary (None unless the scenario attached serving
    # traffic): per-tenant goodput, p50/p99 latency, shed counts by reason.
    serving: Optional[Dict[str, object]] = None

    @property
    def jct(self) -> float:
        """Alias for the job completion time in seconds."""
        return self.job_completion_time_s


class PSTrainingJob:
    """A complete Parameter Server training job on the simulated cluster."""

    def __init__(
        self,
        env: Environment,
        cluster: Cluster,
        allocator: DataAllocator,
        config: PSJobConfig,
        *,
        antdt_config: AntDTConfig,
        scheduler: ClusterScheduler,
        metrics: MetricsRecorder,
        backend: Optional[ComputeBackend] = None,
        solution: Optional[Solution] = None,
        evaluate_after_run: bool = False,
        recorder: Optional[object] = None,
    ) -> None:
        if not cluster.workers:
            raise ValueError("the cluster has no worker nodes")
        if config.consistency is ConsistencyModel.BSP and not cluster.servers:
            raise ValueError("BSP Parameter Server training requires server nodes")

        self.env = env
        self.cluster = cluster
        self.allocator = allocator
        self.config = config
        self.antdt_config = antdt_config
        self.backend = backend if backend is not None else SyntheticBackend()
        self.metrics = metrics
        self.scheduler = scheduler
        self.evaluate_after_run = evaluate_after_run
        # The trace recorder is passive: it observes state the job already
        # computes (membership transitions, reshard events, iteration BPTs)
        # and never schedules or mutates — attaching one cannot perturb the
        # run's fingerprint.  The null default makes tracing-off free.
        self.recorder = recorder if recorder is not None else NULL_RECORDER

        # The scheduler's pending time and busy flag are third-party
        # information: both control loops read them through the Monitor.
        self.monitor = Monitor(self.metrics)
        self.monitor.register_third_party("pending_time", self.scheduler.pending_time)
        self.monitor.register_third_party("cluster_busy", self.scheduler.is_busy)
        self.agent_group = AgentGroup(self.monitor, self.antdt_config)

        self.barrier: Optional[BSPBarrier] = None
        if config.consistency is ConsistencyModel.BSP:
            self.barrier = BSPBarrier(env, backup_workers=config.backup_workers)

        # Columnar per-server serving state (acknowledgement chain tails,
        # eager-commit eligibility): created before the servers so every
        # server allocates its slot here, and the job can commit one
        # worker's whole push fan-out vectorized (push_fanout).  Servers get
        # no Agent: the Monitor reads each server's own series.
        self.server_state = ServerStateArrays(cluster.num_servers)
        self._fanout_cache = None
        self.servers: List[ParameterServer] = [
            self._make_server(node) for node in cluster.servers]

        initial_batch = max(1, config.global_batch_size // max(1, cluster.num_workers))
        self.workers: List[PSWorker] = []
        for node in cluster.workers:
            agent = self.agent_group.create_agent(node.name)
            self.workers.append(
                PSWorker(
                    env=env,
                    node=node,
                    agent=agent,
                    allocator=allocator,
                    backend=self.backend,
                    servers=self.servers,
                    config=config,
                    scheduler=self.scheduler,
                    metrics=self.metrics,
                    job=self,
                    barrier=self.barrier,
                    initial_batch_size=initial_batch,
                )
            )

        self.controller: Optional[Controller] = None
        if solution is not None:
            self.controller = Controller(
                env=env,
                monitor=self.monitor,
                agent_group=self.agent_group,
                solution=solution,
                executor=self,
                config=self.antdt_config,
                consistency=config.consistency,
                global_batch_size=config.global_batch_size,
            )

        self.completed = False
        self.completion_time: Optional[float] = None
        self._completion_event = env.event()
        self._samples_confirmed = 0
        self._exited_workers: List[str] = []
        self._exited_worker_set: set = set()

        # Elastic membership: joining workers clone the first worker's spec
        # (fresh pods land on uncontended machines, so the template's
        # post-restart contention applies), names continue the worker-N
        # sequence without ever reusing a departed name, and every transition
        # is appended to the membership log (part of the run fingerprint).
        self.membership = MembershipLog()
        self.autoscaler: Optional["Autoscaler"] = None
        self.elastic_min_workers = 1
        self.elastic_max_workers: Optional[int] = None
        self._worker_template = cluster.workers[0].spec
        self._next_worker_index = cluster.num_workers
        self._pending_worker_count = 0
        # Workers whose scale-in drain was granted but has not yet finished:
        # they still count as RUNNING until the interrupt is processed, so
        # the min-workers floor must discount them explicitly or two
        # same-instant scale-in requests could breach it.
        self._draining_workers: set = set()

        # Elastic *server* membership: the serving tier can grow and shrink
        # at runtime too.  A rendezvous shard map partitions the model's
        # logical parameter shards over the current membership, re-partitions
        # minimally on every join/leave, and the migration cost model charges
        # the handoff; workers route each iteration's pushes per the current
        # (non-draining) target list.  Server transitions live in their own
        # membership log so fixed-server-fleet fingerprints stay untouched.
        self.server_membership = MembershipLog()
        self.elastic_min_servers = 1
        self.elastic_max_servers: Optional[int] = None
        self._server_template = cluster.servers[0].spec if cluster.servers else None
        self._next_server_index = cluster.num_servers
        self._pending_server_count = 0
        self._draining_servers: set = set()
        # Killed primaries whose warm standbys took over: out of the push
        # rotation until their relaunch completes (empty without replicas).
        self._recovering_servers: set = set()
        self._server_replicas = 0
        self._push_targets: Optional[List[ParameterServer]] = None
        self.shard_map = ServerShardMap(
            members=[node.name for node in cluster.servers])
        self.reshard_log: List[ReshardEvent] = []
        self._migration_model = MigrationCostModel(
            param_bytes=config.model.gradient_bytes,
            per_byte_cost_s=config.server_per_byte_cost_s)
        # Extra catch-up stall a promoted standby pays for its replication
        # staleness (0 = warm standbys are perfectly fresh, the PR-7 model).
        self._staleness_catchup_s = 0.0
        # Optional open-loop serving tier (attach_serving).
        self._serving = None

        # The active-worker count sits on the per-push-request hot path (a
        # contended server consults it for delay amortisation), so it is
        # cached and only recomputed when a worker node changes lifecycle
        # status or exits — scanning all workers per request made large
        # clusters quadratic in the worker count.
        self._active_worker_count: Optional[int] = None
        self._server_fraction: Optional[float] = None
        self._bsp = config.consistency is ConsistencyModel.BSP
        for worker in self.workers:
            worker.node.add_status_listener(self._on_worker_status_change)
        # Cached series handle for the per-confirmation progress curve.
        self._samples_done_series = self.metrics.series("samples_done")

    def _on_worker_status_change(self, _node) -> None:
        self._active_worker_count = None
        self._server_fraction = None
        self._notify_cohort_change()

    def _notify_cohort_change(self) -> None:
        """Worker membership moved: invalidate every committed server window.

        The active-worker count feeds the delay fraction each server bakes
        into its coalesced window, so a lifecycle change anywhere in the
        worker fleet makes every committed tail stale (see
        :meth:`ParameterServer.on_cohort_change`).
        """
        for server in self.servers:
            server.on_cohort_change()

    # -- internal hooks ------------------------------------------------------------
    def _server_delay_fraction(self) -> float:
        """Fraction of a contention sleep each push request pays on a server.

        BSP aggregates all worker pushes into one parameter update per
        iteration, so a per-iteration delay is amortised over the active
        workers.  ASP applies updates much more frequently (per push), but a
        backlogged server still coalesces a couple of pending pushes per
        update, so the per-push share of the delay is capped at one half.
        """
        fraction = self._server_fraction
        if fraction is None:
            active = max(1, self.active_worker_count())
            fraction = 1.0 / active if self._bsp else min(1.0, 2.0 / active)
            self._server_fraction = fraction
        return fraction

    def notify_progress(self, num_samples: int, time: float) -> None:
        """Called by workers when a sample range is confirmed."""
        self._samples_confirmed += num_samples
        self._samples_done_series.append(time, float(self._samples_confirmed))
        if self.allocator.exhausted and not self.completed:
            self.completed = True
            self.completion_time = time
            if not self._completion_event.triggered:
                self._completion_event.succeed(time)

    def worker_exited(self, worker: str) -> None:
        """Called by a worker process when it leaves the training loop."""
        if worker not in self._exited_worker_set:
            self._exited_workers.append(worker)
            self._exited_worker_set.add(worker)
            self._active_worker_count = None
            self._server_fraction = None
            self._notify_cohort_change()
        if not self.completed and len(self._exited_workers) == len(self.workers):
            # All workers left (e.g. the allocator ran dry through drops):
            # treat as completion so the run terminates.
            self.completed = True
            self.completion_time = self.env.now
            if not self._completion_event.triggered:
                self._completion_event.succeed(self.env.now)

    # -- ActionExecutor protocol ------------------------------------------------------
    @property
    def finished(self) -> bool:
        """True once the job completed (ActionExecutor protocol)."""
        return self.completed

    def active_worker_names(self) -> List[str]:
        """Workers that are currently running (not restarting, not exited)."""
        exited = self._exited_worker_set
        return [
            worker.name
            for worker in self.workers
            if worker.name not in exited and worker.node.status is _RUNNING
        ]

    def active_worker_count(self) -> int:
        """Number of active workers (cached; see ``_on_worker_status_change``)."""
        count = self._active_worker_count
        if count is None:
            count = self._active_worker_count = len(self.active_worker_names())
        return count

    def active_server_names(self) -> List[str]:
        """Servers that are currently serving (running and not draining)."""
        draining = self._draining_servers
        return [server.name for server in self.servers
                if server.node.is_running and server.name not in draining]

    def request_kill_restart(self, node_name: str, reason: str = "") -> bool:
        """Kill and relaunch a worker or server node."""
        for worker in self.workers:
            if worker.name == node_name:
                granted = worker.request_kill_restart()
                if granted:
                    self.metrics.log_event(self.env.now, "kill_restart", node_name, reason)
                    if self.recorder.enabled:
                        self._trace_event("failures", "kill-restart", node=node_name)
                return granted
        for server in self.servers:
            if server.name == node_name:
                granted = server.request_kill_restart()
                if granted:
                    self.metrics.log_event(self.env.now, "kill_restart", node_name, reason)
                    if self.recorder.enabled:
                        self._trace_event("failures", "kill-restart", node=node_name)
                return granted
        return False

    def _trace_event(self, track: str, name: str, **args: object) -> None:
        """Record one instantaneous trace event at the current sim time."""
        self.recorder.event(track, name, self.env.now, args or None)

    def inject_failure(self, node_name: str, code: ErrorCode) -> bool:
        """Terminate ``node_name`` with an external failure and relaunch it.

        This is the entry point scenario failure traces (evictions, machine
        faults) use: the node rides the normal failover path and the
        relaunch is recorded under ``code`` in the scheduler's failure
        history.
        """
        for collection in (self.workers, self.servers):
            for member in collection:
                if member.name == node_name:
                    granted = member.inject_failure(code)
                    if granted and self.recorder.enabled:
                        self._trace_event("failures", "injected-failure",
                                          node=node_name, code=code.value)
                    return granted
        return False

    # -- elastic membership ------------------------------------------------------------
    def configure_elastic(self, min_workers: int = 1,
                          max_workers: Optional[int] = None) -> None:
        """Set the hard membership bounds scale requests are clamped to."""
        if min_workers < 1:
            raise ValueError("min_workers must be at least 1")
        if max_workers is not None and max_workers < min_workers:
            raise ValueError("max_workers must be >= min_workers")
        self.elastic_min_workers = min_workers
        self.elastic_max_workers = max_workers

    def attach_autoscaler(self, autoscaler: "Autoscaler") -> None:
        """Attach an autoscaler; its control loop starts with :meth:`start`."""
        self.autoscaler = autoscaler

    def pending_worker_count(self) -> int:
        """Workers requested from the scheduler but not yet placed."""
        return self._pending_worker_count

    def remaining_samples(self) -> int:
        """Samples of the workload not yet confirmed by the servers."""
        return max(0, self.allocator.total_samples - self._samples_confirmed)

    def default_scale_in_targets(self, count: int) -> List[str]:
        """The ``count`` most recently joined active workers (LIFO order)."""
        if count <= 0:
            return []
        active = self.active_worker_names()
        return list(reversed(active[-count:]))

    def _next_worker_name(self) -> str:
        name = f"worker-{self._next_worker_index}"
        while self.cluster.is_known(name):
            self._next_worker_index += 1
            name = f"worker-{self._next_worker_index}"
        self._next_worker_index += 1
        return name

    def request_scale_out(self, count: int, reason: str = "scale out") -> List[str]:
        """Request ``count`` additional workers from the cluster scheduler.

        Each requested node enters the membership as PENDING and rides the
        scheduler's pending-time queue (:meth:`ClusterScheduler.provision`)
        before its worker process starts — on a busy cluster the capacity
        arrives late or, if the job finishes first, never.  Requests beyond
        ``elastic_max_workers`` (counting active plus pending members) are
        refused.  Returns the node names actually requested.
        """
        if not isinstance(self.allocator, StatefulDDS):
            # A static partition fixes the worker set at construction time;
            # elastic membership requires the DDS's dynamic work queue.
            return []
        granted: List[str] = []
        for _ in range(max(0, int(count))):
            committed = self.active_worker_count() + self._pending_worker_count
            if (self.elastic_max_workers is not None
                    and committed >= self.elastic_max_workers):
                break
            template = self._worker_template
            spec = replace(template, name=self._next_worker_name(),
                           contention=template.post_restart_contention)
            node = self.cluster.add_node(spec)
            self._pending_worker_count += 1
            self.membership.record(self.env.now, JOIN_REQUESTED, node.name)
            if self.recorder.enabled:
                self._trace_event("membership", "worker-join-requested",
                                  node=node.name, reason=reason)
            self.env.process(self._provision_worker(node))
            granted.append(node.name)
        return granted

    def _provision_worker(self, node: Node):
        """Simulation process: ride the scheduling queue, then join training."""
        yield from self.scheduler.provision(node)
        self._pending_worker_count -= 1
        if self.completed:
            # The job finished while the pod sat in the scheduling queue; the
            # capacity arrives to nothing (the busy-cluster gate in action).
            node.mark_finished()
            return
        agent = self.agent_group.create_agent(node.name)
        # A joining pod reads the *current* global state; historical
        # broadcasts (old batch assignments keyed by other workers) must not
        # replay against it.
        agent.reset_after_restart()
        worker = PSWorker(
            env=self.env,
            node=node,
            agent=agent,
            allocator=self.allocator,
            backend=self.backend,
            servers=self.servers,
            config=self.config,
            scheduler=self.scheduler,
            metrics=self.metrics,
            job=self,
            barrier=self.barrier,
            initial_batch_size=max(
                1, self.config.global_batch_size // max(1, self.cluster.num_workers)),
        )
        self.workers.append(worker)
        node.add_status_listener(self._on_worker_status_change)
        self._on_worker_status_change(node)
        self.membership.record(self.env.now, JOINED, node.name)
        if self.recorder.enabled:
            self._trace_event("membership", "worker-joined", node=node.name)
        worker.start()

    def request_scale_in(self, node_names: List[str],
                         reason: str = "scale in") -> List[str]:
        """Gracefully retire the named workers (elastic scale-in).

        A request is refused for unknown names, servers, workers already
        restarting or retiring, and whenever retiring would push the active
        membership below ``elastic_min_workers``.  Returns the names whose
        drain actually started.
        """
        retiring: List[str] = []
        for name in node_names:
            if (self.active_worker_count() - len(self._draining_workers)
                    <= self.elastic_min_workers):
                break
            worker = next((candidate for candidate in self.workers
                           if candidate.name == name), None)
            if worker is None:
                continue
            if worker.request_scale_in():
                self._draining_workers.add(name)
                if self.recorder.enabled:
                    self._trace_event("membership", "worker-drain-requested",
                                      node=name, reason=reason)
                retiring.append(name)
        return retiring

    def worker_departed(self, worker: PSWorker) -> None:
        """Finish a worker's graceful drain: drop it from the membership."""
        name = worker.name
        self._draining_workers.discard(name)
        self.cluster.remove_node(name)
        self.membership.record(self.env.now, LEFT, name)
        if self.recorder.enabled:
            self._trace_event("membership", "worker-left", node=name)
        self.worker_exited(name)

    # -- elastic server membership ---------------------------------------------------
    def _make_server(self, node: Node) -> ParameterServer:
        """Construct one server process wired to this job's elastic surface."""
        return ParameterServer(
            env=self.env,
            node=node,
            config=self.config,
            scheduler=self.scheduler,
            metrics=self.metrics,
            delay_fraction_provider=self._server_delay_fraction,
            requeue_filter=self._worker_requeue_ok,
            drain_handler=self.server_departed,
            outage_handler=self._server_outage,
            recovery_handler=self._server_recovered,
            state=self.server_state,
        )

    def _worker_requeue_ok(self, worker_name: str) -> bool:
        """Whether a server may requeue/re-route a push of this worker.

        False for draining and departed workers: their queued pushes were
        purged by the scale-in drain, and a server restart (or a sibling
        server's drain) must not resurrect them.  Serving pseudo-workers
        (``serve:<tenant>``) are not cluster nodes but their in-flight
        requests must survive server churn — they replay after a relaunch
        or are re-delivered to promoted standbys, never silently dropped.
        """
        if worker_name.startswith(SERVING_WORKER_PREFIX):
            return True
        return (worker_name not in self._draining_workers
                and worker_name in self.cluster)

    def push_targets(self) -> List[ParameterServer]:
        """The servers workers route their pushes to (cached).

        Draining servers are excluded the instant their retirement is
        granted; restarting servers stay listed (their queue drains to the
        relaunched pod) — *unless* warm standbys took over their shards, in
        which case they sit out the rotation until recovery (the whole point
        of the promotion: no worker waits on the down pod).  For a fixed
        non-replicated fleet this is simply every server.
        """
        targets = self._push_targets
        if targets is None:
            draining = self._draining_servers
            recovering = self._recovering_servers
            if recovering:
                targets = [server for server in self.servers
                           if server.name not in draining
                           and server.name not in recovering]
            else:
                targets = [server for server in self.servers
                           if server.name not in draining]
            self._push_targets = targets
        return targets

    def push_fanout(self, worker: str, nbytes: float,
                    targets: List[ParameterServer], latch) -> bool:
        """Commit one worker's whole push fan-out vectorized, if possible.

        The common steady state at scale — every target server parked on an
        empty queue with null contention — makes each per-server
        acknowledgement an affine function of that server's chain tail.  This
        commits all S requests of one iteration with a handful of numpy
        operations over :class:`ServerStateArrays` plus one tight Python loop
        for the bookkeeping each server owns (plan entry, series append),
        then arms the shared latch once with
        :meth:`CountdownEvent.count_down_many_at
        <repro.sim.engine.CountdownEvent.count_down_many_at>`.

        Returns False without side effects when any target is not eligible
        (busy, backlogged, draining-held, or non-null contention); the worker
        then falls back to per-server :meth:`ParameterServer.submit` calls,
        which reproduce the exact same acknowledgements scalar-wise.
        """
        state = self.server_state
        cache = self._fanout_cache
        if cache is None or cache[0] is not targets:
            # push_targets() rebuilds its list object on every membership
            # change, so list identity doubles as cache validation.
            idx = np.fromiter((server._slot for server in targets),
                              dtype=np.intp, count=len(targets))
            hot = [(server, *server._bpt_series.buffers()) for server in targets]
            cache = self._fanout_cache = (targets, idx, hot)
        _, idx, hot = cache
        if not state.eligible[idx].all():
            return False
        env = self.env
        now = env._now
        # Acknowledgement closed form, all servers at once.  Each numpy op
        # is elementwise over independent slots, so the arithmetic per slot
        # is the same sequence of scalar operations submit() performs.
        starts = np.maximum(state.chain_tail[idx], now)
        handlings = state.overhead[idx] + self.config.server_per_byte_cost_s * nbytes
        acks = starts + handlings
        state.chain_tail[idx] = acks
        acks_l = acks.tolist()
        request = PushRequest(worker=worker, nbytes=nbytes, done=latch)
        for (server, times, values), start, ack, handling \
                in zip(hot, starts.tolist(), acks_l, handlings.tolist()):
            plan = server._plan
            if plan is None:
                plan = server._open_plan(ack)
            plan.entries.append((request, start, ack, True, True, None))
            plan.coalesced_logged += 1
            times.append(ack)
            values.append(handling)
        latch.count_down_many_at(acks_l)
        env.coalesced_count += len(hot)
        return True

    def configure_elastic_servers(self, min_servers: int = 1,
                                  max_servers: Optional[int] = None) -> None:
        """Set the hard membership bounds of the parameter-server tier."""
        if min_servers < 1:
            raise ValueError("min_servers must be at least 1")
        if max_servers is not None and max_servers < min_servers:
            raise ValueError("max_servers must be >= min_servers")
        self.elastic_min_servers = min_servers
        self.elastic_max_servers = max_servers

    def configure_server_replication(self, replicas: int = 0,
                                     hot_shards=(),
                                     staleness_catchup_s: float = 0.0) -> None:
        """Enable warm-standby replica chains and/or hot-key shard weights.

        Rebuilds the shard map over the same membership with ``replicas``
        warm standbys per shard and the ``hot_shards`` ``(shard, weight)``
        pairs.  Must be called before the run starts (the rebuild does not
        charge migration costs — it models a job *configured* with
        replication, not a live re-replication).  ``replicas=0`` with no hot
        shards is exactly the pre-replication single-owner map.

        ``staleness_catchup_s`` adds a flat catch-up stall to every kill-path
        standby promotion: a warm standby lags the primary by its replication
        delay and must replay that tail before serving writes.  The default 0
        keeps the PR-7 perfectly-fresh-standby model (and its traces)
        byte-identical.
        """
        if replicas < 0:
            raise ValueError("replicas must be non-negative")
        if staleness_catchup_s < 0:
            raise ValueError("staleness_catchup_s must be non-negative")
        weights = {int(shard): float(weight) for shard, weight in hot_shards}
        self._server_replicas = int(replicas)
        self._staleness_catchup_s = float(staleness_catchup_s)
        self.shard_map = ServerShardMap(
            members=self.shard_map.members,
            num_shards=self.shard_map.num_shards,
            replicas=int(replicas),
            shard_weights=weights or None)

    def attach_serving(self, tier) -> None:
        """Attach an open-loop serving tier (started with the job).

        Must be called before :meth:`start`; the tier's arrival process
        launches after the servers so the first request finds a live fleet.
        """
        if self._serving is not None:
            raise ValueError("a serving tier is already attached")
        self._serving = tier

    def serving_slo_snapshot(self) -> Optional[Dict[str, float]]:
        """Windowed serving SLO view for the autoscaler (None without serving)."""
        if self._serving is None:
            return None
        return self._serving.slo_snapshot()

    def server_shard_weights(self) -> Dict[str, float]:
        """Per-server heat from the hot-shard weights (policy input).

        Empty under uniform weights — the rendezvous split is slightly
        uneven by construction, so exposing heat unconditionally would make
        the policies see non-1.0 factors on every unweighted run.
        """
        if not self.shard_map.has_weights:
            return {}
        return self.shard_map.member_heat()

    def pending_server_count(self) -> int:
        """Servers requested from the scheduler but not yet placed."""
        return self._pending_server_count

    def server_queue_depths(self) -> Dict[str, int]:
        """Queued push requests per active (non-draining) server.

        Reads :meth:`ParameterServer.pending_request_count`, which counts
        requests inside a committed coalesced window whose handling has not
        started yet as queued — the same depths per-request stepping shows.
        """
        return {server.name: server.pending_request_count()
                for server in self.push_targets() if server.node.is_running}

    def default_server_scale_in_targets(self, count: int) -> List[str]:
        """The ``count`` most recently joined active servers (LIFO order)."""
        if count <= 0:
            return []
        active = self.active_server_names()
        return list(reversed(active[-count:]))

    def _next_server_name(self) -> str:
        name = f"server-{self._next_server_index}"
        while self.cluster.is_known(name):
            self._next_server_index += 1
            name = f"server-{self._next_server_index}"
        self._next_server_index += 1
        return name

    def _record_reshard(self, kind: str, trigger: str,
                        moved: List[int], cost_s: float,
                        promoted: int = 0) -> None:
        event = ReshardEvent(
            time_s=self.env.now, kind=kind, trigger=trigger,
            moved_shards=len(moved), total_shards=self.shard_map.num_shards,
            cost_s=cost_s, promoted_shards=promoted)
        self.reshard_log.append(event)
        if self.recorder.enabled:
            self._trace_event("resharding", kind, trigger=trigger,
                              moved_shards=len(moved),
                              total_shards=self.shard_map.num_shards,
                              cost_s=cost_s, promoted_shards=promoted)

    def request_server_scale_out(self, count: int,
                                 reason: str = "server scale out") -> List[str]:
        """Request ``count`` additional parameter servers from the scheduler.

        Mirrors :meth:`request_scale_out`: each requested node enters the
        membership as PENDING and rides the scheduler's pending-time queue —
        on a busy cluster the serving capacity arrives late or never.
        Requests beyond ``elastic_max_servers`` (active plus pending) are
        refused.  Jobs without a server tier (pure AllReduce substrates)
        refuse outright.  Returns the node names actually requested.
        """
        if self._server_template is None:
            return []
        granted: List[str] = []
        for _ in range(max(0, int(count))):
            # Membership-based cap: restarting servers still count (they will
            # return), draining ones no longer do.
            committed = len(self.push_targets()) + self._pending_server_count
            if (self.elastic_max_servers is not None
                    and committed >= self.elastic_max_servers):
                break
            template = self._server_template
            spec = replace(template, name=self._next_server_name(),
                           contention=template.post_restart_contention)
            node = self.cluster.add_node(spec)
            self._pending_server_count += 1
            self.server_membership.record(self.env.now, JOIN_REQUESTED, node.name)
            if self.recorder.enabled:
                self._trace_event("membership", "server-join-requested",
                                  node=node.name, reason=reason)
            self.env.process(self._provision_server(node))
            granted.append(node.name)
        return granted

    def _provision_server(self, node: Node):
        """Simulation process: ride the scheduling queue, receive the shard
        slice, then start serving."""
        yield from self.scheduler.provision(node)
        self._pending_server_count -= 1
        if self.completed:
            # The job finished while the pod sat in the scheduling queue.
            node.mark_finished()
            return
        # The shard map re-partitions on the join; the newcomer must receive
        # its parameter shards from the incumbents before it can serve, so
        # the migration cost is paid on the joining path.  The map itself is
        # only mutated once the handoff completed: a join abandoned mid-
        # handoff (the job finished first) must leave no ghost owner behind,
        # or the coverage audit would flag shards owned by a server that
        # never joined.
        would_move = self.shard_map.preview_add(node.name)
        cost = self._migration_model.handoff_time(would_move,
                                                  self.shard_map.num_shards)
        if cost > 0:
            yield self.env.timeout(cost)
        if self.completed:
            node.mark_finished()
            return
        moved = self.shard_map.add_member(node.name)
        self._record_reshard("join", node.name, moved, cost)
        server = self._make_server(node)
        self.servers.append(server)
        self._push_targets = None
        self.server_membership.record(self.env.now, JOINED, node.name)
        if self.recorder.enabled:
            self._trace_event("membership", "server-joined", node=node.name)
        server.start()

    def request_server_scale_in(self, node_names: List[str],
                                reason: str = "server scale in") -> List[str]:
        """Gracefully retire the named servers (elastic scale-in).

        A request is refused for unknown names, workers, servers already
        restarting or retiring, and whenever retiring would push the active
        serving membership below ``elastic_min_servers`` (draining servers
        are already discounted from the active set, so two same-instant
        requests cannot breach the floor).  A granted retirement removes the
        server from the push-target list immediately: subsequent worker
        pushes route to the survivors per the re-partitioned shard map.
        Returns the names whose drain actually started.
        """
        retiring: List[str] = []
        for name in node_names:
            # Membership-based floor: a restarting server still counts (it
            # will return and keep serving), a draining one no longer does —
            # so two same-instant retirements cannot breach the floor.
            if len(self.push_targets()) <= self.elastic_min_servers:
                break
            server = next((candidate for candidate in self.servers
                           if candidate.name == name), None)
            if server is None:
                continue
            if server.request_scale_in():
                self._draining_servers.add(name)
                self._push_targets = None
                if self.recorder.enabled:
                    self._trace_event("membership", "server-drain-requested",
                                      node=name, reason=reason)
                retiring.append(name)
        return retiring

    def server_departed(self, server: ParameterServer,
                        leftover: List["PushRequest"]):
        """Simulation sub-process finishing a server's graceful drain.

        Runs inside the retiring server's process: the shard map
        re-partitions (survivors receive the leaver's parameter shards; the
        handoff time is charged before the departure completes), the
        leaver's unacknowledged push requests are re-routed round-robin to
        the surviving servers — except those of draining/departed workers,
        which stay purged — and the node leaves the membership for good.

        With warm standbys, shards whose chain has a standby are *promoted*
        rather than migrated — the standby already holds the bytes, so only
        the cold remainder pays the byte-moving handoff — and the leaver's
        queue is handed to the promoted shards' new owners instead of being
        sprayed over the whole surviving tier.
        """
        name = server.name
        smap = self.shard_map
        heirs: List[str] = []
        promoted: List[int] = []
        for shard in range(smap.num_shards):
            if smap.owner_of(shard) != name:
                continue
            standbys = smap.standbys_of(shard)
            if standbys:
                promoted.append(shard)
                if standbys[0] not in heirs:
                    heirs.append(standbys[0])
        moved = smap.remove_member(name)
        promoted_set = set(promoted)
        cold = [shard for shard in moved if shard not in promoted_set]
        cost = self._migration_model.promotion_time(len(promoted)) \
            + self._migration_model.handoff_time(
                len(cold), smap.num_shards,
                weight_fraction=smap.weight_fraction(cold)
                if smap.has_weights else None)
        self._record_reshard("leave", name, moved, cost,
                             promoted=len(promoted))
        if cost > 0:
            yield self.env.timeout(cost)
        self._draining_servers.discard(name)
        if server in self.servers:
            self.servers.remove(server)
        self._push_targets = None
        survivors = self.push_targets()
        heir_set = set(heirs)
        recipients = [candidate for candidate in survivors
                      if candidate.name in heir_set] or survivors
        rerouted = [request for request in leftover
                    if not request.done.triggered
                    and self._worker_requeue_ok(request.worker)]
        for index, request in enumerate(rerouted):
            recipients[index % len(recipients)].enqueue(request)
        self.cluster.remove_node(name)
        self.server_membership.record(self.env.now, LEFT, name)
        if self.recorder.enabled:
            self._trace_event("membership", "server-left",
                              node=name, rerouted=len(rerouted))

    def _server_outage(self, server: ParameterServer,
                       undelivered: List["PushRequest"]) -> bool:
        """Kill-path promotion hook: standbys take over a down primary's shards.

        Called synchronously from the killed server's interrupt handler,
        *before* its relaunch.  Returns False — leaving the pre-replication
        behaviour (requeue locally, workers wait out the recovery stall) —
        unless warm standbys are configured and at least one live standby
        owner exists to promote.  On True: the dead primary rotates to the
        tail of every chain it led, it leaves the push rotation until
        recovery, and its unacknowledged requests are re-delivered to the
        promoted owners after the (cheap) promotion cost.
        """
        if self._server_replicas <= 0 or self.completed:
            return False
        name = server.name
        smap = self.shard_map
        heirs: List[str] = []
        for shard in range(smap.num_shards):
            if smap.owner_of(shard) != name:
                continue
            standbys = smap.standbys_of(shard)
            if standbys and standbys[0] not in heirs:
                heirs.append(standbys[0])
        heir_set = set(heirs)
        recipients = [candidate for candidate in self.push_targets()
                      if candidate.name in heir_set
                      and candidate.node.is_running]
        if not recipients:
            return False
        promoted = smap.promote_standbys(name)
        if not promoted:
            return False
        self._recovering_servers.add(name)
        self._push_targets = None
        pending = list(undelivered)
        items = server.queue.items
        if items:
            pending.extend(items)
            items.clear()
        rerouted = [request for request in pending
                    if not request.done.triggered
                    and self._worker_requeue_ok(request.worker)]
        cost = (self._migration_model.promotion_time(len(promoted))
                + self._staleness_catchup_s)
        self._record_reshard("promotion", name, promoted, cost,
                             promoted=len(promoted))
        self.env.process(self._deliver_promoted(recipients, rerouted, cost))
        return True

    def _deliver_promoted(self, recipients: List[ParameterServer],
                          rerouted: List["PushRequest"], cost_s: float):
        """Simulation process: pay the promotion cost, then hand the dead
        primary's surviving requests to the promoted owners round-robin."""
        if cost_s > 0:
            yield self.env.timeout(cost_s)
        draining = self._draining_servers
        live = [candidate for candidate in recipients
                if candidate.node.is_running and candidate.name not in draining]
        if not live:
            live = [candidate for candidate in self.push_targets()
                    if candidate.node.is_running]
        if not live:
            return
        index = 0
        for request in rerouted:
            if request.done.triggered or not self._worker_requeue_ok(request.worker):
                continue
            live[index % len(live)].enqueue(request)
            index += 1

    def _server_recovered(self, server: ParameterServer) -> None:
        """Recovery hook: a promoted-away primary finished its relaunch.

        The pod rejoins the push rotation — as the standby at the tail of
        its former chains; serving ownership stays with the promoted
        survivors (no promotion back, no second handoff).  No-op for servers
        that were never promoted away (the pre-replication restart path).
        """
        name = server.name
        if name not in self._recovering_servers:
            return
        self._recovering_servers.discard(name)
        self._push_targets = None

    def set_backup_workers(self, num_backup: int) -> None:
        """Configure the number of slowest gradients dropped per iteration."""
        self.config.backup_workers = num_backup
        if self.barrier is not None:
            self.barrier.set_backup_workers(num_backup)

    def apply_lr_factors(self, factors: Dict[str, float]) -> None:
        """Apply ADJUST_LR scaling factors through the compute backend."""
        for worker, factor in factors.items():
            self.backend.scale_learning_rate(worker, factor)

    def restart_counts(self) -> Dict[str, int]:
        """Relaunches performed so far per node (departed nodes included)."""
        counts = {node.name: node.restart_count for node in self.cluster.nodes}
        for node in self.cluster.departed:
            counts[node.name] = node.restart_count
        return counts

    def last_restart_times(self) -> Dict[str, float]:
        """Simulation time of the latest relaunch per node."""
        latest: Dict[str, float] = {}
        for start, name, duration in self.scheduler.restart_log:
            latest[name] = max(latest.get(name, 0.0), start + duration)
        return latest

    # -- execution ------------------------------------------------------------------------
    def start(self) -> None:
        """Launch every server, worker and (optionally) controller process."""
        if self.recorder.enabled:
            self._trace_event("job", "run-start",
                              workers=len(self.workers),
                              servers=len(self.servers),
                              total_samples=self.allocator.total_samples)
        for server in self.servers:
            server.start()
        for worker in self.workers:
            worker.start()
        if self._serving is not None:
            self._serving.start()
        if self.controller is not None:
            self.env.process(self.controller.run())
        if self.autoscaler is not None:
            self.env.process(self.autoscaler.run())

    def run(self) -> PSRunResult:
        """Run the job to completion and return the result summary."""
        self.start()
        deadline = self.env.timeout(self.config.max_duration_s)
        self.env.run(until=self.env.any_of([self._completion_event, deadline]))
        jct = self.completion_time if self.completion_time is not None else self.env.now
        return self._build_result(jct)

    def _build_result(self, jct: float) -> PSRunResult:
        # Rewind any coalesced window committed past the instant the run
        # stopped: figures read the server series post-run and must see
        # exactly what per-request stepping would have recorded by now.
        for server in self.servers:
            server.finalize_run()
        if self.recorder.enabled:
            # Post-finalize depths are mode-invariant (the finalize contract
            # rewinds every committed window to the stop instant), so these
            # closing gauges are safe for byte-determinism across modes.
            depths = self.server_queue_depths()
            for name in sorted(depths):
                self.recorder.gauge(name, "queue-depth", jct, depths[name])
            for name, heat in sorted(self.server_shard_weights().items()):
                self.recorder.gauge(name, "shard-heat", jct, heat)
            self._trace_event("job", "run-end",
                              completed=self.completed, jct_s=jct,
                              samples_confirmed=self._samples_confirmed)
        # Departed workers stay in self.workers, so their drops still count.
        dropped = sum(worker.dropped_iterations for worker in self.workers)
        overhead = self.agent_group.total_overhead_s + self.allocator.total_overhead_s
        done_shards = total_shards = None
        if isinstance(self.allocator, StatefulDDS):
            done_shards = self.allocator.done_shards
            total_shards = self.allocator.total_shards
        auc_value = None
        if self.evaluate_after_run:
            auc_value = self.backend.evaluate()
        action_log = list(self.controller.action_log) if self.controller else []
        if self.autoscaler is not None:
            action_log.extend(self.autoscaler.action_log)
        return PSRunResult(
            job_completion_time_s=jct,
            completed=self.completed,
            total_samples=self.allocator.total_samples,
            samples_confirmed=self._samples_confirmed,
            consumed_per_worker=self.allocator.consumed_counts(),
            restarts_per_node=self.restart_counts(),
            dropped_iterations=dropped,
            framework_overhead_s=overhead,
            action_log=action_log,
            done_shards=done_shards,
            total_shards=total_shards,
            auc=auc_value,
            metrics=self.metrics,
            monitor=self.monitor,
            membership_events=self.membership.events,
            server_membership_events=self.server_membership.events,
            reshard_events=list(self.reshard_log),
            shard_map_digest=self.shard_map.digest() if self.servers else None,
            shard_replicas=self._server_replicas,
            shard_weights=self.shard_map.weights_summary(),
            engine_events_scheduled=self.env.scheduled_count,
            engine_events_processed=self.env.processed_count + self.env.coalesced_count,
            engine_events_physical=self.env.processed_count,
            # Finalized after the server rewind above, so in-flight counts
            # see exactly the acknowledgements per-request stepping would
            # have delivered by the stop instant (mode-invariant).
            serving=(self._serving.finalize(jct)
                     if self._serving is not None else None),
        )
