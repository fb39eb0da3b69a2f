"""The serving tier runtime: open-loop tenants driving the sharded PS.

One :class:`ServingTier` attaches to a :class:`~repro.psarch.job.PSTrainingJob`
and runs one simulation process for all its tenants.  Every tenant's
arrival trace is fully precomputed (times, target shards, read/write flags —
see :mod:`repro.serving.arrivals`): Zipf key ranks map to parameter shards in
one vectorised step, hottest keys onto the heaviest-weighted shards, so Zipf
popularity concentrates on the scenario's declared ``hot_shards``, and the
arrays are read through memoryviews, which index as plain Python numbers.
The process is the engine's walk over the traces
(:meth:`~repro.sim.engine.Wakeups.walk`): it handles the arrivals in the
order one timeout per arrival would fire, reserving each tenant's next
arrival without a heap entry and stepping to it in place while it is the
next event.  Per arrival the handler:

1. charges the tenant's token bucket (empty bucket → shed ``"throttled"``);
2. routes through a per-shard table of (owner, live standbys), rebuilt only
   when the push targets, the shard map or its chains change: writes go to
   the shard's primary, reads pick the least-loaded live member of the
   replica chain (primary + warm standbys), so warm replicas serve reads
   too;
3. admits against the target's bounded in-flight budget (full → shed
   ``"overload"``) and submits through the ordinary
   :meth:`ParameterServer.submit` path, sharing the acknowledgement chain
   with training pushes — colocation contention is physical, not modelled;
   the request's done event comes from :meth:`~repro.sim.engine.Wakeups.event`,
   so the acknowledgement a server commits during the walk is a key the walk
   holds, delivered in place like an arrival (one the server commits from
   elsewhere, say after a rollback, is an ordinary heap event);
4. completes when that event fires, at the acknowledgement instant in both
   engine coalescing modes: one bound callback reads (tenant, arrival,
   server) from the event's payload, releases the admission slot and
   records the latency.

Requests carry a ``serve:<tenant>`` pseudo-worker name; the job's requeue
filter admits the prefix so an in-flight serving request survives a server
kill (it replays after the relaunch, or is re-delivered to a promoted
standby) instead of being dropped with the training backlog of departed
workers.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..psarch.job import SERVING_WORKER_PREFIX
from .admission import AdmissionLedger
from .arrivals import arrival_times, zipf_keys
from .slo import SLOTracker
from .spec import ServingSpec
from .tenants import bucket_for

__all__ = ["ServingTier", "SERVING_WORKER_PREFIX"]

#: Salt mixed into every tenant's RNG seed sequence (spells "SRV").
_SEED_SALT = 0x535256


class ServingTier:
    """Open-loop request traffic against a training job's server tier."""

    def __init__(self, job, spec: ServingSpec, seed: int = 0,
                 recorder=None) -> None:
        if not spec:
            raise ValueError("a serving tier needs at least one tenant")
        self.job = job
        self.env = job.env
        self.spec = spec
        self.recorder = recorder if recorder is not None else job.recorder
        self.admission = AdmissionLedger(spec.queue_capacity)
        self.slo = SLOTracker(spec.window_s)
        self.admitted = 0
        self.completed = 0
        self._shed_counts = {"overload": 0, "throttled": 0}
        self._seed = int(seed)

    # ------------------------------------------------------------------
    # Launch (called by PSTrainingJob.start once servers are up).
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Precompute every tenant's trace and launch the arrival walk."""
        spec = self.spec
        smap = self.job.shard_map
        # Shards sorted heaviest-first: block-mapping hot key ranks onto
        # this order concentrates Zipf mass on the declared hot shards.
        shard_order = np.array(sorted(
            range(smap.num_shards),
            key=lambda shard: (-smap.weight_of(shard), shard)))
        timelines, shards, reads = [], [], []
        for index, tenant in enumerate(spec.tenants):
            rng = np.random.default_rng((self._seed, _SEED_SALT, index))
            times = arrival_times(rng, tenant.shape, tenant.rate_rps,
                                  spec.start_s, spec.duration_s)
            keys = zipf_keys(rng, times.shape[0], spec.num_keys, spec.zipf_s)
            read = rng.random(times.shape[0]) < spec.read_fraction
            timelines.append(memoryview(times))
            shards.append(memoryview(shard_order[(keys * smap.num_shards)
                                                 // spec.num_keys]))
            reads.append(memoryview(read))
        wakeups = self.env.wakeups()
        self.env.process(wakeups.walk(
            timelines, self._handler(wakeups, shards, reads)))

    # ------------------------------------------------------------------
    # Per-arrival handling and completion.
    # ------------------------------------------------------------------

    def _handler(self, wakeups, shards: Sequence[Sequence[int]],
                 reads: Sequence[Sequence[bool]]) -> Callable[[int, int], bool]:
        """The walk's per-arrival handler, with its hot state bound once.

        It returns False, ending the tenant, at the tenant's first arrival
        after the job completed.
        """
        job = self.job
        env = self.env
        push_targets = job.push_targets
        on_arrival = self.slo.on_arrival
        inflight = self.admission.inflight
        try_admit = self.admission.try_admit
        shed = self._shed
        on_ack = self._on_ack
        held_event = wakeups.event
        request_bytes = self.spec.request_bytes
        tenants = self.spec.tenants
        names = [tenant.name for tenant in tenants]
        workers = [SERVING_WORKER_PREFIX + name for name in names]
        buckets = [bucket_for(tenant.rate_limit_rps, tenant.burst_s,
                              self.spec.start_s) for tenant in tenants]
        # Shard -> (owner, live standbys), built from these push targets,
        # this shard map and this count of its chain mutations.
        routes: list = []
        routed_targets = routed_map = None
        routed_mutations = -1

        def arrive(tenant: int, index: int) -> bool:
            nonlocal routes, routed_targets, routed_map, routed_mutations
            if job.completed:
                return False
            now = env._now
            name = names[tenant]
            on_arrival(name, now)
            bucket = buckets[tenant]
            if bucket is not None and not bucket.try_acquire(now):
                shed(name, now, "throttled")
                return True
            targets = push_targets()
            smap = job.shard_map
            if (targets is not routed_targets or smap is not routed_map
                    or smap.mutations != routed_mutations):
                routes = _route_table(targets, smap)
                routed_targets, routed_map, routed_mutations = targets, smap, smap.mutations
            target, standbys = routes[shards[tenant][index]]
            if standbys and reads[tenant][index]:
                best_depth = inflight(target.name) if target is not None else None
                for standby in standbys:
                    depth = inflight(standby.name)
                    if best_depth is None or depth < best_depth:
                        target, best_depth = standby, depth
            if target is None:
                # The owner fell out of the push rotation with no live
                # replica to absorb the read: degrade rather than queue
                # unboundedly.
                shed(name, now, "overload")
                return True
            server_name = target.name
            if not try_admit(server_name):
                shed(name, now, "overload")
                return True
            self.admitted += 1
            target.submit(workers[tenant], request_bytes,
                          held_event(on_ack, (name, now, server_name)))
            return True

        return arrive

    def _on_ack(self, event) -> None:
        tenant, arrival, server_name = event.payload
        ack = self.env.now
        self.admission.release(server_name)
        self.completed += 1
        self.slo.on_completion(tenant, ack, ack - arrival)
        recorder = self.recorder
        if recorder.enabled:
            recorder.span(f"serving:{tenant}", "request", arrival, ack,
                          cat="serving", args={"server": server_name})

    def _shed(self, tenant: str, now: float, reason: str) -> None:
        self._shed_counts[reason] += 1
        self.slo.on_shed(tenant, now, reason)
        recorder = self.recorder
        if recorder.enabled:
            recorder.counter("serving", f"shed-{reason}", now,
                             self._shed_counts[reason])

    # ------------------------------------------------------------------
    # Policy input and fingerprint section.
    # ------------------------------------------------------------------

    def slo_snapshot(self) -> Dict[str, float]:
        """Windowed SLO view for the ``serving-slo`` autoscaler policy."""
        return self.slo.snapshot(self.env.now, self.admission.total_inflight())

    def finalize(self, jct: float) -> Dict[str, object]:
        """Cumulative serving summary for the run fingerprint."""
        spec = self.spec
        elapsed = max(0.0, min(jct, spec.start_s + spec.duration_s)
                      - spec.start_s)
        summary = self.slo.finalize(elapsed, self.admitted - self.completed)
        summary["peak_server_inflight"] = self.admission.peak_inflight()
        return summary


def _route_table(targets, smap) -> List[Tuple[Optional[object], tuple]]:
    """Shard -> (owner, live standbys in chain order) over ``targets``.

    A chain member outside the push targets (draining, or recovering after
    its standbys took over) routes nowhere: an owner is None, a standby is
    left out.
    """
    live = {server.name: server for server in targets}
    return [(live.get(smap.owner_of(shard)),
             tuple(live[name] for name in smap.standbys_of(shard) if name in live))
            for shard in range(smap.num_shards)]
