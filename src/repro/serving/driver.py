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
next event.  An arrival costs a few stores into the SLO tracker's
per-arrival columns (:mod:`repro.serving.slo`), not a call per event: per
arrival the handler

1. writes the time it handles the arrival and the tenant's handled count;
2. charges the tenant's token bucket (empty bucket → shed ``"throttled"``);
3. routes through a per-shard table of (owner, live standbys), rebuilt only
   when the push targets, the shard map or its chains change: writes go to
   the shard's primary, reads pick the least-loaded live member of the
   replica chain (primary + warm standbys), so warm replicas serve reads
   too;
4. admits against the target's bounded in-flight budget — queue-based load
   leveling: the handler keeps each server's depth (requests admitted and
   not yet acknowledged) and its running peak, and a request routed to a
   full server, or to no server, is shed ``"overload"`` (the 429 path)
   instead of parked on an unbounded queue, so a burst levels out at
   bounded latency; a shed writes the arrival's outcome byte.  An admitted
   request is submitted through the ordinary :meth:`ParameterServer.submit`
   path, sharing the acknowledgement chain with training pushes —
   colocation contention is physical, not modelled; the request's done
   event comes from :meth:`~repro.sim.engine.Wakeups.event`, so the
   acknowledgement a server commits during the walk is a key the walk
   holds, delivered in place like an arrival (one the server commits from
   elsewhere, say after a rollback, is an ordinary heap event);
5. completes when that event fires, at the acknowledgement instant in both
   engine coalescing modes: the handler's acknowledgement closure reads
   (tenant, arrival index, server) from the event's payload, releases the
   server's depth and writes the acknowledgement time.  It refuses a second
   acknowledgement of one arrival, one of a shed arrival and a release
   without an admission, and the tracker's ``finalize`` closes the ledger
   against the tier's running ``admitted`` and ``completed`` counters.

Requests carry a ``serve:<tenant>`` pseudo-worker name; the job's requeue
filter admits the prefix so an in-flight serving request survives a server
kill (it replays after the relaunch, or is re-delivered to a promoted
standby) instead of being dropped with the training backlog of departed
workers.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, DefaultDict, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..psarch.job import SERVING_WORKER_PREFIX
from .arrivals import arrival_times, zipf_keys
from .slo import ADMITTED, OVERLOAD, SHED_REASONS, THROTTLED, SLOTracker
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
        self.slo = SLOTracker(spec.window_s)
        self.admitted = 0
        self.completed = 0
        # Highest in-flight depth any single server reached.
        self.peak_server_inflight = 0
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
        self.slo.start([tenant.name for tenant in spec.tenants],
                       [len(times) for times in timelines])
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
        after the job completed.  It and the acknowledgement it hands each
        admitted request write the SLO tracker's columns, and keep each
        server's in-flight depth.
        """
        job = self.job
        env = self.env
        push_targets = job.push_targets
        held_event = wakeups.event
        request_bytes = self.spec.request_bytes
        capacity = self.spec.queue_capacity
        slo = self.slo
        handled = [memoryview(column) for column in slo.handled]
        outcomes = [memoryview(column) for column in slo.outcomes]
        acks = [memoryview(column) for column in slo.acks]
        counts = slo.counts
        recorder = self.recorder
        tracing = recorder.enabled
        tenants = self.spec.tenants
        names = [tenant.name for tenant in tenants]
        workers = [SERVING_WORKER_PREFIX + name for name in names]
        buckets = [bucket_for(tenant.rate_limit_rps, tenant.burst_s,
                              self.spec.start_s) for tenant in tenants]
        # Server -> requests admitted and not yet acknowledged.
        depths: DefaultDict[object, int] = defaultdict(int)
        # Running shed count per outcome, for the trace's counters.
        shed_counts = [0] * (len(SHED_REASONS) + 1)
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
            handled[tenant][index] = now
            counts[tenant] = index + 1
            bucket = buckets[tenant]
            if bucket is not None and not bucket.try_acquire(now):
                outcome = THROTTLED
            else:
                targets = push_targets()
                smap = job.shard_map
                if (targets is not routed_targets or smap is not routed_map
                        or smap.mutations != routed_mutations):
                    routes = _route_table(targets, smap)
                    routed_targets, routed_map, routed_mutations = targets, smap, smap.mutations
                target, standbys = routes[shards[tenant][index]]
                if standbys and reads[tenant][index]:
                    best_depth = depths[target] if target is not None else None
                    for standby in standbys:
                        depth = depths[standby]
                        if best_depth is None or depth < best_depth:
                            target, best_depth = standby, depth
                # An owner out of the push rotation with no live replica
                # to absorb the read, or a full server: degrade rather than
                # queue unboundedly.
                if target is not None:
                    depth = depths[target] + 1
                    if depth <= capacity:
                        depths[target] = depth
                        if depth > self.peak_server_inflight:
                            self.peak_server_inflight = depth
                        self.admitted += 1
                        target.submit(workers[tenant], request_bytes,
                                      held_event(acknowledge, (tenant, index, target)))
                        return True
                outcome = OVERLOAD
            outcomes[tenant][index] = outcome
            if tracing:
                shed_counts[outcome] += 1
                recorder.counter("serving", f"shed-{SHED_REASONS[outcome - 1]}", now,
                                 shed_counts[outcome])
            return True

        def acknowledge(event) -> None:
            tenant, index, server = event.payload
            ack = env._now
            acked = acks[tenant]
            # An ack cell equals itself once set: it is NaN until then.
            if acked[index] == acked[index] or outcomes[tenant][index] != ADMITTED:
                raise RuntimeError(
                    f"serving ledger: arrival {index} of {names[tenant]!r} is "
                    f"acknowledged again, or after it was shed")
            depth = depths[server]
            if depth <= 0:
                raise RuntimeError(f"release without admission on {server.name!r}")
            depths[server] = depth - 1
            acked[index] = ack
            self.completed += 1
            if tracing:
                recorder.span(f"serving:{names[tenant]}", "request",
                              handled[tenant][index], ack, cat="serving",
                              args={"server": server.name})

        return arrive

    # ------------------------------------------------------------------
    # Policy input and fingerprint section.
    # ------------------------------------------------------------------

    def slo_snapshot(self) -> Dict[str, float]:
        """Windowed SLO view for the ``serving-slo`` autoscaler policy."""
        return self.slo.snapshot(self.env.now, self.admitted - self.completed)

    def finalize(self, jct: float) -> Dict[str, object]:
        """Cumulative serving summary for the run fingerprint."""
        spec = self.spec
        elapsed = max(0.0, min(jct, spec.start_s + spec.duration_s)
                      - spec.start_s)
        summary = self.slo.finalize(elapsed, self.admitted, self.completed)
        summary["peak_server_inflight"] = self.peak_server_inflight
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
