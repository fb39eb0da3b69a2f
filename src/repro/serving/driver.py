"""The serving tier runtime: open-loop tenants driving the sharded PS.

One :class:`ServingTier` attaches to a :class:`~repro.psarch.job.PSTrainingJob`
and runs one simulation process for all its tenants.  Every tenant's
arrival trace is fully precomputed (times, target shards, read/write flags —
see :mod:`repro.serving.arrivals`): Zipf key ranks map to parameter shards in
one vectorised step, hottest keys onto the heaviest-weighted shards, so Zipf
popularity concentrates on the scenario's declared ``hot_shards``.  The
process walks the traces in the order one timeout per arrival would fire:
it reserves each tenant's next arrival through
:meth:`~repro.sim.engine.Environment.wakeups`, and an arrival that is the
next event is served inline, without a heap entry.  Per request it:

1. charges the tenant's token bucket (empty bucket → shed ``"throttled"``);
2. routes: writes go to the shard's primary, reads pick the least-loaded
   live member of the replica chain (primary + warm standbys), so warm
   replicas serve reads too;
3. admits against the target's bounded in-flight budget (full → shed
   ``"overload"``) and submits through the ordinary
   :meth:`ParameterServer.submit` path, sharing the acknowledgement chain
   with training pushes — colocation contention is physical, not modelled;
4. completes via a callback on the request's done event, which fires at
   the acknowledgement instant in both engine coalescing modes, releasing
   the admission slot and recording the latency.

Requests carry a ``serve:<tenant>`` pseudo-worker name; the job's requeue
filter admits the prefix so an in-flight serving request survives a server
kill (it replays after the relaunch, or is re-delivered to a promoted
standby) instead of being dropped with the training backlog of departed
workers.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..psarch.job import SERVING_WORKER_PREFIX
from .admission import AdmissionLedger
from .arrivals import arrival_times, zipf_keys
from .slo import SLOTracker
from .spec import ServingSpec, TenantSpec
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
        self._targets_cache: Tuple[Optional[list], Dict[str, object]] = (None, {})

    # ------------------------------------------------------------------
    # Launch (called by PSTrainingJob.start once servers are up).
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Precompute every tenant's trace and launch the arrival process."""
        spec = self.spec
        smap = self.job.shard_map
        # Shards sorted heaviest-first: block-mapping hot key ranks onto
        # this order concentrates Zipf mass on the declared hot shards.
        shard_order = np.array(sorted(
            range(smap.num_shards),
            key=lambda shard: (-smap.weight_of(shard), shard)))
        traces = []
        for index, tenant in enumerate(spec.tenants):
            rng = np.random.default_rng((self._seed, _SEED_SALT, index))
            times = arrival_times(rng, tenant.shape, tenant.rate_rps,
                                  spec.start_s, spec.duration_s)
            keys = zipf_keys(rng, times.shape[0], spec.num_keys, spec.zipf_s)
            reads = rng.random(times.shape[0]) < spec.read_fraction
            shards = shard_order[(keys * smap.num_shards) // spec.num_keys]
            traces.append(_TenantTrace(tenant, spec.start_s, times, shards,
                                       reads))
        self.env.process(self._arrivals(traces))

    def _arrivals(self, traces: List["_TenantTrace"]):
        """Walk every trace in the order per-arrival timeouts would fire."""
        wakeups = self.env.wakeups()
        for trace in traces:
            self._walk(trace, wakeups, woken=False)
        while wakeups:
            trace, wait = wakeups.next()
            if wait is not None:
                yield wait
            self._walk(trace, wakeups, woken=True)

    def _walk(self, trace: "_TenantTrace", wakeups, woken: bool) -> None:
        """Serve ``trace``'s arrivals due now, then reserve the next one.

        ``woken`` marks the arrival at the cursor as the one just woken for:
        it is served without comparing its time to the clock again, as a
        timeout's waiter would be.  A tenant stops at its first arrival
        after the job completed, or at the end of its trace.
        """
        job = self.job
        now = self.env.now
        name = trace.name
        bucket = trace.bucket
        times = trace.times
        for i in range(trace.cursor, times.shape[0]):
            if not woken:
                when = float(times[i])
                if when > now:
                    trace.cursor = i
                    wakeups.add(when, trace)
                    return
            woken = False
            if job.completed:
                return
            self.slo.on_arrival(name, now)
            if bucket is not None and not bucket.try_acquire(now):
                self._shed(name, now, "throttled")
                continue
            self._dispatch(name, now, int(trace.shards[i]),
                           bool(trace.reads[i]))

    # ------------------------------------------------------------------
    # Routing, admission, completion.
    # ------------------------------------------------------------------

    def _target_index(self) -> Dict[str, object]:
        """Name -> live server, rebuilt only when the target list changes."""
        targets = self.job.push_targets()
        cached_list, index = self._targets_cache
        if cached_list is not targets:
            index = {server.name: server for server in targets}
            self._targets_cache = (targets, index)
        return index

    def _dispatch(self, tenant: str, now: float, shard: int,
                  is_read: bool) -> None:
        job = self.job
        smap = job.shard_map
        index = self._target_index()
        owner = smap.owner_of(shard)
        target = index.get(owner) if owner is not None else None
        if is_read:
            standbys = smap.standbys_of(shard)
            if standbys:
                admission = self.admission
                best_depth = (admission.inflight(target.name)
                              if target is not None else None)
                for standby_name in standbys:
                    standby = index.get(standby_name)
                    if standby is None:
                        continue
                    depth = admission.inflight(standby_name)
                    if best_depth is None or depth < best_depth:
                        target, best_depth = standby, depth
        if target is None:
            # The owner fell out of the push rotation with no live replica
            # to absorb the read: degrade rather than queue unboundedly.
            self._shed(tenant, now, "overload")
            return
        server_name = target.name
        if not self.admission.try_admit(server_name):
            self._shed(tenant, now, "overload")
            return
        self.admitted += 1
        done = target.submit(SERVING_WORKER_PREFIX + tenant,
                             self.spec.request_bytes)
        done.callbacks.append(
            lambda _event, tenant=tenant, arrival=now,
            server_name=server_name: self._on_ack(tenant, arrival,
                                                  server_name))

    def _on_ack(self, tenant: str, arrival: float, server_name: str) -> None:
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


class _TenantTrace:
    """One tenant's precomputed arrivals and how far the walk has got."""

    __slots__ = ("name", "bucket", "times", "shards", "reads", "cursor")

    def __init__(self, tenant: TenantSpec, start_s: float, times: np.ndarray,
                 shards: np.ndarray, reads: np.ndarray) -> None:
        self.name = tenant.name
        self.bucket = bucket_for(tenant.rate_limit_rps, tenant.burst_s,
                                 start_s)
        self.times = times
        self.shards = shards
        self.reads = reads
        self.cursor = 0
