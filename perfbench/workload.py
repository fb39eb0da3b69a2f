"""One repetition of one benchmark workload, in a fresh process.

``perfbench/run.py`` starts this script once per repetition::

    python3 perfbench/workload.py --workload nd_1000w --seed 0 --mode plain

The process sets up (imports ``repro``, generates the workload's specs from
the seed and, for single-spec workloads, builds the job), then runs the timed
section: simulate one spec at a time, fingerprint, check the outputs.  A
failed check is recorded, not raised, so it counts against the run instead of
aborting it.  The last line of standard output is one JSON record.

Modes:

* ``plain`` -- untraced, with the reference loop sampled all through the
  timed section (``Sampler``); the record feeds the end-to-end metrics.
* ``profile`` -- the timed section runs under cProfile with the call counters
  of ``perfbench/layers.py`` installed; the record adds the per-layer split.
* ``setup`` -- set up, time the reference loop and exit: one more ``setup_s``
  sample.
"""

import time

T0 = time.perf_counter()

import argparse
import dataclasses
import gc
import hashlib
import heapq
import importlib
import json
import resource
import shutil
import signal
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
GOLDEN_DIR = ROOT / "tests" / "golden" / "traces"
#: Scratch space for the registry sweep's result store, inside the checkout.
WORK_DIR = ROOT / ".perfbench-tmp"
#: Fingerprint digests recorded with the benchmark at the default seed.
EXPECTED = json.loads((HERE / "expected.json").read_text())

sys.path.insert(0, str(ROOT / "src"))


#: Steps of the reference loop: about 0.13-0.25 s of pure Python on a 2-core Xeon VM.
REFERENCE_STEPS = 100_000
#: Steps of one sample of the reference loop taken during the timed section ...
SAMPLE_STEPS = 2_000
#: ... and the wall time between two samples: they add about 5% to the section.
SAMPLE_INTERVAL_S = 0.1


class ReferenceLoop:
    """A fixed pure-Python loop, the yardstick for this machine's current speed.

    It does what the simulator does most -- resume a generator, push and pop a
    heap, read and write a dict -- over tens of thousands of entries, so that
    memory stalls weigh in as they do for the simulator.  It uses nothing from
    ``repro``, so no change to the simulator can move it.  Its heap and table
    persist between calls to :meth:`run`.
    """

    def __init__(self):
        self.heap, self.table, self.step = [], {}, 0

    def run(self, steps):
        """Run ``steps`` more steps of the loop and return their wall time."""
        def ticks(count):
            yield from range(self.step, self.step + count)

        # The collector's cost grows with whatever the workload left alive; the
        # loop itself frees everything by reference count.
        collecting = gc.isenabled()
        gc.disable()
        try:
            heap, table = self.heap, self.table
            started = time.perf_counter()
            for step in ticks(steps):
                heapq.heappush(heap, ((step * 7919) % 65536, step))
                table[step & 65535] = table.get((step * 31) & 65535, 0.0) + 1.5
                if len(heap) > 8192:
                    heapq.heappop(heap)
            return time.perf_counter() - started
        finally:
            self.step += steps
            if collecting:
                gc.enable()


def reference_s():
    """Time ``REFERENCE_STEPS`` steps of a fresh reference loop."""
    return ReferenceLoop().run(REFERENCE_STEPS)


class Sampler:
    """Samples the reference loop all through the timed section.

    Every ``SAMPLE_INTERVAL_S`` a timer signal runs ``SAMPLE_STEPS`` more steps
    of one warmed-up loop between two of the simulator's bytecodes.  So the
    samples see the machine's speed during the whole section, not only at its
    ends, and under the same cache pressure as the simulator.  The time the
    samples take is kept apart, to be taken out of the section's wall time.
    """

    def __init__(self):
        self.loop = ReferenceLoop()
        self.loop.run(REFERENCE_STEPS)  # grow the heap and table to full size
        self.samples = []
        self.spent_s = 0.0

    def _sample(self, signum, frame):
        started = time.perf_counter()
        self.samples.append(self.loop.run(SAMPLE_STEPS))
        self.spent_s += time.perf_counter() - started

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.samples:  # a section shorter than one interval
            self._sample(signal.SIGALRM, None)


def _digest(texts):
    hasher = hashlib.sha256()
    for text in texts:
        hasher.update(text.encode("utf-8"))
    return hasher.hexdigest()


def _ledger_problems(fp):
    """The serving request ledger must close: arrivals = served + shed + in flight."""
    serving = fp.get("serving")
    if serving is None:
        return []
    shed = sum(serving["shed"].values())
    if serving["arrivals"] != serving["completed"] + shed + serving["in_flight_at_end"]:
        return [f"serving ledger open: {serving['arrivals']} arrivals != "
                f"{serving['completed']} completed + {shed} shed + "
                f"{serving['in_flight_at_end']} in flight"]
    return []


def _run_problems(fp):
    """Invariants every finished run must satisfy, at any seed."""
    problems = []
    if not fp["completed"]:
        problems.append("did not complete")
    if fp["samples_confirmed"] != fp["total_samples"]:
        problems.append(f"{fp['samples_confirmed']} of {fp['total_samples']} samples confirmed")
    if fp.get("done_shards") != fp.get("total_shards"):
        problems.append(f"{fp.get('done_shards')} of {fp.get('total_shards')} shards done")
    return problems + _ledger_problems(fp)


def _serving_counts(fps):
    counts = {"arrivals": 0, "admitted": 0, "shed": 0}
    for fp in fps:
        serving = fp.get("serving")
        if serving is not None:
            counts["arrivals"] += serving["arrivals"]
            counts["admitted"] += serving["completed"] + serving["in_flight_at_end"]
            counts["shed"] += sum(serving["shed"].values())
    return counts


def _iterations(fps):
    return sum(worker["iterations"] for fp in fps for worker in fp["workers"].values())


class Builds:
    """Times every ``build_scenario_job`` call, wherever the workload makes it."""

    def __init__(self):
        self.count = 0
        self.seconds = 0.0

    def wrap(self, build):
        def timed_build(spec, **overrides):
            start = time.perf_counter()
            try:
                return build(spec, **overrides)
            finally:
                self.seconds += time.perf_counter() - start
                self.count += 1
        return timed_build


class SingleSpec:
    """A workload of one derived spec: built during set-up, simulated when timed."""

    modules = ("repro.scenarios", "repro.experiments.stragglers")

    def __init__(self, name, make_spec):
        self.name = name
        self.make_spec = make_spec

    def set_up(self, seed, builds):
        from repro.scenarios import build_scenario_job
        spec = self.make_spec(seed)
        job, injector = builds.wrap(build_scenario_job)(spec)
        return spec, job, injector

    def run(self, state, seed):
        from repro.scenarios import canonical_json, fingerprint
        spec, job, injector = state
        record = {"attempted": 1, "failed": 1, "failures": []}
        try:
            result = job.run()
            fp = fingerprint(spec, result, injector)
        except Exception as exc:  # noqa: BLE001 - a raising simulation is a failed one
            record["failures"].append(f"{spec.name}: {type(exc).__name__}: {exc}")
            return record
        text = canonical_json(fp)
        problems = _run_problems(fp)
        accounting = job.allocator.shard_accounting()
        if not accounting["conserved"] or accounting["confirmed"] != accounting["total_samples"]:
            problems.append(f"shard accounting {accounting}")
        expected = EXPECTED[self.name].get(str(seed))
        digest = _digest([text])
        if expected is not None and digest != expected:
            problems.append(f"fingerprint digest {digest} != recorded {expected}")
        record["failures"] += [f"{spec.name}: {problem}" for problem in problems]
        record["failed"] = int(bool(problems))
        record.update(
            sim_s=result.jct,
            heap_pops=result.engine_events_physical,
            logical_events=result.engine_events_processed,
            iterations=_iterations([fp]),
            serving=_serving_counts([fp]),
            digest=digest,
        )
        return record


def _nd_1000w(seed):
    """The 1000-worker AntDT-ND run behind ``sweep_nd_1000w``; seed 0 is that run."""
    from repro.experiments.stragglers import worker_scenario
    from repro.scenarios import ScenarioSpec, TopologySpec
    return ScenarioSpec(name="bench-nd-1000w", method="antdt-nd", scale="auto", seed=seed,
                        topology=TopologySpec(num_workers=1000),
                        stragglers=worker_scenario(0.8))


#: ``serving-hot-key-fanout``'s tenants scale by this factor: ~900 req/s offered.
SERVING_TRAFFIC_SCALE = 6.4


def _serving_colocated(seed):
    """``serving-hot-key-fanout`` on 12 servers, ~900 req/s offered for 100 s."""
    from repro.scenarios import TopologySpec, get_scenario
    base = get_scenario("serving-hot-key-fanout")
    tenants = tuple(
        dataclasses.replace(
            tenant, rate_rps=tenant.rate_rps * SERVING_TRAFFIC_SCALE,
            rate_limit_rps=(tenant.rate_limit_rps * SERVING_TRAFFIC_SCALE
                            if tenant.rate_limit_rps is not None else None))
        for tenant in base.serving.tenants)
    return dataclasses.replace(
        base, name="bench-serving-colocated", seed=base.seed + seed,
        topology=TopologySpec(num_servers=12),
        serving=dataclasses.replace(base.serving, tenants=tenants, duration_s=100.0))


class RegistrySweep:
    """Every registered scenario through ``SweepRunner(jobs=1)``: cold, then warm."""

    name = "registry_sweep"
    modules = ("repro.scenarios", "repro.orchestrator")

    def set_up(self, seed, builds):
        import repro.orchestrator.worker as orchestrator_worker
        from repro.scenarios import all_scenarios
        orchestrator_worker.build_scenario_job = builds.wrap(
            orchestrator_worker.build_scenario_job)
        return [dataclasses.replace(spec, seed=spec.seed + seed) for spec in all_scenarios()]

    def run(self, specs, seed):
        from repro.orchestrator import ResultStore, SweepRunner
        from repro.scenarios import canonical_json
        WORK_DIR.mkdir(exist_ok=True)
        store_dir = Path(tempfile.mkdtemp(dir=WORK_DIR))
        try:
            path = store_dir / "results.jsonl"
            cold = SweepRunner(jobs=1, store=ResultStore(path)).run(specs)
            warm = SweepRunner(jobs=1, store=ResultStore(path)).run(specs)
        finally:
            shutil.rmtree(store_dir, ignore_errors=True)
        failures = []
        failed = 0
        texts = []
        for outcome, again in zip(cold.outcomes, warm.outcomes):
            if outcome.error is not None:
                problems = [outcome.error]
            else:
                problems = _run_problems(outcome.fingerprint)
                text = canonical_json(outcome.fingerprint)
                texts.append(text)
                if seed == 0 and text != (GOLDEN_DIR / f"{outcome.name}.json").read_text():
                    problems.append("fingerprint differs from its golden trace")
                if not again.cached or again.fingerprint != outcome.fingerprint:
                    problems.append("the warm re-sweep did not serve it from the store")
            failures += [f"{outcome.name}: {problem}" for problem in problems]
            failed += bool(problems)
        fps = [outcome.fingerprint for outcome in cold.outcomes if outcome.ok]
        return {
            "attempted": len(specs),
            "failed": failed,
            "failures": failures,
            "sim_s": sum(fp["jct_s"] for fp in fps),
            "heap_pops": int(cold.counters["engine_events_physical"]),
            "logical_events": int(cold.counters["engine_events_processed"]),
            "iterations": _iterations(fps),
            "serving": _serving_counts(fps),
            "digest": _digest(texts),
            "cache_hits": cold.hits + warm.hits,
            "cache_misses": cold.misses + warm.misses,
            "orchestrator_s": (cold.wall_s - cold.simulation_wall_s) + warm.wall_s,
        }


WORKLOADS = {
    "nd_1000w": SingleSpec("nd_1000w", _nd_1000w),
    "serving_colocated": SingleSpec("serving_colocated", _serving_colocated),
    "registry_sweep": RegistrySweep(),
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--mode", choices=("plain", "profile", "setup"), default="plain")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    for module in workload.modules:
        importlib.import_module(module)
    import_s = time.perf_counter() - T0
    counts = None
    if args.mode == "profile":
        import layers
        counts = layers.install_counters()
    builds = Builds()
    state = workload.set_up(args.seed, builds)
    record = {"setup_s": time.perf_counter() - T0, "import_s": import_s,
              "reference_s": reference_s()}
    if args.mode == "setup":
        print(json.dumps(record))
        return 0

    if args.mode == "profile":
        import cProfile
        profiler = cProfile.Profile()
        started = time.perf_counter()
        profiler.enable()
        outcome = workload.run(state, args.seed)
        profiler.disable()
        record["wall_s"] = time.perf_counter() - started
    else:
        sampler = Sampler()
        started = time.perf_counter()
        with sampler:
            outcome = workload.run(state, args.seed)
        record["wall_s"] = time.perf_counter() - started - sampler.spent_s
        record["sample_s"] = statistics.fmean(sampler.samples)
    record["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record.update(outcome, build_s=builds.seconds, builds=builds.count)
    if counts is not None:
        record["layers"] = layers.split(profiler, counts)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
