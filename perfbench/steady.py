"""Steadiness evidence for the benchmark's bounds.

    python3 perfbench/steady.py --out perfbench/evidence.json

Runs ``perfbench/run.py`` on every workload for each of ``SEEDS`` seeds,
interleaving the workloads so that a drift in machine speed reaches all of
them alike, and repeats the whole sequence ``SETS`` times on fresh seeds.
For each end-to-end metric it reports every set's median and spread -- the
distance between the first and third quartiles (``statistics.quantiles(n=4)``)
as a share of the median -- and how far each later set's median moved against
the first.  A metric passes when every spread stays under its bound and no
later median is worse than the first by more than the bound; it is steady
when every spread also stays under a third of the bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2
SEEDS = 10
FIRST_SEED = 1


def run_once(workload, seed):
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(completed.stdout.strip().splitlines()[-1])


def summarize(values):
    first, _, third = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "spread": (third - first) / median, "values": values}


def main(argv=None):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [workload["name"] for workload in declared["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    metrics = declared["end_to_end"]
    sets = []
    for index in range(SETS):
        seeds = range(FIRST_SEED + index * SEEDS, FIRST_SEED + (index + 1) * SEEDS)
        values = {workload: {metric["name"]: [] for metric in metrics}
                  for workload in workloads}
        for seed in seeds:
            for workload in workloads:
                result = run_once(workload, seed)
                if not result["correct"] or result["failed"]:
                    raise SystemExit(f"{workload} seed {seed}: checks failed")
                for name, metric in result["metrics"].items():
                    values[workload][name].append(metric["value"])
                print(f"set {index + 1} seed {seed} {workload}: "
                      + ", ".join(f"{name}={metric['value']:.6g}"
                                  for name, metric in result["metrics"].items()),
                      file=sys.stderr, flush=True)
        sets.append({"seeds": list(seeds),
                     "workloads": {workload: {name: summarize(series)
                                              for name, series in by_metric.items()}
                                   for workload, by_metric in values.items()}})

    report = {"run_seconds": declared["run_seconds"], "sets": sets, "verdict": {}}
    for workload in workloads:
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            stats = [one_set["workloads"][workload][name] for one_set in sets]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            worse = max((sign * (later["median"] - stats[0]["median"]) / stats[0]["median"]
                         for later in stats[1:]), default=0.0)
            spread = max(one_set["spread"] for one_set in stats)
            report["verdict"][f"{workload}/{name}"] = {
                "bound": bound, "max_spread": spread, "max_worsening": worse,
                "spread_ok": spread <= bound,
                "medians_ok": worse <= bound,
                "steady": spread <= bound / 3,
            }
    text = json.dumps(report, indent=2) + "\n"
    if args.out is not None:
        args.out.write_text(text)
    for key, verdict in report["verdict"].items():
        print(f"{key:45s} bound {verdict['bound']:.3f} spread {verdict['max_spread']:.4f} "
              f"worsening {verdict['max_worsening']:+.4f}"
              f"{'' if verdict['spread_ok'] and verdict['medians_ok'] else '  FAIL'}"
              f"{'' if verdict['steady'] else '  not steady'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
