"""Sweep-orchestrator quickstart: parallel sweeps, caching, grid expansion.

Walks the full orchestrator surface in one sitting:

1. sweep a tag-filtered registry subset through
   :class:`~repro.orchestrator.SweepRunner` with a content-addressed
   :class:`~repro.orchestrator.ResultStore`;
2. re-run the same sweep to show every scenario coming back as a cache hit
   (zero simulations executed);
3. grid-expand one base scenario across methods and seeds with
   :func:`~repro.orchestrator.expand` and sweep the derived variants;
4. print the ``python -m repro`` CLI lines equivalent to each step.

Everything here is also reachable without writing Python::

    python -m repro list
    python -m repro sweep --tags failures -j 2
    python -m repro sweep nd-transient-mild --methods bsp antdt-nd --seeds 1 2
    python -m repro golden-update --check

Run with::

    python examples/sweep_cli.py
"""

import tempfile
from pathlib import Path

from repro.orchestrator import ResultStore, SweepRunner, expand
from repro.scenarios import all_scenarios, get_scenario


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="repro-sweep-") as cache_dir:
        store = ResultStore(Path(cache_dir) / "results.jsonl")

        # 1. Cold sweep: the "failures" grid, two worker processes.
        specs = all_scenarios(tags=("failures",), exclude_tags=("slow",))
        report = SweepRunner(jobs=2, store=store).run(specs)
        print("# python -m repro sweep --tags failures --exclude-tags slow -j 2")
        print(report.summary_table())
        print(report.stats_line())

        # 2. Warm sweep: same specs, same store -> pure cache hits.
        warm = SweepRunner(jobs=2, store=store).run(specs)
        print("\n# ...run it again: every scenario is a cache hit")
        print(warm.stats_line())
        assert warm.simulated == 0 and warm.hits == len(specs)

        # 3. Grid expansion: one base condition x methods x seeds.
        base = get_scenario("nd-transient-mild")
        variants = expand(base, methods=("bsp", "antdt-nd"), seeds=(1, 2, 3))
        grid = SweepRunner(jobs=2, store=store).run(variants)
        print("\n# python -m repro sweep nd-transient-mild "
              "--methods bsp antdt-nd --seeds 1 2 3 -j 2")
        print(grid.summary_table())
        print(grid.stats_line())

    print("\nGolden traces stay byte-identical between serial and parallel "
          "sweeps; verify any time with: python -m repro golden-update --check")


if __name__ == "__main__":
    main()
