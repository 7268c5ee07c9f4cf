"""Reproduce every table and figure of the paper in one run.

Run:  python examples/reproduce_paper.py            # everything (~2-3 min)
      python examples/reproduce_paper.py fig11 fig16  # a subset

Options:
      --jobs N        fan the simulation grid over N worker processes
      --no-cache      ignore AND wipe the persistent result/artifact cache
      --cache-dir D   cache root (default $STRAIGHT_CACHE_DIR or
                      ~/.cache/straight-repro); a warm cache regenerates
                      every figure in seconds

Prints each experiment's series in paper order; the same runners back the
pytest-benchmark suite under benchmarks/.
"""

import argparse
import sys
import time

from repro.harness import ALL_EXPERIMENTS
from repro.harness import cache as cache_mod
from repro.harness.experiments import grid_tasks
from repro.harness.runner import clear_cache
from repro.harness.sweep import ensure_results

ORDER = [
    "table1",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "sensitivity_maxdist",
    "fig17",
]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*",
                        help=f"experiments to regenerate (default: {ORDER})")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes for the sweep (default: CPUs)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable and wipe the persistent cache")
    parser.add_argument("--cache-dir", default=None,
                        help="persistent cache root")
    return parser.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    names = args.names or ORDER
    for name in names:
        if name not in ALL_EXPERIMENTS:
            print(f"unknown experiment {name!r}; choose from {ORDER}")
            return 1

    cache_mod.configure(args.cache_dir, enabled=not args.no_cache)
    if args.no_cache:
        clear_cache(disk=True)

    total_start = time.time()
    # Resolve the whole grid up front: one sweep fans every needed
    # (workload, binary, config) point across the pool / the persistent
    # cache; the per-figure runners below are then served from memory.
    tasks = grid_tasks(names)
    if tasks:
        print(f"sweeping {len(tasks)} grid points "
              f"(jobs={args.jobs or 'auto'}, cache="
              f"{'off' if args.no_cache else cache_mod.cache_root()}) ...")
        ensure_results(tasks, jobs=args.jobs)
        report = cache_mod.cache_report()
        hits = report["results"]["hits"]
        misses = report["results"]["misses"]
        print(f"grid ready in {time.time() - total_start:.1f}s "
              f"(result cache: {hits} hits, {misses} misses)")

    for name in names:
        start = time.time()
        result = ALL_EXPERIMENTS[name]()
        print()
        print(result["text"])
        print(f"[{name} regenerated in {time.time() - start:.1f}s]")
    print(f"\nTotal: {time.time() - total_start:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
