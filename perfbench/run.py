"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload full_grid --seed 1 --seconds 10 --trace 0

Workloads: ``full_grid`` and ``sampled_large`` (sims.py) and ``serve_mix``
(serve_mix.py).  Progress and failed checks go to stderr.  The last stdout
line is one JSON object, ``{"correct", "attempted", "failed", "metrics"}``,
holding the end-to-end metrics (``--trace 0``) or, from a separate traced
run, the per-layer ones (``--trace 1``).  Run it from a repository
checkout: it imports ``src/repro`` and exits with status 2 without it.
"""

import argparse
import json
import os
import sys

import common

WORKLOADS = ("full_grid", "sampled_large", "serve_mix")


def main(argv=None):
    parser = argparse.ArgumentParser(description="The repository benchmark.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(common.SRC, "repro")):
        common.log(f"{common.SRC}/repro not found: run from a repository "
                   "checkout")
        return 2
    sys.path.insert(0, common.SRC)
    # Every run starts from the same state: no persistent cache or fast-path
    # switch inherited from the environment.
    for variable in ("STRAIGHT_CACHE_DIR", "STRAIGHT_FASTPATH"):
        os.environ.pop(variable, None)
    workdir = os.path.join(common.ROOT, ".perfbench")
    os.makedirs(workdir, exist_ok=True)
    if args.workload == "serve_mix":
        import serve_mix as workload
    else:
        import sims as workload
    traced = bool(args.trace)
    tally, values = workload.run(args.workload, args.seed, args.seconds,
                                 traced, workdir)
    print(json.dumps(common.result_line(tally, values, traced)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
