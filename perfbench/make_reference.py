"""Regenerate reference.json: ``python3 perfbench/make_reference.py``.

The file pins what the benchmark compares simulated results against,
stamped with the toolchain tag and cache schema version it was made with:

* ``full_grid``: the SimStats digest, cycles and instructions of every cell
  at the default iteration counts (the inputs of seed 0);
* ``sampled_large``: every cell's IPC from a full ``simulate()`` of the same
  binary and core, which ``sampling.ipc_err_pct`` is taken against.

Regenerate it when a change to the toolchain or the timing model is meant
to change simulated results; run.py reports a reference with another stamp
as stale instead of comparing.  Each full run holds its whole trace in
memory (a few hundred MB for a sampled_large cell), one cell at a time.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import repro.core.api as api  # noqa: E402
from repro.harness import cache as cache_mod  # noqa: E402

import sims  # noqa: E402


def main():
    reference = {"toolchain_tag": cache_mod.TOOLCHAIN_TAG,
                 "schema_version": cache_mod.SCHEMA_VERSION}
    for workload in ("full_grid", "sampled_large"):
        iterations = sims.iterations_for(workload, 0)
        inputs = sims.setup(iterations)
        cells = {}
        for cell in sims.grid(workload):
            built, _expected = inputs[cell.program]
            stats = api.simulate(built.all()[cell.label], cell.make_config(),
                                 warm_caches=True).stats
            entry = {"program": cell.program, "cycles": stats.cycles,
                     "instructions": stats.instructions}
            if workload == "full_grid":
                entry["digest"] = sims.stats_digest(stats)
            else:
                entry["full_ipc"] = stats.ipc
            cells[cell.id] = entry
            print(f"{workload} {cell.id}: {entry}", file=sys.stderr,
                  flush=True)
        reference[workload] = {"iterations": iterations, "cells": cells}
    with open(sims.REFERENCE, "w") as handle:
        json.dump(reference, handle, indent=2, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
