"""Measure the serve_mix request mix's capacity on this host.

    python3 perfbench/calibrate_serve.py --rates 10,20,30,40,60 --seconds 20

Runs the serve_mix open loop (one set-up each) at every rate in turn and
prints its median and tail latency, how late the generator sent, and the
requests that failed.  The capacity is the highest rate at which nothing
failed, the generator kept to its schedule (p99 lateness under
``LATE_LIMIT_MS``) and the median latency stayed within twice its value at
the lowest rate.  ``serve_mix.RATE_PER_S`` is set to about half of it.
"""

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import common  # noqa: E402
import serve_mix  # noqa: E402

LATE_LIMIT_MS = 5.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rates", default="10,20,30,40,60")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    workdir = os.path.join(common.ROOT, ".perfbench")
    os.makedirs(workdir, exist_ok=True)
    base_p50 = None
    capacity = None
    for rate in sorted(float(text) for text in args.rates.split(",")):
        requests, tally, outcome, _setups = serve_mix.open_loop(
            args.seed, args.seconds, workdir, rate, setup_repeats=1)
        latencies = outcome.latencies_ms()
        p50 = common.median(latencies)
        tail_ms, tail_pct, _samples = common.tail(latencies)
        late_ms = common.percentile(outcome.late_ms, 0.99)
        base_p50 = base_p50 or p50
        kept_up = (tally.failed == 0 and late_ms < LATE_LIMIT_MS
                   and p50 <= 2 * base_p50)
        print(f"rate {rate:g}/s: {len(requests)} requests, {tally.failed} "
              f"failed; p50 {p50:.1f} ms, p{tail_pct:.1f} {tail_ms:.1f} ms; "
              f"sends late by {late_ms:.2f} ms at p99"
              f"{'' if kept_up else '  (over capacity)'}", flush=True)
        if not kept_up:
            break
        capacity = rate
    print(f"capacity: {capacity}/s" if capacity else
          "capacity: below the lowest rate tried")


if __name__ == "__main__":
    main()
