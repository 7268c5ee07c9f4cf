"""SMARTS-style sampled simulation: accuracy, determinism, plumbing.

The headline guarantee lives in ``TestErrorBound``: sampled IPC lands
within 2% of the committed full-simulation golden fixtures
(``tests/fixtures/sampled_golden.json``) on the dhrystone x ISA grid, with
the schedule the bench scorecard gates on.  The rest pins the mechanics —
seeded reproducibility, the short-program fallback, segment-relative
trace numbering, stats round-tripping and sweep cache-key separation.
"""

import json
import os

import pytest

from repro.core.configs import ALL_CORES, ss_2way
from repro.harness.bench import FASTPATH_ACCURACY_PARAMS
from repro.harness.sampling import (
    SampledRunner,
    SamplingParams,
    simulate_sampled,
)
from repro.uarch.stats import SimStats
from repro.workloads import build_workload

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures",
                       "sampled_golden.json")


@pytest.fixture(scope="module")
def golden():
    with open(FIXTURE) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def golden_binaries(golden):
    return build_workload(golden["workload"],
                          iterations=golden["iterations"]).all()


def _accuracy_params(seed=0):
    return SamplingParams(seed=seed, **FASTPATH_ACCURACY_PARAMS)


class TestErrorBound:
    def test_fixture_matches_a_fresh_full_simulation(self, golden,
                                                     golden_binaries):
        # Guard against fixture rot: re-run the cheapest cell for real.
        from repro.core.api import simulate

        cell = golden["cells"][0]
        result = simulate(golden_binaries[cell["binary"]],
                          ALL_CORES[cell["config"]](), warm_caches=True)
        assert result.stats.cycles == cell["cycles"]
        assert result.stats.instructions == cell["instructions"]
        assert result.output == cell["output"]

    def test_sampled_ipc_within_two_percent_of_golden(self, golden,
                                                      golden_binaries):
        for cell in golden["cells"]:
            sampled = simulate_sampled(
                golden_binaries[cell["binary"]], ALL_CORES[cell["config"]](),
                _accuracy_params(), warm_caches=True,
            )
            meta = sampled.stats.sampling
            assert meta["mode"] == "sampled", cell["config"]
            ipc = sampled.stats.instructions / sampled.stats.cycles
            err = abs(ipc / cell["ipc"] - 1)
            assert err <= 0.02, (cell["config"], err, meta["windows"])
            # Error bars ride along in SimStats, as the scorecard requires.
            assert meta["ipc_ci95"] is not None
            assert meta["buckets"]
            # The functional side is exact regardless of the schedule.
            assert sampled.output == cell["output"]
            assert sampled.stats.instructions == cell["instructions"]

    def test_sampled_counters_track_the_full_run(self, golden,
                                                 golden_binaries):
        # Extrapolated event counters stay in the right ballpark (they are
        # estimates, not gated at 2% like IPC): loads/stores within 5%.
        from repro.core.api import simulate

        cell = golden["cells"][0]
        config = ALL_CORES[cell["config"]]()
        full = simulate(golden_binaries[cell["binary"]], config,
                        warm_caches=True)
        sampled = simulate_sampled(golden_binaries[cell["binary"]], config,
                                   _accuracy_params(), warm_caches=True)
        for field in ("loads", "stores", "alu_ops"):
            estimate = getattr(sampled.stats, field)
            exact = getattr(full.stats, field)
            assert abs(estimate / exact - 1) <= 0.05, field


class TestDeterminism:
    def test_same_seed_reproduces_the_sampling_dict(self, golden_binaries):
        runs = [
            simulate_sampled(golden_binaries["SS"], ss_2way(),
                             _accuracy_params(seed=7), warm_caches=True)
            for _ in range(2)
        ]
        assert (runs[0].stats.sampling == runs[1].stats.sampling)
        assert runs[0].stats.cycles == runs[1].stats.cycles

    def test_seed_lands_in_the_report(self, golden_binaries):
        sampled = simulate_sampled(golden_binaries["SS"], ss_2way(),
                                   _accuracy_params(seed=13),
                                   warm_caches=True)
        assert sampled.stats.sampling["params"]["seed"] == 13


class TestFallback:
    def test_short_program_falls_back_to_full_simulation(self, small_build):
        # SMALL_PROGRAM retires far fewer instructions than min_windows
        # periods: the runner must return the exact full result, flagged.
        binary = small_build.all()["SS"]
        sampled = simulate_sampled(binary, ss_2way(),
                                   SamplingParams(period=100_000),
                                   warm_caches=True)
        meta = sampled.stats.sampling
        assert meta["mode"] == "full-fallback"
        from repro.core.api import simulate

        full = simulate(binary, ss_2way(), warm_caches=True)
        assert sampled.stats.cycles == full.stats.cycles
        assert sampled.output == full.output


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            SamplingParams(window=0)
        with pytest.raises(ValueError):
            SamplingParams(warmup=-1)
        with pytest.raises(ValueError):
            SamplingParams(period=100, window=90, warmup=20, cooldown=0)

    def test_dict_round_trip(self):
        params = SamplingParams(period=5000, window=700, warmup=250,
                                cooldown=100, seed=3, min_windows=4,
                                functional_warming=False)
        clone = SamplingParams.from_dict(params.as_dict())
        assert clone.as_dict() == params.as_dict()

    def test_stats_sampling_survives_serialization(self):
        stats = SimStats()
        stats.cycles = 100
        stats.instructions = 250
        stats.sampling = {"mode": "sampled", "windows": 9,
                          "params": SamplingParams().as_dict()}
        clone = SimStats.from_dict(stats.as_dict())
        assert clone.sampling == stats.sampling


class TestSegmentTrace:
    def test_segment_tags_are_trace_relative(self, golden_binaries):
        """A mid-run segment numbers its instructions from 0, so STRAIGHT
        producer tags (position − distance) need no rebasing: producers
        from before the segment come out negative — long retired."""
        from repro.uarch.core import OoOCore

        interp = golden_binaries["STRAIGHT-RE+"].interpreter()
        interp.run(max_steps=1000)
        interp.begin_trace()
        interp.run(max_steps=40)
        segment = interp.trace
        assert len(segment) == 40 and segment.base_seq == 1000
        # Views keep the interpreter's global numbering...
        assert [e.dest for e in segment] == list(range(1000, 1040))
        # ...while the engine's tags are segment positions.
        core = OoOCore(ALL_CORES["STRAIGHT-2way"]())
        ops = segment.table.ops
        tags = [core.frontend.rename(ops[index], seq, 0)
                for seq, index in enumerate(segment.idx)]
        for mine, entry in zip(tags, segment):
            assert list(mine) == [src - 1000 for src in entry.srcs]
        assert any(tag < 0 for some in tags for tag in some)  # pre-segment
        assert core.run(segment).instructions == 40


class TestWarmingToggle:
    def test_functional_warming_off_still_samples(self, golden_binaries):
        params = SamplingParams(seed=0, functional_warming=False,
                                **FASTPATH_ACCURACY_PARAMS)
        sampled = simulate_sampled(golden_binaries["SS"], ss_2way(), params,
                                   warm_caches=True)
        meta = sampled.stats.sampling
        assert meta["mode"] == "sampled"
        assert meta["params"]["functional_warming"] is False

    def test_bb_frontend_skips_the_warmer(self, golden_binaries):
        # BB resolves control flow itself; the runner must not train a
        # predictor it never consults.
        runner = SampledRunner(golden_binaries["BB"], ALL_CORES["BB-2way"](),
                               _accuracy_params())
        result = runner.run(warm_caches=True)
        assert result.stats.sampling["mode"] == "sampled"
        assert result.stats.predictor_accuracy in (None, 0, 0.0, 1.0)


class TestSweepIntegration:
    def test_sampling_separates_the_result_cache_key(self, golden_binaries):
        from repro.harness.sweep import SweepTask, result_key

        binary = golden_binaries["SS"]
        plain = result_key(
            SweepTask("t", "dhrystone", binary_label="SS", config=ss_2way()),
            binary)
        sampled = result_key(
            SweepTask("t", "dhrystone", binary_label="SS", config=ss_2way(),
                      sampling=SamplingParams().as_dict()),
            binary)
        assert "sampling" not in plain  # pre-existing entries keep their key
        assert sampled["sampling"] == SamplingParams().as_dict()
        assert plain != sampled

    def test_task_checkpoint_key_records_the_schedule(self):
        from repro.harness.sweep import SweepTask

        params = SamplingParams().as_dict()
        sampled = SweepTask("t", "dhrystone", binary_label="SS",
                            config=ss_2way(), sampling=params)
        plain = SweepTask("t", "dhrystone", binary_label="SS",
                          config=ss_2way())
        again = SweepTask("t", "dhrystone", binary_label="SS",
                          config=ss_2way(), sampling=dict(params))
        assert sampled.sampling == params
        assert plain.sampling is None
        assert sampled.checkpoint_key() != plain.checkpoint_key()
        assert sampled.checkpoint_key() == again.checkpoint_key()

    def test_attribution_plus_sampling_is_rejected(self):
        from repro.harness.sweep import SweepTask, execute_task

        task = SweepTask("t3", "dhrystone", binary_label="SS",
                         config=ss_2way(), attribution=True,
                         sampling=SamplingParams().as_dict())
        with pytest.raises(ValueError):
            execute_task(task)
