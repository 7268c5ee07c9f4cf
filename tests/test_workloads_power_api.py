"""Workload validation, power model, top-level API, and config tests."""

from types import SimpleNamespace

import pytest

from repro.common.errors import SimulationError
from repro.core import build, simulate, run_functional
from repro.core.configs import (
    ss_2way,
    straight_2way,
    ss_4way,
    straight_4way,
    TABLE1,
    table1_rows,
)
from repro.power import analyze_power, EnergyParams
from repro.uarch.core import SimStats
from repro.workloads import WORKLOADS, get_workload, build_workload
from repro.workloads.common import Workload


class TestWorkloads:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_cross_isa_validation(self, name):
        # build_workload raises if the three binaries' outputs diverge.
        result = build_workload(name)
        assert result.riscv.isa == "riscv"
        assert result.straight_re.isa == "straight"

    def test_iterations_scale_work(self):
        wl = get_workload("dhrystone")
        small = run_functional(wl.build(iterations=5).riscv)
        large = run_functional(wl.build(iterations=10).riscv)
        assert large.run_result.steps > small.run_result.steps * 1.5

    def test_coremark_keeps_more_values_alive(self):
        """The paper's explanation for CoreMark's larger RMOV overhead:
        more live values across control flow than Dhrystone (§VI-A)."""
        ratios = {}
        for name in ("dhrystone", "coremark"):
            result = build_workload(name)
            ss = run_functional(result.riscv).run_result.steps
            raw = run_functional(result.straight_raw).run_result.steps
            ratios[name] = raw / ss
        assert ratios["coremark"] > ratios["dhrystone"]

    def test_re_plus_shrinks_code(self):
        result = build_workload("coremark")
        raw = run_functional(result.straight_raw).run_result.steps
        re_plus = run_functional(result.straight_re).run_result.steps
        assert re_plus < raw

    def test_unknown_workload(self):
        with pytest.raises(KeyError):
            get_workload("specint")

    def test_cross_validation_names_a_diverging_binary(self, monkeypatch):
        from repro.workloads import common as workloads_common

        source = "int main() { __out(7); return 0; }"
        workload = Workload("tiny", SimpleNamespace(source=lambda _n: source),
                            default_iterations=1)
        built = []
        runs = []
        diverging = set()

        def spy_build(*args, **kwargs):
            built.append(build(*args, **kwargs))
            return built[-1]

        def spy_run(binary):
            runs.append(binary)
            output = run_functional(binary).output
            if binary is built[-1].straight_re and "RE+" in diverging:
                output = output + [0]
            return SimpleNamespace(output=output)

        monkeypatch.setattr(workloads_common, "build", spy_build)
        monkeypatch.setattr(workloads_common, "run_functional", spy_run)

        # A clean build runs each of its four binaries once.
        result = workload.build()
        assert sorted(map(id, runs)) == sorted(map(id, result.all().values()))

        runs.clear()
        diverging.add("RE+")
        with pytest.raises(SimulationError, match=r"tiny: STRAIGHT-RE\+ output"):
            workload.build()
        assert [b is built[-1].riscv for b in runs].count(True) == 1


class TestConfigs:
    def test_table1_matches_paper_headline_numbers(self):
        rows = {r["Model"]: r for r in table1_rows()}
        assert rows["SS-4way"]["ROB Capacity"] == 224
        assert rows["STRAIGHT-4way"]["Register File"] == 256
        assert rows["SS-2way"]["Register File"] == 96
        assert rows["STRAIGHT-2way"]["LSQ"] == "LD 48 / ST 48"
        assert rows["SS-4way"]["Front-end latency"] == 8
        assert rows["STRAIGHT-4way"]["Front-end latency"] == 6

    def test_max_rp_equals_register_file(self):
        """MAX_RP = max distance + ROB entries (paper §III-B)."""
        for factory in (straight_2way, straight_4way):
            config = factory()
            assert config.max_distance + config.rob_entries <= config.phys_regs

    def test_copy_overrides(self):
        config = ss_2way(predictor="tage")
        assert config.predictor == "tage"
        assert ss_2way().predictor == "gshare"

    def test_copy_rejects_unknown_field(self):
        with pytest.raises(AttributeError):
            ss_2way(warp_drive=True)

    def test_registry_complete(self):
        assert set(TABLE1) == {
            "SS-2way",
            "STRAIGHT-2way",
            "SS-4way",
            "STRAIGHT-4way",
        }


class TestPowerModel:
    def _fake_stats(self, is_straight):
        stats = SimStats()
        stats.cycles = 1000
        stats.instructions = 1500
        stats.regfile_reads = 2500
        stats.regfile_writes = 1400
        stats.iq_wakeups = 2000
        stats.rob_writes = 1500
        stats.alu_ops = 1200
        if is_straight:
            stats.opdet_ops = 2500
        else:
            stats.rename_src_reads = 4000
            stats.rename_writes = 1400
        return stats

    def test_rename_power_mostly_removed(self):
        ss = analyze_power(self._fake_stats(False), is_straight=False)
        st = analyze_power(self._fake_stats(True), is_straight=True)
        ratio = st.modules["rename"].total / ss.modules["rename"].total
        assert ratio < 0.1  # "the power corresponding register renaming is
        # almost removed in STRAIGHT" (§VI-C)

    def test_power_grows_superlinearly_with_frequency(self):
        stats = self._fake_stats(False)
        p1 = analyze_power(stats, False, rel_frequency=1.0).total()
        p25 = analyze_power(stats, False, rel_frequency=2.5).total()
        p4 = analyze_power(stats, False, rel_frequency=4.0).total()
        assert p25 > 2.5 * p1  # V(f)^2 scaling
        assert p4 > 4.0 * p1

    def test_backend_modules_identical_energy_constants(self):
        """Register file & exec energies are shared hardware; with equal
        event counts the powers must be equal across architectures."""
        ss = analyze_power(self._fake_stats(False), is_straight=False)
        st_stats = self._fake_stats(True)
        st = analyze_power(st_stats, is_straight=True)
        assert st.modules["regfile"].total == ss.modules["regfile"].total

    def test_custom_params(self):
        params = EnergyParams(rmt_read=100.0)
        report = analyze_power(self._fake_stats(False), False, params=params)
        default = analyze_power(self._fake_stats(False), False)
        assert report.modules["rename"].total > default.modules["rename"].total


class TestTopLevelApi:
    def test_build_produces_one_binary_per_registered_label(self, small_build):
        from repro import isa as isa_registry

        labels = set(small_build.all())
        expected = {
            label
            for descriptor in isa_registry.descriptors()
            for label in descriptor.binary_labels
        }
        assert labels == expected == {"SS", "STRAIGHT-RAW", "STRAIGHT-RE+",
                                      "BB"}

    def test_simulate_returns_consistent_result(self, small_build):
        result = simulate(small_build.straight_re, straight_2way())
        assert result.output == [39, 55, 15]
        assert result.cycles == result.stats.cycles
        assert result.ipc == result.stats.ipc

    def test_functional_run_limit_raises(self, small_build):
        from repro.common.errors import SimulationError

        with pytest.raises(SimulationError, match="did not finish"):
            run_functional(small_build.riscv, max_steps=10)

    def test_stats_dict_roundtrip(self, small_build):
        result = simulate(small_build.riscv, ss_2way())
        data = result.stats.as_dict()
        assert data["instructions"] == result.stats.instructions
        assert "ipc" in data and "cache" in data
