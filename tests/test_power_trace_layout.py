"""Small-module coverage: trace entries, layout, data layout, reporting."""

import pytest

from repro.common.trace import TraceEntry, OP_CLASSES
from repro.common.layout import TEXT_BASE, DATA_BASE, STACK_TOP, WORD_BYTES
from repro.compiler.data_layout import DataLayout
from repro.frontend import compile_source
from repro.power.energy_model import EnergyParams, ModulePower, PowerReport


class TestTraceEntry:
    def test_is_control_classification(self):
        branch = TraceEntry(0, "branch", "BEZ")
        jump = TraceEntry(0, "jump", "J")
        alu = TraceEntry(0, "alu", "ADD")
        assert branch.is_control and jump.is_control
        assert branch.is_branch and not jump.is_branch
        assert not alu.is_control

    def test_none_sources_dropped(self):
        entry = TraceEntry(0, "alu", "ADD", srcs=(None, 3, None, 5))
        assert entry.srcs == (3, 5)

    def test_op_classes_closed_set(self):
        assert set(OP_CLASSES) >= {"alu", "load", "store", "branch", "jump"}

    def test_repr_contains_pc(self):
        entry = TraceEntry(0x1234, "alu", "ADD", dest=7)
        assert "0x1234" in repr(entry)


class TestLayoutConstants:
    def test_segments_disjoint_and_ordered(self):
        assert TEXT_BASE < DATA_BASE < STACK_TOP
        assert TEXT_BASE % WORD_BYTES == 0
        assert DATA_BASE % WORD_BYTES == 0
        assert STACK_TOP % WORD_BYTES == 0


class TestDataLayout:
    def test_addresses_are_contiguous(self):
        module = compile_source(
            "int a; int b[3]; int c = 9; int main() { return a + b[0] + c; }"
        )
        layout = DataLayout(module)
        assert layout.address_of("a") == DATA_BASE
        assert layout.address_of("b") == DATA_BASE + 4
        assert layout.address_of("c") == DATA_BASE + 16
        assert layout.size_words == 5

    def test_data_words_match_initializers(self):
        module = compile_source(
            "int a = 7; int b[3] = {1, 2}; int main() { return 0; }"
        )
        layout = DataLayout(module)
        assert layout.data_words() == [7, 1, 2, 0]


class TestPowerPlumbing:
    def test_voltage_scaling_monotone(self):
        params = EnergyParams()
        assert params.voltage(1.0) == 1.0
        assert params.voltage(4.0) > params.voltage(2.5) > params.voltage(1.0)

    def test_module_power_total(self):
        module = ModulePower("m", dynamic=2.0, leakage=0.5)
        assert module.total == 2.5

    def test_report_total_sums_modules(self):
        report = PowerReport(
            "core",
            1.0,
            {
                "rename": ModulePower("rename", 1.0, 0.1),
                "regfile": ModulePower("regfile", 2.0, 0.2),
                "other": ModulePower("other", 3.0, 0.3),
            },
        )
        assert report.total() == pytest.approx(6.6)
        assert "core" in repr(report)
