"""Fault-injection tests: single-fault detection paths plus the full seeded
campaign the acceptance criterion specifies (>=100 faults, >=90% detected,
zero silent escapes)."""

import pytest

from repro.common.errors import GuardrailError, ReproError
from repro.core.api import build
from repro.core.configs import straight_2way
from repro.guardrails import build_guardrails
from repro.guardrails.faultinject import (
    DEFAULT_CAMPAIGN_SOURCE,
    DEFAULT_MIX,
    CampaignReport,
    FaultSpec,
    TimingFaultInjector,
    run_campaign,
    run_functional_with_fault,
)


@pytest.fixture(scope="module")
def campaign_binary():
    return build(DEFAULT_CAMPAIGN_SOURCE).straight_re


class TestFaultSpec:
    def test_functional_targets(self):
        assert FaultSpec("regfile", step=10).is_functional()
        assert FaultSpec("written_seq", step=10).is_functional()
        assert not FaultSpec("rob_seq", cycle=10).is_functional()

    def test_as_dict_is_json_shaped(self):
        spec = FaultSpec("predictor", cycle=5, bit=3, index=17)
        payload = spec.as_dict()
        assert payload == {"target": "predictor", "step": None, "cycle": 5,
                           "bit": 3, "index": 17}


class TestSingleFaults:
    def _trace_for(self, binary, spec=None, max_steps=2_000_000):
        if spec is None:
            # Lockstep compares committed results: record them.
            interp = binary.interpreter(collect_trace=True, trace_values=True)
            assert interp.run(max_steps).status == "halt"
            return interp
        interp, status, event = run_functional_with_fault(
            binary, spec, max_steps=max_steps
        )
        assert event is not None, "fault never injected"
        return interp

    def test_regfile_flip_caught_by_lockstep(self, campaign_binary):
        """A live register-value flip diverges from the golden machine."""
        interp = self._trace_for(campaign_binary,
                                 FaultSpec("regfile", step=400, bit=5))
        config = straight_2way(guardrails=True)
        suite = build_guardrails(config, binary=campaign_binary)
        from repro.uarch.core import OoOCore

        with pytest.raises((GuardrailError, ReproError)):
            OoOCore(config, guardrails=suite).run(interp.trace)
            suite.finish(interp.output)

    def test_written_seq_flip_caught_by_distance_validation(
            self, campaign_binary):
        """Corrupt RP bookkeeping trips the ISS's stale-operand check."""
        with pytest.raises(ReproError):
            interp, status, event = run_functional_with_fault(
                campaign_binary, FaultSpec("written_seq", step=400, bit=3)
            )
            assert status == "halt"
            config = straight_2way(guardrails=True)
            suite = build_guardrails(config, binary=campaign_binary)
            from repro.uarch.core import OoOCore

            OoOCore(config, guardrails=suite).run(interp.trace)
            suite.finish(interp.output)

    def test_predictor_flip_caught_by_state_sweep(self, campaign_binary):
        interp = self._trace_for(campaign_binary)
        config = straight_2way(guardrails=True, predictor_check_interval=256)
        suite = build_guardrails(
            config, binary=campaign_binary,
            injector=TimingFaultInjector(
                FaultSpec("predictor", cycle=100, bit=1, index=9)
            ),
        )
        from repro.uarch.core import OoOCore

        with pytest.raises(GuardrailError, match="counter"):
            OoOCore(config, guardrails=suite).run(interp.trace)
            suite.finish(interp.output)

    def test_rob_seq_flip_caught(self, campaign_binary):
        interp = self._trace_for(campaign_binary)
        config = straight_2way(guardrails=True, deep_check_interval=8)
        suite = build_guardrails(
            config, binary=campaign_binary,
            injector=TimingFaultInjector(FaultSpec("rob_seq", cycle=200,
                                                   bit=2), seed=1),
        )
        from repro.uarch.core import OoOCore

        with pytest.raises((GuardrailError, KeyError, IndexError)):
            OoOCore(config, guardrails=suite).run(interp.trace)
            suite.finish(interp.output)


class TestCampaign:
    def test_acceptance_campaign(self):
        """>=100 seeded faults: >=90% detected, zero silent escapes."""
        report = run_campaign(n_faults=100, seed=20260805)
        assert report.total == 100
        assert report.escaped_silent == 0, report.text()
        assert report.detection_rate >= 0.90, report.text()
        # Every configured fault class was actually exercised.
        assert set(report.by_target) == {name for name, _ in DEFAULT_MIX}

    def test_report_shape(self):
        records = [
            {"target": "regfile", "outcome": "detected"},
            {"target": "regfile", "outcome": "escaped_benign"},
            {"target": "rob_seq", "outcome": "escaped_silent"},
        ]
        report = CampaignReport(7, records)
        assert report.detected == 1
        assert report.escaped_benign == 1
        assert report.escaped_silent == 1
        assert report.detection_rate == pytest.approx(1 / 3)
        # Silent escapes count against harmful detection, benign ones do not.
        assert report.harmful_detection_rate == pytest.approx(1 / 2)
        payload = report.as_dict()
        assert payload["by_target"]["rob_seq"]["escaped_silent"] == 1
        assert "SILENT" in report.text()
