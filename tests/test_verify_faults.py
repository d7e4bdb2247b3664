"""Fault-injection contracts for the contender protocol models.

The no-silent-divergence contract, applied to the seams the contenders
add: the hybrid model's UPDATE push (drop it -> a stale-but-readable S
copy that only the per-step update-coherence check can see; duplicate
it -> idempotent) and the DLS model's LLC eviction handler (an
adversarial conflict storm kills every entry-bearing line of a set and
must still be absorbed correctly).
"""

from __future__ import annotations

import pytest

from repro.common.errors import ConfigError
from repro.verify import (TraceGenerator, model_by_name, run_campaign,
                          run_trace)
from repro.verify.faults import FaultKind, FaultPlan, arm_fault
from repro.verify.models import micro_config
from repro.verify.tracegen import TraceGeometry


def traces(seed=3, count=10):
    gen = TraceGenerator(TraceGeometry.of(micro_config()), seed)
    return [gen.trace(i) for i in range(count)]


class TestHybridUpdateFaults:
    def test_dropped_update_trips_per_step_check(self):
        """A lost UPDATE leaves a sharer stale; reads would silently
        consume it, so check_hybrid must catch it at a checkpoint."""
        spec = model_by_name("hybrid")
        fault = FaultPlan(FaultKind.DROP_UPDATE)
        fired = detected = 0
        for trace in traces():
            outcome = run_trace(spec, trace, fault=fault)
            if not outcome.fault_fired:
                assert outcome.ok, outcome
                continue
            fired += 1
            if not outcome.ok:
                detected += 1
                assert outcome.error_type == "DivergenceError"
                assert "stale" in outcome.error
        assert fired > 0, "drop-update never reached its seam"
        assert detected == fired, "a dropped update went unnoticed"

    def test_dropped_update_campaign_contract(self):
        report = run_campaign(seed=3, budget=5, jobs=1, shrink=False,
                              fault=FaultPlan(FaultKind.DROP_UPDATE))
        assert report.fault_fired_runs > 0, report.summary()
        assert report.ok, report.summary()
        assert report.fault_detected_runs == report.fault_fired_runs

    def test_duplicated_update_is_graceful(self):
        """Delivering the same version twice is idempotent: the run must
        stay correct end to end."""
        report = run_campaign(seed=3, budget=5, jobs=1, shrink=False,
                              fault=FaultPlan(FaultKind.DUP_UPDATE))
        assert report.fault_fired_runs > 0, report.summary()
        assert report.ok, report.summary()


class TestDLSConflictStorm:
    def test_storm_is_absorbed(self):
        """Evicting every other line of the victim's set exercises the
        DLS worst case (each dying line back-invalidates its sharers);
        the cost is inclusion victims, never wrong values."""
        spec = model_by_name("dls")
        fault = FaultPlan(FaultKind.LLC_CONFLICT_STORM)
        fired = 0
        for trace in traces():
            outcome = run_trace(spec, trace, fault=fault)
            assert outcome.ok, outcome
            fired += outcome.fault_fired
        assert fired > 0, "the storm never reached an LLC eviction"

    def test_storm_campaign_contract(self):
        report = run_campaign(
            seed=3, budget=5, jobs=1, shrink=False,
            fault=FaultPlan(FaultKind.LLC_CONFLICT_STORM))
        assert report.fault_fired_runs > 0, report.summary()
        assert report.ok, report.summary()


class TestApplicability:
    """Contender faults are gated to the models that own the seam."""

    @pytest.mark.parametrize("kind", [FaultKind.DROP_UPDATE,
                                      FaultKind.DUP_UPDATE,
                                      FaultKind.LLC_CONFLICT_STORM],
                             ids=lambda k: k.value)
    def test_baseline_has_no_seam(self, kind):
        system = model_by_name("baseline-1x").build()
        with pytest.raises(ConfigError):
            arm_fault(system, FaultPlan(kind))

    def test_update_faults_need_hybrid_not_dls(self):
        with pytest.raises(ConfigError):
            arm_fault(model_by_name("dls").build(),
                      FaultPlan(FaultKind.DROP_UPDATE))

    def test_storm_needs_dls_not_hybrid(self):
        with pytest.raises(ConfigError):
            arm_fault(model_by_name("hybrid").build(),
                      FaultPlan(FaultKind.LLC_CONFLICT_STORM))
