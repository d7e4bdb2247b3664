"""The differential verification engine (``repro.verify``).

Covers the four pillars of the subsystem:

* seeded adversarial trace generation (deterministic, npz round-trip);
* the oracle driving every model in the matrix with per-step invariant
  checking, the zero-DEV witness, and the final read-back;
* fuzz campaigns that are reproducible at any worker count;
* fault injection -- every *detectable* fault is caught and shrinks to
  a tiny replayable reproducer, every *graceful* fault is absorbed --
  plus the storage-layer sibling (corrupted result-cache pickles are
  recomputed, never served).
"""

from __future__ import annotations

import functools
import gc

import pytest

from repro.common.errors import ConfigError
from repro.harness.campaign import CampaignPolicy
from repro.verify import (FuzzTrace, TraceGenerator, emit_regression,
                          model_by_name, model_matrix, run_campaign,
                          run_trace, shrink_trace)
from repro.verify.faults import (DETECTABLE, FaultKind, FaultPlan,
                                 arm_fault, corrupt_cache_files)
from repro.verify.models import micro_config
from repro.verify.tracegen import PATTERNS, TraceGeometry

from tests.conftest import collector


def generator(seed=1, steps=48):
    return TraceGenerator(TraceGeometry.of(micro_config()), seed,
                          steps_per_trace=steps)


class TestTraceGeneration:
    def test_deterministic_per_seed_and_index(self):
        assert generator().trace(3).steps == generator().trace(3).steps
        assert generator(1).trace(0).steps != generator(2).trace(0).steps

    def test_patterns_rotate(self):
        gen = generator()
        assert [gen.trace(i).pattern
                for i in range(len(PATTERNS))] == list(PATTERNS)

    def test_steps_address_configured_cores(self):
        trace = generator().trace(4)
        assert len(trace) == 48
        assert all(0 <= core < trace.n_cores
                   for core, _op, _block in trace.steps)

    def test_npz_round_trip(self, tmp_path):
        trace = generator().trace(1)
        path = tmp_path / "t.npz"
        trace.save(path)
        loaded = FuzzTrace.load(path)
        assert loaded.steps == trace.steps
        assert (loaded.name, loaded.pattern, loaded.n_cores,
                loaded.seed) == (trace.name, trace.pattern,
                                 trace.n_cores, trace.seed)

    def test_conflict_storm_targets_few_sets(self):
        trace = generator().trace(0)          # index 0 = conflict-storm
        geom = TraceGeometry.of(micro_config())
        targets = {(b & (geom.llc_banks - 1),
                    (b >> 1) & (geom.bank_sets - 1))
                   for _c, _o, b in trace.steps}
        assert len(targets) <= 2


class TestModelMatrix:
    def test_names_unique_and_baseline_first(self):
        matrix = model_matrix()
        names = [spec.name for spec in matrix]
        assert len(set(names)) == len(names)
        assert names[0] == "baseline-1x"
        assert sum(spec.n_sockets == 2 for spec in matrix) == 3

    def test_unknown_model_is_config_error(self):
        with pytest.raises(ConfigError, match="unknown model"):
            model_by_name("zerodev-imaginary")

    def test_contenders_in_matrix(self):
        names = [spec.name for spec in model_matrix()]
        assert "dls" in names and "hybrid" in names
        assert len(names) == 16

    def test_lookup_is_memoized(self, monkeypatch):
        # Campaigns resolve models per item; repeated lookups must not
        # reconstruct the matrix (every rebuild re-validates 16 configs).
        import repro.verify.models as models

        builds = {"count": 0}
        real = models.model_matrix

        def counting():
            builds["count"] += 1
            return real()

        monkeypatch.setattr(models, "model_matrix", counting)
        models._specs_by_name.cache_clear()
        try:
            first = models.model_by_name("dls")
            for name in ("dls", "hybrid", "baseline-1x"):
                assert models.model_by_name(name) is not None
            assert models.model_by_name("dls") is first
            assert builds["count"] == 1
        finally:
            models._specs_by_name.cache_clear()

    def test_two_socket_core_mapping_interleaves(self):
        spec = model_by_name("zerodev-2socket-sol1")
        assert [spec.map_core(c) for c in range(4)] == [
            (0, 0), (1, 0), (0, 1), (1, 1)]

    @pytest.mark.parametrize("spec", model_matrix(),
                             ids=lambda s: s.name)
    def test_every_model_survives_one_trace(self, spec):
        outcome = run_trace(spec, generator(seed=5).trace(3))
        assert outcome.ok, str(outcome)
        if spec.is_zerodev:
            assert outcome.dev_invalidations == 0
        # The model checker expands a level with the cyclic collector
        # off, so every successor it discards must be freed by
        # reference counting alone.
        from repro.verify import modelcheck as mc
        root = spec.build()
        codec = mc._Snapshots(root, mc._latency_parts(root))
        alphabet = tuple(mc.build_alphabet())
        ctx = mc._ExpandContext(
            issue=mc._spec_issue(spec),
            check=functools.partial(mc.check_step, spec),
            canonical=mc._spec_canonical(spec),
            snapshot=codec.dump, alphabet=alphabet, seen=set(),
            deadline=None, candidate_budget=len(alphabet) + 1,
            discard=mc._spec_discard(spec))
        nodes = [(codec.dump(root), ())]
        gc.collect()
        with collector(False):
            records, _ = mc._expand_partition(ctx, nodes)
            assert gc.collect() == 0
        assert len(records[0]) == len(alphabet)


class TestCampaign:
    def test_small_campaign_is_clean(self):
        report = run_campaign(seed=7, budget=5, jobs=1)
        assert report.ok, report.summary()
        assert report.runs == 5 * len(model_matrix())
        assert "no divergences" in report.summary()

    def test_report_identical_across_jobs(self):
        serial = run_campaign(seed=13, budget=5, jobs=1)
        pooled = run_campaign(seed=13, budget=5, jobs=2)
        assert serial.runs == pooled.runs
        assert len(serial.divergences) == len(pooled.divergences)
        assert serial.digest_mismatches == pooled.digest_mismatches

    def test_models_agree_on_final_memory(self):
        # The digest check has teeth: every ok model of one trace must
        # commit the identical version map.
        report = run_campaign(seed=2, budget=4, jobs=1, shrink=False)
        assert not report.digest_mismatches

    def test_resumed_campaign_matches_uninterrupted(self, tmp_path):
        journal = tmp_path / "fuzz.jsonl"
        uninterrupted = run_campaign(seed=11, budget=3, jobs=1,
                                     shrink=False)
        first = run_campaign(seed=11, budget=3, jobs=1, shrink=False,
                             resume=journal)
        resumed = run_campaign(seed=11, budget=3, jobs=1, shrink=False,
                               resume=journal)
        assert first.ok and resumed.ok
        assert resumed.resumed_runs == resumed.runs   # nothing re-run
        for report in (first, resumed):
            assert report.runs == uninterrupted.runs
            assert len(report.divergences) \
                == len(uninterrupted.divergences)
            assert report.digest_mismatches \
                == uninterrupted.digest_mismatches
        assert journal.exists()

    def test_resume_rejects_different_campaign(self, tmp_path):
        journal = tmp_path / "fuzz.jsonl"
        run_campaign(seed=11, budget=2, jobs=1, shrink=False,
                     resume=journal)
        with pytest.raises(ConfigError, match="different campaign"):
            run_campaign(seed=12, budget=2, jobs=1, shrink=False,
                         resume=journal)

    def test_harness_failure_is_partial_not_divergence(self, monkeypatch):
        import repro.verify.differential as differential

        real = differential.run_trace
        matrix = model_matrix()

        def flaky(spec, trace, **kwargs):
            if spec.name == matrix[0].name:
                raise OSError("worker lost")
            return real(spec, trace, **kwargs)

        monkeypatch.setattr(differential, "run_trace", flaky)
        report = run_campaign(
            seed=7, budget=2, jobs=1, shrink=False,
            policy=CampaignPolicy(retries=0))
        assert not report.ok
        assert report.partial                 # clean but incomplete
        assert not report.divergences
        assert len(report.harness_failures) == 2   # one per trace
        assert report.runs == 2 * (len(matrix) - 1)
        assert "HARNESS FAILURE" in report.summary()
        assert "PARTIAL" in report.summary()


class TestFaultInjection:
    @pytest.mark.parametrize("kind", DETECTABLE,
                             ids=lambda k: k.value)
    def test_detectable_faults_are_detected(self, kind):
        report = run_campaign(seed=3, budget=3, jobs=1,
                              fault=FaultPlan(kind))
        assert report.fault_fired_runs > 0, report.summary()
        assert report.ok, report.summary()
        assert report.fault_detected_runs == report.fault_fired_runs

    def test_force_denf_nack_is_graceful(self, tmp_path):
        # On both 2-socket ZeroDEV models traces 0, 1 and 4 first reach
        # the forward seam during the read-back: each run records the
        # firing wherever it happens, and the flag survives the journal.
        fault = FaultPlan(FaultKind.FORCE_DENF_NACK)
        journal = tmp_path / "denf.jsonl"
        report = run_campaign(seed=3, budget=5, jobs=1, fault=fault,
                              resume=journal)
        assert report.ok, report.summary()
        fired = sum(run_trace(model_by_name(name), generator(seed=3)
                              .trace(index), fault=fault).fault_fired
                    for index in range(5) for name in report.models)
        assert report.fault_fired_runs == fired == 8, report.summary()
        assert report.fault_detected_runs == 8
        replayed = run_campaign(seed=3, budget=5, jobs=1, fault=fault,
                                resume=journal)
        assert replayed.resumed_runs == replayed.runs == 15
        assert (replayed.fault_fired_runs,
                replayed.fault_detected_runs) == (8, 8)

    def test_fault_needs_applicable_model(self):
        spec = model_by_name("baseline-1x")
        with pytest.raises(ConfigError):
            arm_fault(spec.build(), FaultPlan(FaultKind.DROP_WB_DE))
        with pytest.raises(ConfigError):
            arm_fault(spec.build(),
                      FaultPlan(FaultKind.FORCE_DENF_NACK))

    def test_occurrence_index_validated(self):
        with pytest.raises(ConfigError):
            FaultPlan(FaultKind.DROP_WB_DE, at=0)


class TestShrinkAcceptance:
    """The ISSUE acceptance flow: a deliberately dropped WB_DE is
    detected, shrunk to a handful of accesses, and emitted as a
    replayable regression."""

    def find_failure(self):
        spec = model_by_name("zerodev-fuse-private-spill-shared")
        fault = FaultPlan(FaultKind.DROP_WB_DE)
        for index in range(20):
            trace = generator(seed=9).trace(index)
            outcome = run_trace(spec, trace, fault=fault)
            if not outcome.ok:
                return spec, fault, trace, outcome
        pytest.fail("dropped WB_DE never surfaced in 20 traces")

    def test_dropped_wb_de_shrinks_to_minimal_repro(self, tmp_path):
        spec, fault, trace, outcome = self.find_failure()
        assert outcome.error_type == "ProtocolInvariantError"
        minimized, final = shrink_trace(spec, trace, reference=outcome,
                                        fault=fault)
        assert len(minimized) <= 20
        assert not final.ok

        npz, test = emit_regression(spec, minimized, final, tmp_path)
        reloaded = FuzzTrace.load(npz)
        assert reloaded.steps == minimized.steps
        # Replayable: fails with the fault armed, passes without -- the
        # generated pytest stub asserts exactly the clean run.
        assert not run_trace(spec, reloaded, fault=fault).ok
        assert run_trace(spec, reloaded).ok
        text = test.read_text()
        assert spec.name in text and npz.name in text
        assert "def test_" in text

    def test_shrink_refuses_passing_trace(self):
        spec = model_by_name("baseline-1x")
        with pytest.raises(ValueError, match="does not fail"):
            shrink_trace(spec, generator().trace(0))


class TestCacheCorruption:
    def test_corrupted_pickles_are_recomputed(self, tmp_path):
        from repro.harness.result_cache import ResultCache, run_key
        from repro.harness.runner import run_workload
        from repro.harness.system_builder import build_system
        from repro.workloads import make_multithreaded
        from repro.workloads.suites import find_profile

        from tests.conftest import tiny_config

        config = tiny_config()
        workload = make_multithreaded(find_profile("blackscholes"),
                                      config, 200, seed=3)
        cache = ResultCache(tmp_path)
        key = run_key(config, workload)
        result = run_workload(build_system(config), workload)
        cache.put(key, result)

        damaged = corrupt_cache_files(tmp_path, seed=1)
        assert damaged == 1
        fresh = ResultCache(tmp_path)     # disk only, no memo
        assert fresh.get(key) is None     # graceful miss, no raise
        assert fresh.misses == 1

        # Recompute-and-republish over the damaged file heals it.
        fresh.put(key, result)
        healed = ResultCache(tmp_path)
        hit = healed.get(key)
        assert hit is not None
        assert hit.stats.as_dict() == result.stats.as_dict()
