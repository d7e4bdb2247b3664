"""Memoized bounded-exhaustive model checking (``repro.verify.modelcheck``).

Covers the frontier engine and its harness:

* canonicalization -- symmetric interleavings collapse, latency-only
  state (stats) is excluded, soundness is preserved by checking every
  transition;
* clean exploration across representative matrix models, and pinned
  counts on the geometries the matrix lacks (code fetches, and the EPD
  and inclusive LLCs under a quarter-size baseline directory);
* counterexample prefixes that replay through ``run_trace`` and shrink
  through ``repro shrink`` exactly like fuzz divergences;
* the mutation gate -- every seeded bug caught by modelcheck at its
  documented depth, and at least one provably missed by the pinned
  fixed-budget fuzz baseline;
* the oracle's readback attribution and the multi-socket
  single-shared-shadow invariant (verify-layer bugfix regressions).
"""

from __future__ import annotations

import gc
import io
import pickle
import sys
from enum import Enum

import pytest

from repro.common.errors import ConfigError
from repro.obs.bus import EventBus
from repro.obs.events import EventKind
from repro.verify import run_campaign, run_trace, shrink_trace
from repro.verify.checks import DivergenceError, shadow_of
from repro.common.config import DirectoryConfig, LLCDesign
from repro.verify.modelcheck import (ModelCheckReport, _explore_frontier,
                                     _Snapshots, _latency_parts,
                                     build_alphabet, canonical_key,
                                     explore_model, mutation_gate,
                                     system_key)
from repro.verify.models import (ModelSpec, micro_config, model_by_name,
                                 model_matrix)
from repro.verify.mutations import (MUTATIONS, arm_mutation,
                                    mutant_spec, reference_spec)
from repro.verify.tracegen import FuzzTrace
from repro.workloads.trace import Op

from tests.conftest import collector


def spec_of(name="zerodev-fuse-private-spill-shared"):
    return model_by_name(name)


def assert_live_types(state):
    """Every class and enum member reachable from ``state`` is the
    object its module holds under its name."""
    stack, seen = [state], set()
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        cls = type(obj)
        if cls.__module__.startswith("repro"):
            module = sys.modules[cls.__module__]
            assert getattr(module, cls.__qualname__) is cls
            if isinstance(obj, Enum):
                assert cls[obj._name_] is obj
                continue
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif hasattr(obj, "__dict__"):
            stack.append(vars(obj))
        elif hasattr(cls, "__slots__"):
            stack.extend(getattr(obj, slot) for slot in cls.__slots__
                         if hasattr(obj, slot))


def no_shared(root):
    """A toy exploration shares nothing with its root."""
    return ()


def issue_all(spec, system, sequence):
    from repro.common.addressing import BLOCK_SHIFT
    for trace_core, op, block in sequence:
        socket, core = spec.map_core(trace_core)
        system.sockets[socket].access(core, op, block << BLOCK_SHIFT)


class TestCanonicalization:
    def test_same_accesses_same_key(self):
        spec = spec_of()
        seq = [(0, Op.WRITE, 0), (1, Op.READ, 0), (0, Op.READ, 8)]
        keys = []
        for _ in range(2):
            system = spec.build()
            issue_all(spec, system, seq)
            keys.append(canonical_key(spec, system))
        assert keys[0] == keys[1]

    def test_stats_are_excluded(self):
        # Identical protocol state, divergent latency bookkeeping: the
        # canonical key must not see the difference -- that collapse is
        # where the frontier's state-space reduction comes from.
        spec = spec_of()
        system = spec.build()
        issue_all(spec, system, [(0, Op.WRITE, 0)])
        before = canonical_key(spec, system)
        system.stats.dev_invalidations += 7
        assert canonical_key(spec, system) == before

    def test_order_sensitive_where_lru_reads_order(self):
        # Touch order decides the LRU victim, so two L2 fill orders of
        # the same two blocks are *different* protocol states.
        spec = spec_of()
        one, two = spec.build(), spec.build()
        issue_all(spec, one, [(0, Op.READ, 0), (0, Op.READ, 8)])
        issue_all(spec, two, [(0, Op.READ, 8), (0, Op.READ, 0)])
        assert canonical_key(spec, one) != canonical_key(spec, two)

    def test_multisocket_key_covers_socket_entries(self):
        spec = spec_of("zerodev-2socket-sol1")
        local, remote = spec.build(), spec.build()
        issue_all(spec, local, [(0, Op.WRITE, 0)])
        issue_all(spec, remote, [(1, Op.WRITE, 0)])
        assert canonical_key(spec, local) != canonical_key(spec, remote)


class TestFrontier:
    @pytest.mark.parametrize("name", [
        "baseline-1x", "zerodev-fuse-private-spill-shared",
        "zerodev-fuse-private-spill-shared-splru",
    ])
    def test_clean_to_depth_three(self, name, monkeypatch):
        dumps = []
        dump = _Snapshots.dump

        def counting_dump(snapshots, system):
            dumps.append(len(dumps))
            return dump(snapshots, system)

        monkeypatch.setattr(_Snapshots, "dump", counting_dump)
        report = explore_model(spec_of(name), 3)
        assert report.ok
        assert report.depth_reached == 3
        assert not report.capped
        # Dedup is the whole point: well under one unique state per
        # transition, and the per-level ledger adds up.
        assert report.dedup_hits > 0
        assert report.unique_states == 1 + sum(report.level_unique)
        assert report.transitions == \
            report.unique_states - 1 + report.dedup_hits
        # Only states a later level expands are snapshotted: the root
        # and the new states of every level but the last.
        assert len(dumps) == 1 + sum(report.level_unique[:-1])

    def test_two_socket_clean_shallow(self):
        report = explore_model(spec_of("zerodev-2socket-sol1"), 2)
        assert report.ok and report.depth_reached == 2

    def test_max_states_caps_cleanly(self):
        report = explore_model(spec_of(), 4, max_states=50)
        assert report.ok and report.capped
        assert report.unique_states <= 50

    def test_budget_caps_cleanly(self):
        report = explore_model(spec_of(), 6, budget_s=0.2)
        assert report.ok and report.capped

    def test_alphabet_override(self):
        symbols = [(0, Op.WRITE, 0), (1, Op.READ, 0)]
        report = explore_model(spec_of(), 2, symbols=symbols)
        assert report.ok and report.alphabet_size == 2

    def test_frontier_events_emitted(self):
        class Sink:
            def __init__(self):
                self.events = []

            def handle(self, event):
                self.events.append(event)

        bus, sink = EventBus(), Sink()
        bus.subscribe(sink)
        explore_model(spec_of(), 2, bus=bus)
        levels = [e for e in sink.events
                  if e.kind is EventKind.MC_FRONTIER]
        assert [e.step for e in levels] == [1, 2]
        assert all(len(e.cause.split("/")) == 3 for e in levels)

    def test_max_states_mid_level_advances_depth(self):
        # Regression: the cap used to return without advancing
        # depth_reached past the last *complete* level, even though the
        # capped level's transitions were checked and its fresh states
        # counted.  Every exit must leave the ledger consistent.
        for enabled in (True, False):
            with collector(enabled):
                report = explore_model(spec_of(), 4, max_states=50)
                assert gc.isenabled() is enabled
        assert report.ok and report.capped
        assert report.unique_states == 50  # the cap is exact
        assert report.depth_reached == len(report.level_unique)
        assert report.level_unique[-1] > 0  # the partial level counts
        assert report.unique_states == 1 + sum(report.level_unique)
        assert report.transitions == \
            report.unique_states - 1 + report.dedup_hits

    def test_budget_mid_level_keeps_partial_fresh(self, monkeypatch):
        # Regression: budget expiry used to discard the in-progress
        # level's fresh count.  A fake clock (+0.1s per invariant
        # check) expires the deadline deterministically after the first
        # node of level 2: the partial level must appear in the ledger.
        import repro.verify.modelcheck as mc

        class FakeTime:
            now = 0.0

            @classmethod
            def perf_counter(cls):
                return cls.now

        monkeypatch.setattr(mc, "time", FakeTime)
        alphabet = [1, 2, 3]
        collecting = []

        def issue(system, symbol):
            system.append(symbol)

        def check(system):
            collecting.append(gc.isenabled())
            FakeTime.now += 0.1

        report = ModelCheckReport("toy", 3, len(alphabet))
        # Root check: t=0.1.  Level 1 (3 checks): t=0.4.  Level 2 node
        # 1 (3 checks): t=0.7 > deadline -> timed out before node 2.
        with collector(True):
            _explore_frontier(
                report, list, issue, check,
                lambda s: repr(s).encode(), lambda s: None, no_shared,
                alphabet, 3, 250_000, budget_s=0.65)
            assert gc.isenabled()
        # The collector is off only while a level expands: the root is
        # checked before the first.
        assert collecting == [True] + [False] * 6
        assert report.ok and report.capped
        assert report.level_unique == (3, 3)
        assert report.depth_reached == 2
        assert report.unique_states == 1 + sum(report.level_unique)

    def test_budget_before_any_transition_adds_no_ledger_entry(
            self, monkeypatch):
        # The complement: expiry *before* any level-2 transition is
        # checked must not invent an empty ledger entry.
        import repro.verify.modelcheck as mc

        class FakeTime:
            now = 0.0

            @classmethod
            def perf_counter(cls):
                return cls.now

        monkeypatch.setattr(mc, "time", FakeTime)

        def check(system):
            FakeTime.now += 0.1

        report = ModelCheckReport("toy", 3, 2)
        _explore_frontier(
            report, list, lambda s, a: s.append(a), check,
            lambda s: repr(s).encode(), lambda s: None, no_shared,
            [1, 2], 3, 250_000, budget_s=0.25)
        # Root t=0.1, level 1 completes at t=0.3 (one node, so its
        # mid-node expiry is only seen at the next boundary); level 2's
        # pre-level deadline check fires with 0 transitions processed.
        assert report.ok and report.capped
        assert report.level_unique == (2,)
        assert report.depth_reached == 1
        assert report.unique_states == 1 + sum(report.level_unique)

    def test_root_counterexample_accounting(self):
        # Regression: a root-level check failure used to return with
        # level_unique unset and unique_states == 0 -- the root was
        # explored, so it must be counted.
        def check(system):
            raise DivergenceError("root is already broken")

        report = ModelCheckReport("toy", 3, 2)
        with collector(False):
            _explore_frontier(
                report, list, lambda s, a: s.append(a), check,
                lambda s: repr(s).encode(), lambda s: None, no_shared,
                [1, 2], 3, 250_000, None)
            assert not gc.isenabled()
        assert not report.ok
        assert report.counterexample.sequence == ()
        assert report.unique_states == 1
        assert report.level_unique == ()
        assert report.depth_reached == 0

        # An error no check reports (here from the canonical key)
        # leaves expansion with the collector as it was found.
        def canonical(system):
            if system:
                raise RuntimeError("unkeyable state")
            return b""

        for enabled in (True, False):
            with collector(enabled):
                with pytest.raises(RuntimeError, match="unkeyable"):
                    _explore_frontier(
                        ModelCheckReport("toy", 3, 2), list,
                        lambda s, a: s.append(a), lambda s: None,
                        canonical, lambda s: None, no_shared, [1, 2], 3,
                        250_000, None)
                assert gc.isenabled() is enabled

    def test_mid_level_counterexample_accounting(self):
        mutation = MUTATIONS["skip-corrupt-restore"]
        spec = reference_spec(mutation.reference_model)
        for enabled in (True, False):
            with collector(enabled):
                report = explore_model(spec, mutation.catch_depth,
                                       blocks=mutation.blocks,
                                       mutation=mutation.name)
                assert gc.isenabled() is enabled
        assert not report.ok
        assert report.depth_reached == len(report.level_unique)
        assert report.unique_states == 1 + sum(report.level_unique)

    def test_capped_frontier_event_carries_status(self):
        # Regression: capped exits used to emit no MC_FRONTIER at all,
        # so a capped trace looked like a short clean run.  The final
        # event now carries a fourth "capped" part.
        class Sink:
            def __init__(self):
                self.events = []

            def handle(self, event):
                self.events.append(event)

        bus, sink = EventBus(), Sink()
        bus.subscribe(sink)
        explore_model(spec_of(), 4, max_states=50, bus=bus)
        levels = [e for e in sink.events
                  if e.kind is EventKind.MC_FRONTIER]
        assert levels, "capped run emitted no MC_FRONTIER events"
        assert levels[-1].cause.split("/")[-1] == "capped"
        assert len(levels[-1].cause.split("/")) == 4

    def test_merge_events_report_partition_shape(self):
        class Sink:
            def __init__(self):
                self.events = []

            def handle(self, event):
                self.events.append(event)

        bus, sink = EventBus(), Sink()
        bus.subscribe(sink)
        explore_model(spec_of(), 2, bus=bus, jobs=2)
        merges = [e for e in sink.events
                  if e.kind is EventKind.MC_MERGE]
        assert [e.step for e in merges] == [1, 2]
        for event in merges:
            partitions, frontier, transitions = \
                (int(part) for part in event.cause.split("/"))
            assert event.core == partitions <= 2
            assert transitions <= frontier * len(build_alphabet())


#: Geometries the model matrix lacks, over the two micro cores with the
#: matrix's quarter-size baseline directory (8 entries): the model, its
#: ops, and per block alphabet the (unique states, transitions) it
#: explores at depth 3.  Blocks 0, 8 and 16 share an L2 set and an LLC
#: set, so only they reach the L2 notices and LLC victims where the EPD
#: and inclusive designs differ from the non-inclusive one (whose
#: counts the inclusive LLC has on 0, 8, 1).
QUARTER = DirectoryConfig(ratio=0.25)
READ_WRITE = (Op.READ, Op.WRITE)
BEYOND_MATRIX = {
    "code-fetches": (
        "baseline-quarter", micro_config(directory=QUARTER),
        (Op.READ, Op.WRITE, Op.IFETCH), {(0, 8): (659, 1284)}),
    "epd": (
        "baseline-quarter-epd",
        micro_config(directory=QUARTER, llc_design=LLCDesign.EPD),
        READ_WRITE, {(0, 8, 1): (752, 1452), (0, 8, 16): (832, 1452)}),
    "inclusive": (
        "baseline-quarter-inclusive",
        micro_config(directory=QUARTER, llc_design=LLCDesign.INCLUSIVE),
        READ_WRITE, {(0, 8, 1): (800, 1452), (0, 8, 16): (688, 1452)}),
}


class TestBeyondTheMatrix:
    @pytest.mark.parametrize("case", sorted(BEYOND_MATRIX))
    def test_clean_with_pinned_counts(self, case):
        name, config, ops, pinned = BEYOND_MATRIX[case]
        spec = ModelSpec(name, config)
        for blocks, counts in pinned.items():
            report = explore_model(spec, 3, blocks=blocks, ops=ops)
            assert report.ok, str(report.counterexample)
            assert not report.capped and report.depth_reached == 3
            assert (report.unique_states, report.transitions) == counts

    @pytest.mark.parametrize("name", ["zerodev-fuse-private-spill-shared",
                                      "zerodev-2socket-sol1"])
    def test_a_dev_is_refused_by_the_system_check(self, name):
        # The frontier checks each state with check_step alone: on a
        # ZeroDEV model the system's own check refuses any DEV, on one
        # socket and on two.
        spec = spec_of(name)

        class Planted(ModelSpec):
            def build(self):
                system = spec.build()
                system.sockets[-1].stats.dev_invalidations = 1
                return system

        report = explore_model(
            Planted(spec.name, spec.config, spec.n_sockets,
                    spec.dir_cache_blocks, spec.dir_solution), 1)
        assert not report.ok and report.counterexample.sequence == ()
        error = report.counterexample.error
        assert type(error).__name__ == "ProtocolInvariantError"
        assert str(error) == \
            "ZeroDEV generated directory eviction victims"


class TestCounterexamples:
    def trigger(self):
        mutation = MUTATIONS["skip-corrupt-restore"]
        spec = reference_spec(mutation.reference_model)
        report = explore_model(spec, mutation.catch_depth,
                               blocks=mutation.blocks,
                               mutation=mutation.name)
        assert not report.ok
        return spec, mutation, report

    def test_prefix_replays_through_run_trace(self):
        spec, mutation, report = self.trigger()
        trace = report.counterexample_trace()
        assert trace.pattern == "modelcheck"
        # The bug needs its mutation: mutant fails, clean model passes.
        assert not run_trace(mutant_spec(spec, mutation.name), trace).ok
        assert run_trace(spec, trace).ok

    def test_prefix_shrinks_like_a_fuzz_divergence(self):
        spec, mutation, report = self.trigger()
        mutant = mutant_spec(spec, mutation.name)
        trace = report.counterexample_trace()
        outcome = run_trace(mutant, trace)
        minimized, final = shrink_trace(mutant, trace,
                                        reference=outcome)
        assert not final.ok
        assert len(minimized) <= len(trace)

    def test_npz_round_trip(self, tmp_path):
        _spec, _mutation, report = self.trigger()
        trace = report.counterexample_trace()
        path = tmp_path / "cex.npz"
        trace.save(path)
        loaded = FuzzTrace.load(path)
        assert loaded.steps == trace.steps

    def test_cex_event_emitted(self):
        class Sink:
            def __init__(self):
                self.events = []

            def handle(self, event):
                self.events.append(event)

        mutation = MUTATIONS["skip-corrupt-restore"]
        spec = reference_spec(mutation.reference_model)
        bus, sink = EventBus(), Sink()
        bus.subscribe(sink)
        explore_model(spec, mutation.catch_depth,
                      blocks=mutation.blocks, mutation=mutation.name,
                      bus=bus)
        assert any(e.kind is EventKind.MC_CEX for e in sink.events)


class TestMutations:
    @pytest.mark.parametrize("name", sorted(MUTATIONS))
    def test_caught_at_documented_depth(self, name):
        mutation = MUTATIONS[name]
        spec = reference_spec(mutation.reference_model)
        report = explore_model(spec, mutation.catch_depth,
                               blocks=mutation.blocks,
                               symbols=mutation.symbols or None,
                               mutation=name)
        assert not report.ok, f"{name} not caught at its catch_depth"
        assert len(report.counterexample.sequence) <= mutation.catch_depth

    @pytest.mark.parametrize("name", sorted(MUTATIONS))
    def test_applies_to_its_reference_model(self, name):
        mutation = MUTATIONS[name]
        assert mutation.applies_to(reference_spec(
            mutation.reference_model))

    def test_armed_flags_survive_snapshots(self):
        spec = spec_of()
        system = spec.build()
        arm_mutation(system, "skip-corrupt-restore")
        snapshots = _Snapshots(system, _latency_parts(system))
        snapshot = snapshots.dump(system)
        clone, other = pickle.loads(snapshot), pickle.loads(snapshot)
        assert "skip-corrupt-restore" in clone.mutations
        # Two loads of one snapshot are independent states...
        before = system_key(other)
        clone.access(0, Op.WRITE, 0)
        assert system_key(clone) != before
        assert system_key(other) == before
        # ...that share with the root what no transition changes: the
        # config and its frozen parts, and explore_model's latency-only
        # stats, mesh and DRAM model.
        config = system.config
        for load in (clone, other):
            assert load.config is config
            assert load._lat is config.latency
            for hier in load.cores:
                assert hier.l2_mask == config.l2.sets - 1
                assert hier.l1d_ways == config.l1d.ways
            assert load.stats is system.stats
            assert load.mesh is system.mesh
            assert load.dram is system.dram
        # Classes and enum members go by reference too: a loaded
        # state's are the very objects this process holds.
        assert_live_types(clone)
        # A 2-socket snapshot names no repro class or enum member by
        # module and name, only the function that resolves references.
        spec = spec_of("zerodev-2socket-sol1")
        system = spec.build()
        issue_all(spec, system, [(0, Op.WRITE, 0), (1, Op.READ, 0),
                                 (1, Op.WRITE, 8), (0, Op.READ, 1)])
        codec = _Snapshots(system, _latency_parts(system))
        snapshot = codec.dump(system)
        named = []

        class Spy(pickle.Unpickler):
            def find_class(self, module, name):
                named.append((module, name))
                return super().find_class(module, name)

        load = Spy(io.BytesIO(snapshot)).load()
        assert system_key(load, multisocket=True) == \
            system_key(system, multisocket=True)
        assert [pair for pair in named if pair[0].startswith("repro")] \
            == [("repro.verify.modelcheck", "_shared")]
        assert ("builtins", "getattr") not in named
        assert_live_types(load)

    def test_unknown_mutation_is_config_error(self):
        with pytest.raises(ConfigError, match="unknown mutation"):
            arm_mutation(spec_of().build(), "no-such-bug")
        with pytest.raises(ConfigError, match="does not apply"):
            mutant_spec(spec_of(), "skip-denf-nack")

    def test_fuzz_baseline_misses_denf_nack(self):
        # The pinned gap: the pinned-seed, pinned-budget, short-trace
        # fuzz campaign stays green on the skip-denf-nack mutant that
        # modelcheck refutes at depth 7.  This is the reason the
        # frontier exists; if fuzz starts catching it, the gate (and
        # this pin) should move to a harder bug, not be deleted.
        spec = reference_spec("zerodev-2socket-sol1")
        mutant = mutant_spec(spec, "skip-denf-nack")
        report = run_campaign(seed=7, budget=4, steps_per_trace=12,
                              models=[model_matrix()[0], mutant],
                              shrink=False)
        assert report.ok

    def test_gate_runs_end_to_end_without_fuzz(self):
        verdicts = mutation_gate(names=["skip-corrupt-restore"],
                                 run_fuzz=False)
        assert len(verdicts) == 1
        assert verdicts[0].caught_by_modelcheck
        assert "caught at depth" in verdicts[0].summary()


class TestParallelDeterminism:
    """jobs in {1, 2, 4} must produce byte-identical reports: counters,
    the per-level ledger, and the (BFS-first) counterexample path."""

    def identity_set(self, **kwargs):
        return {explore_model(jobs=jobs, **kwargs).identity_bytes()
                for jobs in (1, 2, 4)}

    def test_clean_model_reports_identical(self):
        assert len(self.identity_set(spec=spec_of(), depth=3)) == 1

    def test_denf_nack_counterexample_identical(self):
        mutation = MUTATIONS["skip-denf-nack"]
        spec = reference_spec(mutation.reference_model)
        assert len(self.identity_set(
            spec=spec, depth=mutation.catch_depth,
            blocks=mutation.blocks, symbols=mutation.symbols or None,
            mutation=mutation.name)) == 1

    def test_capped_run_reports_identical(self):
        # The hard case: the max_states cap must fire at the same
        # transition regardless of how the frontier was partitioned.
        assert len(self.identity_set(spec=spec_of(), depth=4,
                                     max_states=50)) == 1

    def test_identity_bytes_excludes_wallclock(self):
        report = explore_model(spec_of(), 2)
        before = report.identity_bytes()
        report.elapsed_s += 123.0
        report.jobs = 8
        assert report.identity_bytes() == before


class TestVerifyLayerRegressions:
    def test_readback_failure_names_block_and_index(self, monkeypatch):
        # Regression: a readback-phase failure used to report the wrong
        # failing step; it must pin failing_step at len(trace) and name
        # the diverging block through the readback_* fields.
        import repro.verify.oracle as oracle
        spec = spec_of()
        trace = FuzzTrace("readback-regression", 2,
                          ((0, Op.WRITE.value, 0), (1, Op.READ.value, 8)))
        real_check = oracle.check_step
        state = {"armed": False}

        def failing_check(spec_, system):
            real_check(spec_, system)
            if state["armed"]:
                raise DivergenceError("synthetic readback divergence")

        monkeypatch.setattr(oracle, "check_step", failing_check)
        clean = oracle.run_trace(spec, trace)
        assert clean.ok
        state["armed"] = True
        outcome = oracle.run_trace(spec, trace)
        assert not outcome.ok
        # The first armed check fires at trace step 0, not readback --
        # so exercise the readback path with a check that only fails
        # once the trace and final phases are over.
        state["armed"] = False
        calls = {"n": 0}

        def readback_only(spec_, system):
            real_check(spec_, system)
            calls["n"] += 1
            if calls["n"] > len(trace) + 1:
                raise DivergenceError("synthetic readback divergence")

        monkeypatch.setattr(oracle, "check_step", readback_only)
        outcome = oracle.run_trace(spec, trace)
        assert not outcome.ok
        assert outcome.phase == "readback"
        assert outcome.failing_step == len(trace)
        assert outcome.readback_index == 0
        assert outcome.readback_block == 0
        assert "readback 0" in str(outcome)

    def test_two_socket_shadow_is_shared(self):
        # Regression for the socket-0-only digest: the multi-socket
        # memory digest is only honest because every socket aliases ONE
        # shadow; shadow_of pins that as an invariant.
        spec = spec_of("zerodev-2socket-sol1")
        system = spec.build()
        assert shadow_of(system) is system.shadow
        for socket in system.sockets:
            assert socket.shadow is system.shadow

    def test_private_shadow_is_loud(self):
        from repro.coherence.shadow import ShadowMemory
        spec = spec_of("zerodev-2socket-sol1")
        system = spec.build()
        system.sockets[1].shadow = ShadowMemory()
        with pytest.raises(DivergenceError, match="private shadow"):
            shadow_of(system)

    def test_two_socket_solutions_agree_on_digest(self):
        # Digest equivalence across the two paper solutions on one
        # conflict-heavy sequence -- the cross-model property the
        # shared shadow makes trustworthy.
        seq = [(0, Op.WRITE, 0), (1, Op.WRITE, 8), (0, Op.READ, 8),
               (1, Op.READ, 0), (0, Op.WRITE, 16), (1, Op.READ, 16)]
        steps = tuple((core, op.value, block) for core, op, block in seq)
        trace = FuzzTrace("digest-equivalence", 2, steps)
        digests = {}
        for name in ("baseline-2socket", "zerodev-2socket-sol1",
                     "zerodev-2socket-sol2"):
            outcome = run_trace(model_by_name(name), trace)
            assert outcome.ok, f"{name}: {outcome}"
            digests[name] = outcome.memory_digest
        assert len(set(digests.values())) == 1, digests
