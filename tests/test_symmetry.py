"""Symmetry reduction (``repro.verify.symmetry``).

The drift guards promised by the module docstring:

* group construction -- identity-first deterministic enumeration,
  placement-congruent block classes, core permutations only where they
  are automorphisms (single-socket clean protocols), trivial groups for
  SecDir/MgD and armed mutations;
* the **equivariance property** -- running a relabeled access sequence
  lands in exactly the relabeled signature
  (``sig(run(pi(seq))) == relabel(sig(run(seq)), pi)``), which is the
  operational statement of soundness the PROTOCOL.md argument proves;
* orbit-minimal ``canonical_key`` collapses permuted runs onto one key
  and measurably shrinks the frontier;
* the on/off differential -- symmetry-on and symmetry-off refute all
  five seeded mutations with the same-length, same-error
  counterexample, at any worker count.
"""

from __future__ import annotations

import json

import pytest

from repro.verify.modelcheck import (MICRO_BLOCKS, build_alphabet,
                                     canonical_key, explore_model,
                                     system_sig)
from repro.verify.models import model_by_name
from repro.verify.mutations import (MUTATIONS, mutant_spec,
                                    reference_spec)
from repro.verify.symmetry import (placement_modulus,
                                   relabel_system_sig, symmetry_group)
from repro.workloads.trace import Op


def spec_of(name="zerodev-fuse-private-spill-shared"):
    return model_by_name(name)


def issue_all(spec, system, sequence):
    from repro.common.addressing import BLOCK_SHIFT
    for trace_core, op, block in sequence:
        socket, core = spec.map_core(trace_core)
        system.sockets[socket].access(core, op, block << BLOCK_SHIFT)


#: Conflict-heavy sequences over the micro alphabet: sharing, migration,
#: same-set conflict (blocks 0/8), and the independent bank (block 1).
SEQUENCES = [
    [(0, Op.WRITE, 0), (1, Op.READ, 0), (0, Op.READ, 8)],
    [(0, Op.READ, 8), (0, Op.READ, 0), (1, Op.WRITE, 8),
     (1, Op.READ, 1)],
    [(1, Op.WRITE, 1), (0, Op.WRITE, 8), (1, Op.READ, 8),
     (0, Op.WRITE, 0), (1, Op.READ, 0)],
]


class TestGroupConstruction:
    def test_micro_group_identity_first(self):
        group = symmetry_group(spec_of(), build_alphabet())
        assert group[0].is_identity
        assert sum(r.is_identity for r in group) == 1
        # Two core perms x the {0, 8} congruence-class swap (block 1
        # sits alone in its class).
        assert len(group) == 4
        assert {r.describe() for r in group} >= {"identity"}

    def test_placement_modulus_covers_widest_index(self):
        # LLC bank (1 bit) + set-per-bank (2 bits) is the widest index
        # on the micro geometry.
        assert placement_modulus(spec_of()) == 8

    def test_block_classes_respect_congruence(self):
        # Blocks 0 and 8 collide mod 8 (same bank 0 set); block 1 maps
        # to bank 1 -- no sound relabeling may mix them.
        for relabeling in symmetry_group(spec_of(), build_alphabet()):
            assert relabeling.block(1) == 1
            assert relabeling.block(0) in (0, 8)
            assert relabeling.block(8) in (0, 8)

    @pytest.mark.parametrize("name", ["secdir", "mgd"])
    def test_contenders_degrade_to_trivial(self, name):
        group = symmetry_group(spec_of(name), build_alphabet())
        assert len(group) == 1 and group[0].is_identity

    def test_multisocket_keeps_identity_cores(self):
        group = symmetry_group(spec_of("zerodev-2socket-sol1"),
                               build_alphabet(blocks=(0, 8, 16)))
        assert len(group) > 1
        for relabeling in group:
            assert relabeling.core_map == tuple(
                range(len(relabeling.core_map)))

    def test_cores_symmetric_false_drops_core_perms(self):
        group = symmetry_group(spec_of(), build_alphabet(),
                               cores_symmetric=False)
        assert all(r.core_map == tuple(range(len(r.core_map)))
                   for r in group)
        assert len(group) == 2  # identity + the {0, 8} swap

    def test_asymmetric_alphabet_filters_relabelings(self):
        # Core 0 writes, core 1 only reads: the core swap no longer
        # maps the alphabet onto itself.
        symbols = [(0, Op.WRITE, 0), (0, Op.WRITE, 8), (1, Op.READ, 0),
                   (1, Op.READ, 8)]
        group = symmetry_group(spec_of(), symbols)
        assert all(r.core_map[0] == 0 for r in group)
        assert len(group) == 2

    def test_max_size_caps_deterministically(self):
        full = symmetry_group(spec_of(), build_alphabet())
        capped = symmetry_group(spec_of(), build_alphabet(), max_size=2)
        assert [r.sort_key() for r in capped] == \
            [r.sort_key() for r in full[:2]]
        assert capped[0].is_identity


class TestEquivariance:
    @pytest.mark.parametrize("seq_index", range(len(SEQUENCES)))
    def test_relabeled_run_lands_in_relabeled_sig(self, seq_index):
        # The operational soundness statement: for every relabeling pi
        # in the group, sig(run(pi(seq))) == relabel(sig(run(seq)), pi).
        # Any protocol change that starts reading core/block *identity*
        # (rather than placement) breaks this first.
        spec = spec_of()
        sequence = SEQUENCES[seq_index]
        base = spec.build()
        issue_all(spec, base, sequence)
        base_sig = system_sig(base)
        for relabeling in symmetry_group(spec, build_alphabet()):
            permuted = spec.build()
            issue_all(spec, permuted,
                      [relabeling.symbol(s) for s in sequence])
            assert system_sig(permuted) == relabel_system_sig(
                base_sig, relabeling, False,
                spec.config.directory.unbounded), relabeling.describe()

    def test_relabel_inverse_round_trips(self):
        spec = spec_of()
        system = spec.build()
        issue_all(spec, system, SEQUENCES[0])
        sig = system_sig(system)
        group = symmetry_group(spec, build_alphabet())
        for relabeling in group:
            once = relabel_system_sig(sig, relabeling, False, False)
            inverse = next(
                r for r in group
                if r.core_map == relabeling.core_order
                and all(r.block(relabeling.block(b)) == b
                        for b in MICRO_BLOCKS))
            assert relabel_system_sig(once, inverse, False, False) == sig

    def test_orbit_key_collapses_permuted_runs(self):
        spec = spec_of()
        group = symmetry_group(spec, build_alphabet())
        swap = next(r for r in group if not r.is_identity)
        base, permuted = spec.build(), spec.build()
        issue_all(spec, base, SEQUENCES[0])
        issue_all(spec, permuted,
                  [swap.symbol(s) for s in SEQUENCES[0]])
        assert canonical_key(spec, base) != canonical_key(spec, permuted)
        assert canonical_key(spec, base, group) == \
            canonical_key(spec, permuted, group)


class TestReduction:
    def test_symmetry_shrinks_the_frontier(self):
        spec = spec_of()
        plain = explore_model(spec, 3)
        reduced = explore_model(spec, 3, symmetry=True)
        assert plain.ok and reduced.ok
        assert reduced.symmetry and reduced.group_size == 4
        assert reduced.depth_reached == 3
        assert reduced.unique_states < plain.unique_states
        # The ledger invariants hold under reduction too.
        assert reduced.unique_states == 1 + sum(reduced.level_unique)
        assert reduced.transitions == \
            reduced.unique_states - 1 + reduced.dedup_hits

    def test_symmetry_reports_are_jobs_identical(self):
        spec = spec_of()
        one = explore_model(spec, 3, symmetry=True, jobs=1)
        two = explore_model(spec, 3, symmetry=True, jobs=2)
        assert one.identity_bytes() == two.identity_bytes()


class TestMutationDifferential:
    @pytest.mark.parametrize("name", sorted(MUTATIONS))
    def test_on_off_find_the_same_counterexample(self, name):
        # Soundness in anger: orbit collapse must never hide a seeded
        # bug, and the BFS-first counterexample keeps its length and
        # error (the path itself may be a relabeled representative).
        mutation = MUTATIONS[name]
        spec = reference_spec(mutation.reference_model)
        reports = [
            explore_model(spec, mutation.catch_depth,
                          blocks=mutation.blocks,
                          symbols=mutation.symbols or None,
                          mutation=name, symmetry=symmetry)
            for symmetry in (False, True)]
        plain, reduced = reports
        assert not plain.ok and not reduced.ok
        assert len(plain.counterexample.sequence) == \
            len(reduced.counterexample.sequence)
        assert type(plain.counterexample.error).__name__ == \
            type(reduced.counterexample.error).__name__
        # Armed mutants keep only the block-permutation subgroup,
        # whichever route arms the bug: a MutantSpec explores exactly
        # what the mutation argument does.
        assert reduced.group_size >= 1
        via_spec = explore_model(mutant_spec(spec, name),
                                 mutation.catch_depth,
                                 blocks=mutation.blocks,
                                 symbols=mutation.symbols or None,
                                 symmetry=True)

        def semantic(report):
            payload = json.loads(report.identity_bytes())
            del payload["model"], payload["mutation"]
            return payload

        assert semantic(via_spec) == semantic(reduced)
