"""Tests for the SecDir comparison baseline (ISCA'19 re-implementation)."""

import random

import pytest

from repro.baselines.secdir import SecDirSystem
from repro.caches.block import MESI
from repro.common.addressing import BLOCK_SHIFT
from repro.common.config import DirectoryConfig, LLCDesign, Protocol
from repro.harness.system_builder import build_system

from tests.conftest import OPS, drive, tiny_config


def secdir(ratio=1.0, **kw):
    return build_system(tiny_config(
        protocol=Protocol.SECDIR,
        directory=DirectoryConfig(ratio=ratio), **kw))


class TestSecDirStructure:
    def test_partition_sizing(self):
        system = secdir()
        # Baseline 1x: 128 entries / 8 ways = 16 sets. Shared: 16 sets x
        # 5 ways; privates: max(1, 16 // 16) = 1 set x 7 ways per core.
        assert system._secdir.shared.sets == 16
        assert system._secdir.shared.ways == 5
        assert len(system._secdir.privates) == 4
        assert system._secdir.privates[0].sets == 1
        assert system._secdir.privates[0].ways == 7

    def test_new_entry_starts_in_shared_partition(self):
        system = secdir()
        drive(system, [(0, "R", 5)])
        assert system._secdir.shared.peek(5) is not None
        assert 5 not in system._secdir.private_resident


class TestSecDirMigration:
    def fill_shared_set(self, system, set_idx=0):
        """Overflow one shared-partition set (5 ways) with live entries.

        Same-directory-set blocks share an L2 set too, so one core can
        keep only 4 alive; 4 cores x 4 blocks = 16 live entries in the
        set, forcing 11 migrations.
        """
        script = []
        blocks = []
        for tag in range(4):
            for core in range(4):
                block = set_idx + 16 * (4 * core + tag)
                blocks.append(block)
                script.append((core, "R", block))
        drive(system, script)
        return blocks

    def test_shared_conflict_migrates_not_invalidates(self):
        system = secdir()
        blocks = self.fill_shared_set(system)
        migrated = [b for b in blocks
                    if b in system._secdir.private_resident]
        assert migrated
        # Crucially: migration did not invalidate the private copies.
        for block in migrated:
            entry = system._secdir.private_resident[block]
            for core in entry.sharer_cores():
                assert system.cores[core].probe(block) is not None
        assert system.stats.dev_invalidations == 0

    def test_demand_access_reunifies(self):
        system = secdir()
        blocks = self.fill_shared_set(system)
        migrated = [b for b in blocks
                    if b in system._secdir.private_resident][0]
        holder = next(iter(
            system._secdir.private_resident[migrated].sharer_cores()))
        other = (holder + 1) % 4
        drive(system, [(other, "R", migrated)])
        assert migrated not in system._secdir.private_resident
        assert system._secdir.shared.peek(migrated) is not None

    def test_private_partition_self_conflict_generates_dev(self):
        system = secdir(ratio=0.5)
        # Shared: 8 sets x 5 ways; private: 1 set x 7 ways per core, so
        # migrations from *different* shared sets collide in a core's
        # private partition and generate the indirect DEVs SecDir cannot
        # avoid.
        script = []
        for tag in range(4):
            for set_idx in range(8):
                for core in range(4):
                    script.append(
                        (core, "R", set_idx + 8 * (4 * core + tag)))
        drive(system, script)
        assert system.stats.dev_invalidations >= 1

    def test_small_secdir_worse_than_large(self):
        def devs(ratio):
            system = secdir(ratio=ratio)
            script = [(c, "R", (3 * k + c) % 96)
                      for k in range(120) for c in range(4)]
            drive(system, script)
            return system.stats.dev_invalidations
        assert devs(0.125) >= devs(1.0)


class TestSecDirCoherence:
    def test_sharing_and_writes_stay_correct(self):
        system = secdir()
        drive(system, [(0, "W", 5), (1, "R", 5), (2, "R", 5),
                       (3, "W", 5), (0, "R", 5)])
        # Core 3's write invalidated 0/1/2; core 0's read downgraded 3.
        assert system.cores[1].probe(5) is None
        assert system.cores[2].probe(5) is None
        assert system.cores[3].probe(5) is MESI.S
        assert system.cores[0].probe(5) is MESI.S

    def test_eviction_notice_cleans_private_slot(self):
        system = secdir()
        blocks = [0] + [8 * k for k in range(1, 6)]
        drive(system, [(0, "R", b) for b in blocks])
        # Evict block 0 from core 0's L2 via set conflicts.
        conflicts = [8 * k for k in range(6, 10)]
        drive(system, [(0, "R", b) for b in conflicts])
        assert 0 not in system._secdir.privates[0]

    def test_soak_run_stays_invariant_clean(self, monkeypatch):
        system = secdir(ratio=0.25)
        script = [(c, "RWI"[k % 3], (5 * k + 3 * c) % 128)
                  for k in range(250) for c in range(4)]
        drive(system, script)   # drive() checks invariants at the end

        # With an inclusive LLC, an eviction frees its entry where it
        # sits: no back-invalidation re-unifies a private-resident
        # entry (which could push another entry out into its sharers'
        # private partitions), and every presence slot still belongs to
        # a private-resident entry that lists its core.
        unify, back_invalidate = (SecDirSystem._unify,
                                  SecDirSystem._back_invalidate)
        unified = {False: 0, True: 0}     # by: inside a back-invalidation
        inside = []

        def counted_unify(self, entry):
            unified[bool(inside)] += 1
            unify(self, entry)

        def marked_back_invalidate(self, bank, victim):
            inside.append(victim.block)
            try:
                back_invalidate(self, bank, victim)
            finally:
                inside.pop()

        monkeypatch.setattr(SecDirSystem, "_unify", counted_unify)
        monkeypatch.setattr(SecDirSystem, "_back_invalidate",
                            marked_back_invalidate)
        system = secdir(llc_design=LLCDesign.INCLUSIVE)
        rng = random.Random(4)
        for k in range(20000):
            core = k % 4
            block = (200 * core + rng.randrange(200)
                     if rng.random() < 0.9 else rng.randrange(800))
            system.access(core, OPS["RWI"[rng.randrange(3)]],
                          block << BLOCK_SHIFT)
            if k % 2000 == 1999:
                system.check_invariants()
        assert system.stats.inclusion_invalidations > 1000
        assert unified[True] == 0 < unified[False]
        slots = {(core, block)
                 for core, partition in enumerate(system._secdir.privates)
                 for block in partition._resident}
        assert slots and slots == {
            (core, block)
            for block, entry in system._secdir.private_resident.items()
            for core in entry.sharer_cores()}
