"""Bounded-exhaustive protocol verification (model-checking-lite).

These check *every* state reachable within the depth bound on micro
configurations, through the memoized snapshot frontier. The alphabets
cover all interesting interactions while keeping the frontier small:
two cores, blocks that collide in the directory and the caches, reads
and writes.
"""

import pytest

from repro.coherence.exhaustive import ExhaustiveExplorer
from repro.common.config import (CacheGeometry, DirCachingPolicy,
                                 DirectoryConfig, LLCDesign, LLCReplacement,
                                 Protocol, SystemConfig)
from repro.workloads.trace import Op


def micro_config(**overrides) -> SystemConfig:
    base = dict(
        n_cores=2,
        l1i=CacheGeometry(256, 2),     # 4 blocks
        l1d=CacheGeometry(256, 2),
        l2=CacheGeometry(512, 2),      # 8 blocks, 4 sets
        llc=CacheGeometry(1024, 2),    # 16 blocks, 8 sets, tiny!
        llc_banks=2,
        directory=DirectoryConfig(ratio=0.5),  # 8 entries
    )
    base.update(overrides)
    return SystemConfig(**base)


def zerodev_micro(**overrides) -> SystemConfig:
    defaults = dict(
        protocol=Protocol.ZERODEV,
        directory=DirectoryConfig(ratio=None),
        llc_replacement=LLCReplacement.DATA_LRU,
    )
    defaults.update(overrides)
    return micro_config(**defaults)


#: Blocks 0 and 8 share L2 set 0 and the directory set; 1 is disjoint.
BLOCKS = (0, 8, 1)


def no_devs(system):
    assert system.stats.dev_invalidations == 0


class TestExhaustiveBaseline:
    def test_depth_4_two_cores(self):
        explorer = ExhaustiveExplorer(micro_config, cores=(0, 1),
                                      blocks=BLOCKS)
        report = explorer.explore_memoized(depth=4)
        assert report.ok, str(report.counterexample)
        assert not report.capped
        assert report.depth_reached == 4
        assert report.alphabet_size == 2 * 2 * 3

    def test_depth_3_with_code_fetches(self):
        explorer = ExhaustiveExplorer(
            micro_config, cores=(0, 1), blocks=(0, 8),
            ops=(Op.READ, Op.WRITE, Op.IFETCH))
        report = explorer.explore_memoized(depth=3)
        assert report.ok, str(report.counterexample)

    def test_depth_3_inclusive(self):
        explorer = ExhaustiveExplorer(
            lambda: micro_config(llc_design=LLCDesign.INCLUSIVE),
            cores=(0, 1), blocks=BLOCKS)
        report = explorer.explore_memoized(depth=3)
        assert report.ok, str(report.counterexample)

    def test_depth_3_epd(self):
        explorer = ExhaustiveExplorer(
            lambda: micro_config(llc_design=LLCDesign.EPD),
            cores=(0, 1), blocks=BLOCKS)
        report = explorer.explore_memoized(depth=3)
        assert report.ok, str(report.counterexample)


class TestExhaustiveZeroDev:
    @pytest.mark.parametrize("policy", list(DirCachingPolicy))
    def test_depth_3_policies_dev_free(self, policy):
        explorer = ExhaustiveExplorer(
            lambda: zerodev_micro(dir_caching=policy),
            cores=(0, 1), blocks=BLOCKS, extra_check=no_devs)
        report = explorer.explore_memoized(depth=3)
        assert report.ok, str(report.counterexample)

    def test_depth_4_fpss(self):
        explorer = ExhaustiveExplorer(zerodev_micro, cores=(0, 1),
                                      blocks=BLOCKS, extra_check=no_devs)
        report = explorer.explore_memoized(depth=4)
        assert report.ok, str(report.counterexample)

    def test_jobs_do_not_change_the_report(self):
        # repro verify --depth N --jobs J forks frontier workers; the
        # report must be the serial one at any worker count.
        def own_stats(system):
            # Snapshots share only the config tree here: every state
            # keeps its own stats, so a level-L state has made exactly
            # L accesses (shared stats would count every transition).
            no_devs(system)
            assert system.stats.total_accesses <= 3

        reports = [ExhaustiveExplorer(zerodev_micro, cores=(0, 1),
                                      blocks=BLOCKS, extra_check=own_stats)
                   .explore_memoized(depth=3, jobs=jobs)
                   for jobs in (1, 2)]
        assert reports[0].ok
        assert reports[0].identity_bytes() == reports[1].identity_bytes()

    def test_deeper_sampled_exploration(self):
        explorer = ExhaustiveExplorer(zerodev_micro, cores=(0, 1),
                                      blocks=(0, 8, 16, 1),
                                      extra_check=no_devs)
        report = explorer.explore_sampled(depth=12, samples=400, seed=3)
        assert report.ok, str(report.counterexample)

    def test_counterexample_reporting(self):
        def broken_check(system):
            if system.stats.total_accesses:
                raise AssertionError("deliberate")

        explorer = ExhaustiveExplorer(zerodev_micro, cores=(0,),
                                      blocks=(0,),
                                      extra_check=broken_check)
        report = explorer.explore_memoized(depth=1)
        assert not report.ok
        assert len(report.counterexample.sequence) == 1
        assert "deliberate" in str(report.counterexample)


class TestSampledReproducibility:
    """explore_sampled must be a pure function of (seed, depth, samples)
    -- the worker count must never change what is explored or found."""

    def explorer(self, **kw):
        return ExhaustiveExplorer(zerodev_micro, cores=(0, 1),
                                  blocks=(0, 8, 16, 1),
                                  extra_check=no_devs, **kw)

    def test_same_seed_same_report_across_jobs(self):
        serial = self.explorer().explore_sampled(depth=8, samples=120,
                                                 seed=11, jobs=1)
        pooled = self.explorer().explore_sampled(depth=8, samples=120,
                                                 seed=11, jobs=2)
        assert serial.sequences_explored == pooled.sequences_explored
        assert serial.states_checked == pooled.states_checked
        assert (serial.counterexample is None) == (
            pooled.counterexample is None)

    def test_different_seeds_draw_different_sequences(self):
        import random
        explorer = self.explorer()
        draws = []
        for seed in (1, 2):
            rng = random.Random(seed)
            draws.append(tuple(
                tuple(rng.choice(explorer._alphabet) for _ in range(6))
                for _ in range(10)))
        assert draws[0] != draws[1]

    def test_counterexample_is_lowest_failing_index_and_replays(self):
        # A check that fails for any sequence touching block 8 makes
        # several samples fail; every jobs value must report the *same*
        # (first-drawn) counterexample, and replaying it must re-fail.
        def no_block_8(system):
            if system.cores[0].probe(8) is not None or \
               system.cores[1].probe(8) is not None or \
               system.bank_of(8).peek_data(8) is not None:
                raise AssertionError("block 8 touched")

        def make():
            return ExhaustiveExplorer(zerodev_micro, cores=(0, 1),
                                      blocks=(0, 8, 16, 1),
                                      extra_check=no_block_8)

        reports = [make().explore_sampled(depth=6, samples=80, seed=5,
                                          jobs=jobs)
                   for jobs in (1, 2)]
        assert all(not r.ok for r in reports)
        assert (reports[0].counterexample.sequence
                == reports[1].counterexample.sequence)
        assert (reports[0].sequences_explored
                == reports[1].sequences_explored)
        replayed = make().replay(reports[0].counterexample.sequence)
        assert replayed is not None
        assert "block 8 touched" in str(replayed.error)

    def test_replay_of_passing_sequence_returns_none(self):
        explorer = self.explorer()
        assert explorer.replay(((0, Op.READ, 0), (1, Op.READ, 0))) is None
