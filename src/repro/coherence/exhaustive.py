"""Exhaustive state-space exploration of the coherence protocols.

A lightweight model checker for the simulator: reach *every* state a
bounded number of accesses can produce over a micro configuration (few
cores, few blocks, tiny caches) and check the full invariant set --
SWMR, directory precision, entry-location exclusivity, data correctness
(built into every read), and the ZeroDEV guarantee -- after every step.

Unlike the randomized hypothesis tests, exploration is complete up to the
depth bound: any protocol bug reachable within ``depth`` accesses over the
chosen alphabet *will* be found, and the failing sequence is reported as a
counterexample prefix.  The exhaustive engine is the memoized snapshot
frontier of :mod:`repro.verify.modelcheck`; this module adds the uniform
sampler for depths where even that is intractable.

This mirrors how the paper's protocol extensions would be validated with
a model checker ("Generating the rule-sets governing this protocol case
and the related invariants requires careful consideration", Section
III-D6) -- here the rule-set is the implementation itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

from repro.common.addressing import BLOCK_SHIFT
from repro.common.config import SystemConfig
from repro.harness.campaign import NO_RETRIES, campaign_map, values_of
from repro.harness.system_builder import build_system
from repro.workloads.trace import Op


#: Sequences per worker item when ``explore_sampled`` fans out: one
#: depth-8 sequence takes about 0.25 ms, too little to ship alone.
SAMPLE_CHUNK = 8


@dataclass
class Counterexample:
    """A failing access sequence and the error it triggered."""

    sequence: Tuple[Tuple[int, Op, int], ...]
    error: Exception

    def __str__(self) -> str:
        steps = ", ".join(f"c{core}:{op.name[0]}@{block}"
                          for core, op, block in self.sequence)
        return f"[{steps}] -> {self.error}"


@dataclass
class ExplorationReport:
    """Outcome of one sampled exploration."""

    depth: int
    alphabet_size: int
    sequences_explored: int = 0
    states_checked: int = 0
    counterexample: Optional[Counterexample] = None

    @property
    def ok(self) -> bool:
        return self.counterexample is None


class ExhaustiveExplorer:
    """Depth-bounded exploration over an access alphabet.

    :meth:`explore_memoized` is exhaustive: it runs the snapshot
    frontier of :mod:`repro.verify.modelcheck`, which does O(1) work per
    transition and collapses interleavings that reach the same state.
    :meth:`explore_sampled` draws whole sequences instead and replays
    each from scratch on a fresh system (the simulator is
    deterministic, so a replay always reaches the same state);
    :meth:`replay` reproduces one of its counterexamples.
    """

    def __init__(self, config_factory: Callable[[], SystemConfig],
                 cores: Sequence[int], blocks: Sequence[int],
                 ops: Sequence[Op] = (Op.READ, Op.WRITE),
                 extra_check: Optional[Callable] = None) -> None:
        self._config_factory = config_factory
        self._alphabet = [(core, op, block)
                          for core in cores
                          for op in ops
                          for block in blocks]
        self._extra_check = extra_check

    def _check(self, system) -> None:
        system.check_invariants()
        if self._extra_check is not None:
            self._extra_check(system)

    def _evaluate(self, sequence
                  ) -> Tuple[int, Optional[Counterexample]]:
        """Run one sequence end to end on a fresh system.

        Returns ``(states_checked, counterexample)``: 1 checked state
        when the end-of-sequence invariant check passed, else the
        failing prefix (or full sequence) with its error.
        """
        system = build_system(self._config_factory())
        for index, (core, op, block) in enumerate(sequence):
            try:
                system.access(core, op, block << BLOCK_SHIFT)
            except Exception as error:     # noqa: BLE001 - reported
                return 0, Counterexample(sequence[:index + 1], error)
        try:
            self._check(system)
            return 1, None
        except Exception as error:         # noqa: BLE001 - reported
            return 0, Counterexample(sequence, error)

    def replay(self, sequence) -> Optional[Counterexample]:
        """Re-run a (counterexample) sequence under the same check
        discipline as :meth:`explore_sampled`; returns the reproduced
        failure, or None when the sequence now passes."""
        _, counterexample = self._evaluate(tuple(sequence))
        return counterexample

    def explore_memoized(self, depth: int, max_states: int = 250_000,
                         budget_s: Optional[float] = None,
                         jobs: int = 1):
        """Check every state reachable in at most ``depth`` accesses.

        Run by :mod:`repro.verify.modelcheck`'s snapshot frontier: the
        invariants (plus ``extra_check``) are checked after every
        transition, interleavings that reach the same canonical state
        are expanded once, and each transition costs O(1) instead of
        O(depth).  Snapshots share only the config tree: every state
        keeps its own stats, mesh and DRAM model, so ``extra_check``
        may read a state's stats.  ``jobs`` fork workers share each
        frontier level; the report is identical at any count.  Returns
        a :class:`~repro.verify.modelcheck.ModelCheckReport`.
        """
        from repro.verify.modelcheck import (ModelCheckReport,
                                             _explore_frontier,
                                             system_key)
        config = self._config_factory()
        report = ModelCheckReport(config.protocol.value, depth,
                                  len(self._alphabet), jobs=jobs)

        def issue(system, symbol) -> None:
            core, op, block = symbol
            system.access(core, op, block << BLOCK_SHIFT)

        def trim(system) -> None:
            for hier in system.cores:
                hier.shrink_log.clear()

        return _explore_frontier(
            report, lambda: build_system(self._config_factory()),
            issue, self._check, system_key, trim, self._alphabet,
            depth, max_states, budget_s, jobs=jobs)

    def explore_sampled(self, depth: int, samples: int, seed: int = 0,
                        jobs: int = 1) -> ExplorationReport:
        """Uniformly sample ``samples`` sequences of ``depth`` accesses
        (for depths where the full product is intractable).

        Reproducible from ``seed`` regardless of ``jobs``: every
        sequence is drawn from the seeded generator *before* any work is
        partitioned, sequences are evaluated independently (one fresh
        system each), and outcomes are folded in draw order -- the
        counterexample, when one exists, is always the lowest-index
        failing sequence, and the report is identical for every worker
        count. Fork workers take the sequences :data:`SAMPLE_CHUNK` at
        a time.
        """
        import random
        rng = random.Random(seed)
        sequences = [tuple(rng.choice(self._alphabet)
                           for _ in range(depth))
                     for _ in range(samples)]
        report = ExplorationReport(depth, len(self._alphabet))
        if jobs > 1:
            chunks = values_of(campaign_map(
                lambda chunk: [self._evaluate(s) for s in chunk],
                [sequences[start:start + SAMPLE_CHUNK]
                 for start in range(0, len(sequences), SAMPLE_CHUNK)],
                jobs=jobs, policy=NO_RETRIES))
            outcomes = (outcome for chunk in chunks for outcome in chunk)
        else:
            outcomes = map(self._evaluate, sequences)
        for checked, counterexample in outcomes:
            report.sequences_explored += 1
            if counterexample is not None:
                report.counterexample = counterexample
                return report
            report.states_checked += checked
        return report
