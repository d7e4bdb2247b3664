#!/usr/bin/env python
"""CI gate: the memoized model checker is clean and still has teeth.

Six assertions, mirroring the contract in PROTOCOL.md:

1. **Clean matrix.** Every model of the verification matrix (all
   ZeroDEV policy x replacement x LLC designs, the sparse baselines,
   SecDir, MgD, the DLS and hybrid update/invalidate contenders, and
   both 2-socket solutions) explores to the CI depth over the micro
   alphabet with zero counterexamples -- the contenders' presence is
   asserted, so the matrix cannot silently shrink back to 14 -- and
   explores exactly the pinned numbers of unique states and
   transitions.
2. **The checker catches what fuzz misses.** Every seeded protocol
   mutation from repro.verify.mutations is refuted by the frontier at
   its documented depth with exactly its pinned counterexample (path,
   error type and message: a check rewrite that changes which
   violation fires first, or its wording, fails here), while the
   pinned fixed-seed, fixed-budget, short-trace fuzz baseline stays
   green on at least one of them -- the coverage gap that justifies
   the model checker's existence.
3. **Parallel bit-identity.** jobs=1 and jobs=4 produce byte-identical
   reports (counters, per-level ledger, counterexample path) on a clean
   model and on the deepest seeded mutation.
4. **Symmetry soundness in anger.** The full mutation gate still
   catches every seeded bug with orbit-minimal canonicalization on,
   with the same pinned counterexamples.
5. **Symmetry depth gate.** With symmetry on, a clean stats model
   completes CI_DEPTH + 2 uncapped -- the state-collapse the reduction
   exists to buy.
6. **Hybrid under directory pressure.** ``hybrid-quarter``, a gate-only
   spec (the matrix ``hybrid`` runs at a 1x directory), explores to the
   CI depth clean with exactly its pinned numbers of unique states and
   transitions: the one state space the matrix pins do not cover.

Everything is deterministic (BFS order, pinned seeds, order-insensitive
merges), so any failure is a protocol or checker regression, not noise.
"""

from __future__ import annotations

import sys
import time

from repro.common.config import DirectoryConfig, Protocol
from repro.verify.modelcheck import (check_matrix, explore_model,
                                     mutation_gate)
from repro.verify.models import ModelSpec, micro_config, model_by_name
from repro.verify.mutations import MUTATIONS
from repro.workloads.trace import Op

CI_DEPTH = 4
R, W = Op.READ, Op.WRITE
#: Each clean-matrix model at CI_DEPTH: (unique states, transitions).
MATRIX_PINNED = {
    "baseline-1x": (1641, 5376), "baseline-quarter": (3577, 9600),
    "secdir": (1257, 4800), "mgd": (1257, 4800), "dls": (1257, 4800),
    "hybrid": (1551, 5304), "zerodev-spill-all": (2281, 6744),
    "zerodev-fuse-private-spill-shared": (1329, 4800),
    "zerodev-fuse-all": (1257, 4800),
    "zerodev-fpss-epd": (1316, 4800),
    "zerodev-fpss-inclusive": (1043, 4368),
    "zerodev-fuse-private-spill-shared-splru": (1329, 4800),
    "zerodev-spill-all-splru": (1705, 5376),
    "baseline-2socket": (2211, 6012),
    "zerodev-2socket-sol1": (2299, 6204),
    "zerodev-2socket-sol2": (2299, 6204),
}
#: Each seeded mutation's BFS-first counterexample: the (core, op,
#: block) path, the error type and its message.
MUTATION_PINNED = {
    "dev-leak-sharer": (
        ((0, R, 0), (0, R, 8), (0, R, 4)), "ProtocolInvariantError",
        "baseline eviction notice for untracked block 0x0 from core 0"),
    "drop-splru-reorder": (
        ((0, R, 0), (0, R, 8), (1, R, 0), (1, R, 8)), "DivergenceError",
        "spLRU order inverted for block 0x8: spilled entry is older than "
        "its block"),
    "skip-corrupt-restore": (
        ((0, W, 0), (0, R, 8), (0, R, 16)), "ProtocolInvariantError",
        "case (iiib): block 0x0 resident in LLC while its entry is "
        "housed in memory"),
    "skip-denf-nack": (
        ((0, W, 0), (0, W, 8), (0, W, 16), (1, R, 8), (1, R, 0),
         (1, R, 16), (1, R, 8)), "ProtocolInvariantError",
        "stale data: block 0x8 read from GETS response returned version "
        "0, latest is 1"),
    "skip-socket-restore": (
        ((1, R, 0), (1, R, 8), (1, R, 16)), "ProtocolInvariantError",
        "corrupted block 0x0 has no socket sharers"),
}
DEPTH_GATE_MODEL = "zerodev-fuse-private-spill-shared"
IDENTITY_MUTATION = "skip-denf-nack"
#: The update protocol with a quarter-size directory, so its entry
#: evictions fire at the CI depth, and its (unique states, transitions)
#: there.  A change to either is a change in what the frontier
#: explores, never noise.
HYBRID_QUARTER = ModelSpec(
    "hybrid-quarter",
    micro_config(protocol=Protocol.HYBRID,
                 directory=DirectoryConfig(ratio=0.25)))
HYBRID_QUARTER_PINNED = (3455, 9528)


def _identity_reports(**kwargs):
    return [report.identity_bytes() for report in (
        explore_model(jobs=jobs, **kwargs) for jobs in (1, 4))]


def _unpinned_counterexamples(verdicts) -> list:
    """The verdicts whose counterexample is not the pinned one."""
    wrong = []
    for verdict in verdicts:
        cex = verdict.counterexample
        found = None if cex is None else (
            tuple(cex.sequence), type(cex.error).__name__, str(cex.error))
        if found != MUTATION_PINNED.get(verdict.mutation):
            wrong.append(f"{verdict.mutation}: {found}")
    return wrong


def main() -> int:
    started = time.perf_counter()
    reports = check_matrix(CI_DEPTH)
    for report in reports:
        print(report.summary())
    explored = {r.model for r in reports}
    missing_contenders = {"dls", "hybrid"} - explored
    if missing_contenders:
        print("FAIL: contender model(s) absent from the clean-matrix "
              "leg: " + ", ".join(sorted(missing_contenders)))
        return 1
    failures = [r for r in reports if not r.ok]
    if failures:
        print(f"FAIL: {len(failures)} counterexample(s) at depth "
              f"{CI_DEPTH}")
        return 1
    capped = [r for r in reports if r.capped]
    if capped:
        print(f"FAIL: {len(capped)} exploration(s) capped before depth "
              f"{CI_DEPTH} -- raise the ceiling, the depth is the gate")
        return 1
    counts = {r.model: (r.unique_states, r.transitions) for r in reports}
    if counts != MATRIX_PINNED:
        moved = sorted(set(counts.items()) ^ set(MATRIX_PINNED.items()))
        print(f"FAIL: the clean matrix explored other (unique states, "
              f"transitions) than pinned: {moved}")
        return 1

    # jobs=1 vs jobs=4 bit-identity: a clean model, then the deepest
    # mutation (its counterexample path must be the BFS-first one on
    # both).
    clean = _identity_reports(spec=model_by_name(DEPTH_GATE_MODEL),
                              depth=CI_DEPTH)
    if clean[0] != clean[1]:
        print(f"FAIL: jobs=1 vs jobs=4 reports differ on clean "
              f"{DEPTH_GATE_MODEL}:\n  {clean[0]!r}\n  {clean[1]!r}")
        return 1
    mutation = MUTATIONS[IDENTITY_MUTATION]
    mutant = _identity_reports(
        spec=model_by_name(mutation.reference_model),
        depth=mutation.catch_depth, blocks=mutation.blocks,
        symbols=mutation.symbols or None, mutation=IDENTITY_MUTATION)
    if mutant[0] != mutant[1]:
        print(f"FAIL: jobs=1 vs jobs=4 reports differ on "
              f"{IDENTITY_MUTATION}:\n  {mutant[0]!r}\n  {mutant[1]!r}")
        return 1
    print(f"parallel identity: jobs=1 == jobs=4 on {DEPTH_GATE_MODEL} "
          f"and {IDENTITY_MUTATION}")

    verdicts = mutation_gate()
    for verdict in verdicts:
        print(verdict.summary())
    missed_by_modelcheck = [v.mutation for v in verdicts
                            if not v.caught_by_modelcheck]
    if missed_by_modelcheck:
        print("FAIL: modelcheck missed seeded mutation(s): "
              + ", ".join(missed_by_modelcheck))
        return 1
    wrong = _unpinned_counterexamples(verdicts)
    if wrong or len(verdicts) != len(MUTATION_PINNED):
        print("FAIL: counterexample(s) differ from the pinned ones: "
              + "; ".join(wrong or [f"{len(verdicts)} mutations, "
                                    f"{len(MUTATION_PINNED)} pinned"]))
        return 1
    missed_by_fuzz = [v.mutation for v in verdicts if not v.fuzz_caught]
    if not missed_by_fuzz:
        print("FAIL: the fixed-budget fuzz baseline caught every "
              "mutation; the gate no longer demonstrates the coverage "
              "gap -- seed a deeper bug")
        return 1

    # Symmetry soundness in anger: every mutation still refuted under
    # orbit-minimal canonicalization (fuzz leg already pinned above).
    symmetric = mutation_gate(run_fuzz=False, symmetry=True)
    missed_with_symmetry = [v.mutation for v in symmetric
                            if not v.caught_by_modelcheck]
    if missed_with_symmetry:
        print("FAIL: symmetry reduction hid seeded mutation(s): "
              + ", ".join(missed_with_symmetry))
        return 1
    wrong = _unpinned_counterexamples(symmetric)
    if wrong:
        print("FAIL: with --symmetry, counterexample(s) differ from the "
              "pinned ones: " + "; ".join(wrong))
        return 1
    print(f"symmetry gate: all {len(symmetric)} mutations caught with "
          f"--symmetry")

    # Symmetry depth gate: +2 depth, uncapped, on a clean stats model.
    deep = explore_model(model_by_name(DEPTH_GATE_MODEL), CI_DEPTH + 2,
                         symmetry=True)
    print(deep.summary())
    if not deep.ok or deep.capped or deep.depth_reached != CI_DEPTH + 2:
        print(f"FAIL: symmetry-on exploration of {DEPTH_GATE_MODEL} "
              f"did not complete depth {CI_DEPTH + 2} cleanly")
        return 1

    hybrid = explore_model(HYBRID_QUARTER, CI_DEPTH)
    print(hybrid.summary())
    if not hybrid.ok or hybrid.capped:
        print(f"FAIL: {HYBRID_QUARTER.name} is not clean at depth "
              f"{CI_DEPTH}")
        return 1
    counts = (hybrid.unique_states, hybrid.transitions)
    if counts != HYBRID_QUARTER_PINNED:
        print(f"FAIL: {HYBRID_QUARTER.name} explored {counts} (unique "
              f"states, transitions), pinned {HYBRID_QUARTER_PINNED}")
        return 1

    print(f"OK: {len(reports)} models clean at depth {CI_DEPTH}, "
          f"jobs=1==jobs=4, {len(verdicts)} mutations caught by "
          f"modelcheck ({len(missed_by_fuzz)} missed by fuzz: "
          f"{', '.join(missed_by_fuzz)}), symmetry gate clean at depth "
          f"{CI_DEPTH + 2}, {HYBRID_QUARTER.name} pinned "
          f"[{time.perf_counter() - started:.1f}s]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
