#!/usr/bin/env python
"""CI gate: the memoized model checker is clean and still has teeth.

Six assertions, mirroring the contract in PROTOCOL.md:

1. **Clean matrix.** Every model of the verification matrix (all
   ZeroDEV policy x replacement x LLC designs, the sparse baselines,
   SecDir, MgD, the DLS and hybrid update/invalidate contenders, and
   both 2-socket solutions) explores to the CI depth over the micro
   alphabet with zero counterexamples -- the contenders' presence is
   asserted, so the matrix cannot silently shrink back to 14.
2. **The checker catches what fuzz misses.** Every seeded protocol
   mutation from repro.verify.mutations is refuted by the frontier at
   its documented depth, while the pinned fixed-seed, fixed-budget,
   short-trace fuzz baseline stays green on at least one of them --
   the coverage gap that justifies the model checker's existence.
3. **Parallel bit-identity.** jobs=1 and jobs=4 produce byte-identical
   reports (counters, per-level ledger, counterexample path) on a clean
   model and on the deepest seeded mutation.
4. **Symmetry soundness in anger.** The full mutation gate still
   catches every seeded bug with orbit-minimal canonicalization on.
5. **Symmetry depth gate.** With symmetry on, a clean stats model
   completes CI_DEPTH + 2 uncapped -- the state-collapse the reduction
   exists to buy.
6. **The frontier's other caller.** ``repro verify --depth 4`` on each
   of its six protocols (``ExhaustiveExplorer.explore_memoized``, whose
   snapshots keep their own stats) is clean, reports byte-identically
   at jobs=1 and jobs=2, and explores exactly the pinned numbers of
   unique states and transitions.

Everything is deterministic (BFS order, pinned seeds, order-insensitive
merges), so any failure is a protocol or checker regression, not noise.
"""

from __future__ import annotations

import sys
import time

from repro.cli import verify_explorer
from repro.verify.modelcheck import (check_matrix, explore_model,
                                     mutation_gate)
from repro.verify.models import model_by_name
from repro.verify.mutations import MUTATIONS

CI_DEPTH = 4
DEPTH_GATE_MODEL = "zerodev-fuse-private-spill-shared"
IDENTITY_MUTATION = "skip-denf-nack"
#: ``repro verify --protocol P --depth CI_DEPTH``: (unique states,
#: transitions) per protocol.  A change to either is a change in what
#: the frontier explores, never noise.
VERIFY_PINNED = {
    "baseline": (3577, 9600), "zerodev": (1329, 4800),
    "secdir": (1257, 4800), "mgd": (1257, 4800),
    "dls": (1257, 4800), "hybrid": (3455, 9528),
}


def _identity_reports(**kwargs):
    return [report.identity_bytes() for report in (
        explore_model(jobs=jobs, **kwargs) for jobs in (1, 4))]


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

    # explore_memoized: the six `repro verify` protocols, jobs 1 and 2.
    for protocol, pinned in VERIFY_PINNED.items():
        serial, forked = (
            verify_explorer(protocol).explore_memoized(CI_DEPTH, jobs=jobs)
            for jobs in (1, 2))
        counts = (serial.unique_states, serial.transitions)
        print(f"verify {protocol}: {counts[0]:,} unique states, "
              f"{counts[1]:,} transitions at depth {serial.depth_reached}")
        if not serial.ok or serial.capped:
            print(f"FAIL: repro verify --protocol {protocol} --depth "
                  f"{CI_DEPTH} is not clean: {serial.summary()}")
            return 1
        if serial.identity_bytes() != forked.identity_bytes():
            print(f"FAIL: explore_memoized jobs=1 vs jobs=2 reports "
                  f"differ on {protocol}:\n  {serial.identity_bytes()!r}"
                  f"\n  {forked.identity_bytes()!r}")
            return 1
        if counts != pinned:
            print(f"FAIL: {protocol} explored {counts} (unique states, "
                  f"transitions), pinned {pinned}")
            return 1

    print(f"OK: {len(reports)} models clean at depth {CI_DEPTH}, "
          f"jobs=1==jobs=4, {len(verdicts)} mutations caught by "
          f"modelcheck ({len(missed_by_fuzz)} missed by fuzz: "
          f"{', '.join(missed_by_fuzz)}), symmetry gate clean at depth "
          f"{CI_DEPTH + 2}, {len(VERIFY_PINNED)} verify protocols pinned "
          f"at jobs=1==jobs=2 [{time.perf_counter() - started:.1f}s]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
