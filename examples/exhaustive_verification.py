#!/usr/bin/env python
"""Bounded-exhaustive verification of the ZeroDEV protocol.

Reaches EVERY state that four memory accesses can produce (two cores,
reads and writes, three conflict-chosen blocks) on the verification
matrix's micro geometry with its deliberately cramped LLC, checking
after every single step: SWMR, directory precision, entry-location
exclusivity, the FPSS invariants, case-(iiib) unreachability, data
correctness, and the zero-DEV guarantee.

This is the style of validation Section III-D6 alludes to ("generating
the rule-sets governing this protocol case and the related invariants
requires careful consideration") -- here the implementation is the
rule-set and the model checker (``repro modelcheck``) is the checker.

Run:  python examples/exhaustive_verification.py
"""

from repro.common.config import DirCachingPolicy
from repro.verify.modelcheck import explore_model
from repro.verify.models import model_by_name


def main() -> None:
    for policy in DirCachingPolicy:
        report = explore_model(model_by_name(f"zerodev-{policy.value}"),
                               depth=4)
        status = "OK" if report.ok else f"FAILED: "\
            f"{report.counterexample}"
        print(f"{policy.name:>10}: {report.unique_states:,} unique "
              f"states, {report.transitions:,} transitions checked "
              f"in {report.elapsed_s:.1f}s -> {status}")
        assert report.ok
    print("\nEvery reachable state up to the depth bound satisfies all "
          "protocol invariants, for all three caching policies.")


if __name__ == "__main__":
    main()
