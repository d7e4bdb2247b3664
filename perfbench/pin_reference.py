"""Regenerate ``reference.json``, the outputs the benchmark checks.

Run from the repository root::

    python3 perfbench/pin_reference.py

It simulates every simulation workload at each pinned seed, explores
both verify models once, and runs the fuzz campaign of each pinned seed
(single worker: a campaign's report is the same at any worker count).
Only regenerate when a change is meant to alter simulated behaviour.
"""

import json
import sys

from run import ROOT, pin_environment

#: Seeds with a pinned reference.  The default is 11 (the figures');
#: 29 is held out: tuning never looks at it, and a claimed gain must
#: also hold on it.
SEEDS = tuple(range(32))
HELD_OUT_SEED = 29


def main() -> int:
    pin_environment()
    sys.path.insert(0, str(ROOT / "src"))
    import reference
    import suite
    from repro.verify import differential, modelcheck
    from speed import SpeedMeter

    meter = SpeedMeter()            # never started: times are not used

    pinned = {"stats_fields": list(reference.STATS_FIELDS),
              "seeds": list(SEEDS), "default_seed": 11,
              "held_out_seed": HELD_OUT_SEED,
              "sim": {}, "explore": {}, "fuzz": {}}
    for name in suite.SIM_WORKLOADS:
        pinned["sim"][name] = {}
        for seed in SEEDS:
            workload = suite.make(name, seed)
            workload.setup()
            batch = workload.run_batch(meter)
            for result, expected in zip(batch.parts["results"],
                                        workload.expected_accesses()):
                if result.stats.total_accesses != expected:
                    raise SystemExit(f"{name} seed {seed}: lost accesses")
            pinned["sim"][name][str(seed)] = workload.digests(batch)
            print(f"{name} seed {seed}: {batch.wall:.2f}s", flush=True)
    verify = suite.make("verify", 0)
    verify.setup()
    for spec in verify.specs:
        report = modelcheck.explore_model(spec, suite.VERIFY_DEPTH, jobs=1)
        if not report.ok:
            raise SystemExit(report.summary())
        pinned["explore"][f"{spec.name}@{suite.VERIFY_DEPTH}"] = {
            "digest": reference.explore_digest(report),
            "unique_states": report.unique_states,
            "transitions": report.transitions}
    for seed in SEEDS:
        report = differential.run_campaign(seed, suite.FUZZ_BUDGET, jobs=1,
                                           shrink=False)
        if not report.ok:
            raise SystemExit(report.summary())
        pinned["fuzz"][str(seed)] = reference.fuzz_summary(report)
    reference.REFERENCE_PATH.write_text(
        json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
