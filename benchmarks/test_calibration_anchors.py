"""Calibration anchors: the Section III-C2 shared-entry fractions.

The paper reports the fraction of directory entries that track shared
(S-state) blocks per suite -- the quantity that determines FPSS's LLC
pressure. This bench measures the same fractions on the synthetic
workloads and asserts the suite *ordering* the paper's data implies
(SPLASH2X most shared; PARSEC and CPU2017-rate moderate; SPEC OMP and
FFTW nearly none). Absolute fractions land within a small factor of the
paper's (see EXPERIMENTS.md).
"""

from repro.harness import experiments
from repro.harness.calibration import (PAPER_SHARED_ENTRY_FRACTION,
                                       suite_shared_fractions)
from repro.harness.reporting import Table
from repro.workloads.suites import make_multithreaded, make_rate_workload

from benchmarks.conftest import run_experiment


@experiments._instrumented                  # noqa: SLF001
def shared_fraction_anchors():
    config = experiments.default_config()
    n = max(experiments.accesses_per_core() // 2, 1500)
    workloads = {}
    for suite in ("PARSEC", "SPLASH2X", "SPECOMP", "FFTW"):
        workloads[suite] = [
            make_multithreaded(p, config, n, seed=11)
            for p in experiments.apps_of(suite)]
    workloads["CPU2017"] = [
        make_rate_workload(p, config, n, seed=11)
        for p in experiments.apps_of("CPU2017")[:4]]
    results = suite_shared_fractions(config, workloads)
    table = Table("Section III-C2 anchors: fraction of directory "
                  "entries tracking shared blocks")
    for suite, (measured, paper) in results.items():
        table.add(suite, measured, paper=paper)
    return table, results


def test_shared_fraction_anchors(benchmark):
    table, results = run_experiment(benchmark, shared_fraction_anchors,
                                    "calibration_anchors")
    measured = {suite: value for suite, (value, _) in results.items()}
    # Suite ordering per the paper's data.
    assert measured["SPLASH2X"] >= measured["PARSEC"] - 0.02
    assert measured["PARSEC"] > measured["SPECOMP"]
    assert measured["CPU2017"] > measured["SPECOMP"] - 0.01
    assert measured["SPECOMP"] < 0.05
    assert measured["FFTW"] < 0.05
    # Magnitudes within a small factor of the paper's.
    for suite, (value, paper) in results.items():
        if paper >= 0.05:
            assert paper / 3 < value < paper * 3, suite
