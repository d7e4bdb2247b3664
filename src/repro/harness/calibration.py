"""Calibration probes: measure the quantities the paper anchors on.

Section III-C2 reports, per suite, the fraction of directory entries that
track *shared* (S-state) blocks -- the quantity that determines FPSS's
LLC pressure (fused M/E entries are free; spilled S entries occupy
frames): PARSEC ~10%, SPLASH2X ~19%, SPEC OMP ~0.5%, FFTW ~0, SPEC
CPU2017 rate ~9% (from code pages shared between the copies). These
probes measure the same quantities on the synthetic workloads, anchoring
the generator calibration to the paper's data rather than to guesswork.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.coherence.entry import DirState
from repro.coherence.protocol import CMPSystem
from repro.common.config import DirectoryConfig, SystemConfig
from repro.harness.parallel import record_runs
from repro.harness.runner import run_workload
from repro.harness.system_builder import build_system
from repro.workloads.trace import Workload

#: The Section III-C2 anchors (suite -> shared-entry fraction).
PAPER_SHARED_ENTRY_FRACTION = {
    "PARSEC": 0.10,
    "SPLASH2X": 0.19,
    "SPECOMP": 0.005,
    "FFTW": 0.0,
    "CPU2017": 0.09,
}


def shared_entry_fraction(system: CMPSystem) -> float:
    """Fraction of live directory entries in S state, sampled now."""
    assert system.directory is not None
    entries = list(system.directory.entries())
    if not entries:
        return 0.0
    shared = sum(1 for entry in entries
                 if entry.state is DirState.S)
    return shared / len(entries)


def measure_shared_fraction(config: SystemConfig, workload: Workload,
                            samples: int = 20) -> float:
    """Average S-entry fraction over a run (unbounded directory so the
    directory contents mirror exactly what is privately cached)."""
    probe_config = config.with_(
        directory=DirectoryConfig(unbounded=True))
    system = build_system(probe_config)
    observations: List[float] = []
    interval = max(1, workload.total_accesses // samples)

    def probe(sys_) -> None:
        observations.append(shared_entry_fraction(sys_))

    # The one run outside run_many: its samples are taken mid-run, and
    # no statistic a run returns reproduces them (DESIGN.md section 8).
    # It is counted in the session telemetry like a batch run.
    result = run_workload(system, workload, sample_every=interval,
                          sample_fn=probe)
    record_runs(1, result.wall_seconds, result.accesses)
    observations.append(shared_entry_fraction(system))
    # Skip the cold-start samples (everything starts exclusive).
    steady = observations[len(observations) // 4:]
    return sum(steady) / len(steady)


def suite_shared_fractions(config: SystemConfig,
                           workloads_by_suite: Dict[str, List[Workload]]
                           ) -> Dict[str, Tuple[float, float]]:
    """Measured vs paper shared-entry fraction per suite."""
    results = {}
    for suite, workloads in workloads_by_suite.items():
        measured = [measure_shared_fraction(config, workload)
                    for workload in workloads]
        results[suite] = (sum(measured) / len(measured),
                          PAPER_SHARED_ENTRY_FRACTION.get(suite, 0.0))
    return results
