"""Generic parameter sweeps over system configurations.

A :class:`Sweep` runs a fixed set of workloads across a family of
configurations (one per parameter value), collecting speedups against a
reference configuration and any requested counters. The sizing example
and the ablation benches are built on this.

All runs go through :func:`repro.harness.parallel.run_many`: one batch
per ``run()`` call (reference runs first, then every point), so a sweep
parallelizes across points and workloads and shares baseline runs with
any other harness user via the session result cache. Baselines are
retained as cycle summaries only -- never as live systems -- so long
sweeps do not accumulate simulator state.

Long sweeps can run fault-tolerantly: ``run(..., resume=path)`` journals
every completed run through :mod:`repro.harness.campaign` and skips
journaled runs on re-execution (bit-identical points to an
uninterrupted sweep), while ``policy=`` adds per-run timeouts and
retries. A sweep that still has failed runs after retries raises
:class:`~repro.harness.campaign.CampaignError` naming the journal to
resume from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.config import SystemConfig
from repro.common.stats import SystemStats, weighted_speedup
from repro.harness.campaign import CampaignJournal, CampaignPolicy
from repro.harness.parallel import run_many
from repro.harness.reporting import geomean
from repro.harness.system_builder import build_system  # noqa: F401  (API)
from repro.workloads.trace import Workload


@dataclass(frozen=True)
class BaselineSummary:
    """The reference-run numbers a speedup computation needs -- nothing
    else (a full RunResult used to pin a live CMPSystem per workload)."""

    total_cycles: int
    per_core_cycles: Tuple[int, ...]


@dataclass
class SweepPoint:
    """Results at one parameter value."""

    value: object
    speedups: Dict[str, float] = field(default_factory=dict)
    counters: Dict[str, int] = field(default_factory=dict)

    @property
    def geomean_speedup(self) -> float:
        return geomean(list(self.speedups.values()))

    def accumulate_counters(self, names: Sequence[str],
                            stats: SystemStats) -> None:
        """Add this run's requested counters into the point's totals."""
        for name in names:
            self.counters[name] = (self.counters.get(name, 0)
                                   + getattr(stats, name))


class Sweep:
    """Run ``workloads`` over ``config_for(value)`` for each value.

    Parameters
    ----------
    reference:
        The configuration all speedups are normalized to.
    config_for:
        Maps a parameter value to the configuration under test.
    counters:
        Names of :class:`SystemStats` fields to accumulate per point.
    multiprog:
        Use weighted speedup (per-core ratios) instead of makespan.
    jobs:
        Worker processes per batch (None: the ``REPRO_JOBS`` default).
    """

    def __init__(self, reference: SystemConfig,
                 config_for: Callable[[object], SystemConfig],
                 counters: Sequence[str] = (),
                 multiprog: bool = False,
                 jobs: Optional[int] = None) -> None:
        self._reference = reference
        self._config_for = config_for
        self._counters = tuple(counters)
        self._multiprog = multiprog
        self._jobs = jobs
        self._baselines: Dict[str, BaselineSummary] = {}

    def _run_batch(self, specs, policy, journal) -> List:
        if policy is None and journal is not None:
            policy = CampaignPolicy()   # a resumable sweep retries
        return run_many(specs, jobs=self._jobs, policy=policy,
                        journal=journal)

    def _ensure_baselines(self, workloads: Sequence[Workload],
                          policy: Optional[CampaignPolicy] = None,
                          journal: Optional[CampaignJournal] = None
                          ) -> None:
        missing = [w for w in workloads if w.name not in self._baselines]
        if not missing:
            return
        runs = self._run_batch([(self._reference, w) for w in missing],
                               policy, journal)
        for workload, run in zip(missing, runs):
            self._baselines[workload.name] = BaselineSummary(
                run.cycles, tuple(run.per_core_cycles))

    def _speedup(self, base: BaselineSummary, stats: SystemStats) -> float:
        if self._multiprog:
            return weighted_speedup(list(base.per_core_cycles),
                                    list(stats.cycles))
        return (base.total_cycles / stats.total_cycles
                if stats.total_cycles else 1.0)

    def run(self, values: Sequence[object],
            workloads: Sequence[Workload],
            resume: Optional[object] = None,
            policy: Optional[CampaignPolicy] = None) -> List[SweepPoint]:
        """Collect one :class:`SweepPoint` per value.

        ``resume`` names a campaign journal (created if missing):
        completed runs are committed there and skipped when the sweep is
        re-executed after an interruption, with final points
        bit-identical to an uninterrupted sweep. ``policy`` adds per-run
        timeouts / retries (see :class:`CampaignPolicy`).
        """
        journal = None if resume is None else CampaignJournal(resume)
        try:
            self._ensure_baselines(workloads, policy, journal)
            configs = [self._config_for(value) for value in values]
            runs = self._run_batch([(config, workload)
                                    for config in configs
                                    for workload in workloads],
                                   policy, journal)
        finally:
            if journal is not None:
                journal.close()
        points = []
        cursor = iter(runs)
        for value in values:
            point = SweepPoint(value)
            for workload in workloads:
                result = next(cursor)
                base = self._baselines[workload.name]
                point.speedups[workload.name] = self._speedup(
                    base, result.stats)
                point.accumulate_counters(self._counters, result.stats)
            points.append(point)
        return points
