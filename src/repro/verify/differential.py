"""Differential fuzz campaigns: every trace through every model.

A campaign draws ``budget`` adversarial traces (seeded, reproducible at
any ``jobs`` value -- same discipline as the sampled protocol explorer)
and runs each through the whole model matrix. Three things count as a
divergence:

* any run raising -- a protocol assertion, the shadow oracle, a
  structural LLC/housing check, or the final read-back;
* a ZeroDEV model finishing with DEV invalidations;
* models disagreeing on the final committed-version map for the same
  trace (they executed the same writes, so the digests must be equal).

With ``fault`` set, the campaign becomes a fault-injection soak over
the models carrying that seam: *detectable* faults must turn into
non-``ok`` outcomes in every run where they fired, *graceful* faults
must change nothing. Either way the campaign reports whether the fault
actually fired -- an injection that never reaches its seam is a
coverage failure, not a pass.

Failing runs are ddmin-shrunk to minimal reproducers, optionally
emitted as replayable ``.npz`` + pytest regressions.

Campaigns are *fault tolerant at the harness level* too: every
(trace, model) run executes under
:func:`repro.harness.campaign.campaign_map`, so a crashed or wedged
worker turns into a recorded harness failure (after retries) instead of
aborting the matrix -- every other run's outcome is kept, and the report
says exactly which runs are missing. With ``resume=<journal>`` each
completed run is committed to an append-only journal and a re-invoked
campaign (``repro fuzz --resume``) skips the committed runs, producing
the identical report an uninterrupted campaign would have produced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.common.errors import ConfigError
from repro.harness.campaign import (CampaignJournal, CampaignPolicy,
                                    RunSuccess, campaign_map)
from repro.verify.faults import DETECTABLE, FaultPlan, arm_fault
from repro.verify.models import ModelSpec, micro_config, model_matrix
from repro.verify.oracle import Outcome, run_trace
from repro.verify.shrink import emit_regression, shrink_trace
from repro.verify.tracegen import FuzzTrace, TraceGenerator, TraceGeometry

#: Cap on how many divergences are shrunk per campaign (each shrink is
#: O(n^2) re-runs; past the first few, more reproducers add no signal).
MAX_SHRINKS = 4


@dataclass
class Divergence:
    """One failing (model, trace) pair, plus its reduction if made."""

    outcome: Outcome
    trace: FuzzTrace
    minimized: Optional[FuzzTrace] = None
    minimized_outcome: Optional[Outcome] = None
    npz_path: Optional[str] = None
    test_path: Optional[str] = None

    def __str__(self) -> str:
        text = str(self.minimized_outcome or self.outcome)
        if self.minimized is not None:
            text += f" [shrunk {len(self.trace)} -> {len(self.minimized)}]"
        if self.npz_path:
            text += f" -> {self.npz_path}"
        return text


@dataclass
class FuzzReport:
    """Outcome of one campaign."""

    seed: int
    budget: int
    models: Tuple[str, ...]
    runs: int = 0
    traces_run: int = 0
    divergences: List[Divergence] = field(default_factory=list)
    digest_mismatches: List[str] = field(default_factory=list)
    fault: Optional[str] = None
    fault_fired_runs: int = 0
    fault_detected_runs: int = 0
    fault_missed: List[Outcome] = field(default_factory=list)
    harness_failures: List[str] = field(default_factory=list)
    resumed_runs: int = 0
    retried_runs: int = 0
    journal_path: Optional[str] = None

    @property
    def clean(self) -> bool:
        """No divergences in the runs that *did* complete."""
        if self.fault is not None:
            # An injection campaign succeeds when the fault fired
            # somewhere and every firing was handled per its contract.
            return bool(self.fault_fired_runs) and not self.fault_missed
        return not self.divergences and not self.digest_mismatches

    @property
    def partial(self) -> bool:
        """Verdict clean so far, but some runs never produced a result
        (worker crash / timeout after retries) -- resume to finish."""
        return self.clean and bool(self.harness_failures)

    @property
    def ok(self) -> bool:
        return self.clean and not self.harness_failures

    def summary(self) -> str:
        lines = [f"fuzz seed={self.seed} budget={self.budget}: "
                 f"{self.traces_run} traces x {len(self.models)} models, "
                 f"{self.runs} runs"]
        if self.resumed_runs or self.retried_runs:
            lines.append(f"  campaign: {self.resumed_runs} runs resumed "
                         f"from journal, {self.retried_runs} retried")
        for failure in self.harness_failures:
            lines.append(f"  HARNESS FAILURE: {failure}")
        if self.partial:
            hint = (f" --resume {self.journal_path}" if self.journal_path
                    else "")
            lines.append("  PARTIAL: no divergences in completed runs, "
                         f"but {len(self.harness_failures)} run(s) "
                         f"missing; re-run{hint} to finish")
        if self.fault is not None:
            verdict = "ok" if self.clean else "FAILED"
            lines.append(
                f"  injected {self.fault}: fired in "
                f"{self.fault_fired_runs} runs, detected in "
                f"{self.fault_detected_runs}, contract {verdict}")
            for outcome in self.fault_missed:
                lines.append(f"  MISSED: {outcome}")
        for mismatch in self.digest_mismatches:
            lines.append(f"  DIGEST: {mismatch}")
        for divergence in self.divergences:
            lines.append(f"  DIVERGENCE: {divergence}")
        if self.ok and self.fault is None:
            lines.append("  no divergences")
        return "\n".join(lines)


@dataclass
class CampaignPlan:
    """The deterministic (trace x model) grid one campaign executes.

    :func:`run_campaign` executes it one flat position at a time
    (trace-major, model-minor) under ``campaign_map`` and folds the
    outcomes back in that order, so the report is the same at any
    ``jobs`` value and after a resume.
    """

    specs: List[ModelSpec]
    traces: List[FuzzTrace]
    check_every: int = 1
    fault: Optional[FaultPlan] = None

    def __len__(self) -> int:
        return len(self.traces) * len(self.specs)

    @property
    def keys(self) -> List[str]:
        """Run keys in execution order."""
        return [f"t{trace_index:04d}:{spec.name}"
                for trace_index in range(len(self.traces))
                for spec in self.specs]

    def run_one(self, position: int) -> Outcome:
        """Execute the single run at ``position`` (in process or in a
        campaign worker)."""
        trace_index, spec_index = divmod(position, len(self.specs))
        return run_trace(self.specs[spec_index], self.traces[trace_index],
                         check_every=self.check_every, fault=self.fault)


def _fold(report: FuzzReport, plan: CampaignPlan, runs) -> None:
    """Fold ``campaign_map``'s outcomes (plan order) into ``report``.

    A run the harness lost (crash/timeout after retries) is recorded in
    ``report.harness_failures`` and left out of the verdict.
    """
    report.traces_run = len(plan.traces)
    per_trace: List[List[Optional[Outcome]]] = [
        [None] * len(plan.specs) for _ in plan.traces]
    for position, run in enumerate(runs):
        report.retried_runs += max(0, run.attempts - 1)
        if not isinstance(run, RunSuccess):
            report.harness_failures.append(str(run))
            continue
        report.resumed_runs += int(run.resumed)
        trace_index, spec_index = divmod(position, len(plan.specs))
        per_trace[trace_index][spec_index] = run.value
        report.runs += 1

    for trace, trace_outcomes in zip(plan.traces, per_trace):
        if plan.fault is not None:
            _classify_injection(report, trace, trace_outcomes, plan.fault)
            continue
        completed = [o for o in trace_outcomes if o is not None]
        for outcome in completed:
            if not outcome.ok:
                report.divergences.append(Divergence(outcome, trace))
        digests = {o.memory_digest for o in completed if o.ok}
        if len(digests) > 1:
            detail = ", ".join(
                f"{o.model}={len(o.memory_digest)} blocks"
                for o in completed if o.ok)
            report.digest_mismatches.append(
                f"{trace.name}: final-memory digests disagree ({detail})")


def _models_for(fault: Optional[FaultPlan],
                models: Optional[Sequence[ModelSpec]]) -> List[ModelSpec]:
    matrix = list(models) if models is not None else model_matrix()
    if fault is None:
        return matrix
    applicable = []
    for spec in matrix:
        try:
            arm_fault(spec.build(), fault)
        except Exception:              # noqa: BLE001 - capability probe
            continue
        applicable.append(spec)
    return applicable


def run_campaign(seed: int, budget: int,
                 models: Optional[Sequence[ModelSpec]] = None,
                 jobs: int = 1, check_every: int = 1,
                 steps_per_trace: int = 48,
                 fault: Optional[FaultPlan] = None,
                 shrink: bool = True,
                 out_dir=None,
                 policy: Optional[CampaignPolicy] = None,
                 resume=None) -> FuzzReport:
    """Run a ``budget``-trace differential campaign.

    Reproducible: all traces are generated from ``seed`` up front and
    outcomes are folded in a fixed order, so the report is identical for
    every ``jobs`` value. ``resume`` names a campaign journal: completed
    (trace, model) runs are committed there and skipped (payload
    replayed) when the campaign is re-executed after an interruption.
    ``policy`` sets per-run timeout/retry behaviour; the default retries
    transient worker deaths once and never hangs the batch on one run.
    ``check_every`` must be at least 1: the oracle checks after every
    ``check_every``-th access.
    """
    if check_every < 1:
        raise ConfigError(
            f"check_every must be a positive integer, got {check_every!r}")
    specs = _models_for(fault, models)
    generator = TraceGenerator(TraceGeometry.of(micro_config()), seed,
                               steps_per_trace=steps_per_trace)
    plan = CampaignPlan(specs,
                        [generator.trace(index) for index in range(budget)],
                        check_every=check_every, fault=fault)
    report = FuzzReport(seed, budget, tuple(spec.name for spec in specs),
                        fault=None if fault is None else fault.kind.value)
    policy = policy or CampaignPolicy(retries=1)
    journal = None if resume is None else CampaignJournal(resume)
    if journal is not None:
        report.journal_path = str(journal.path)
        journal.ensure_meta(
            campaign="fuzz", seed=seed, check_every=check_every,
            steps_per_trace=steps_per_trace,
            fault=None if fault is None else fault.kind.value,
            models=[spec.name for spec in specs])

    try:
        outcomes = campaign_map(plan.run_one, range(len(plan)),
                                keys=plan.keys, jobs=jobs, policy=policy,
                                journal=journal)
    finally:
        if journal is not None:
            journal.close()
    _fold(report, plan, outcomes)

    if shrink and fault is None:
        _shrink_divergences(report, specs, check_every, out_dir)
    return report


def _classify_injection(report: FuzzReport, trace: FuzzTrace,
                        outcomes: Sequence[Optional[Outcome]],
                        fault: FaultPlan) -> None:
    """Check every run of one trace against the fault's contract.

    Each outcome says whether its fault fired, wherever in the run
    (the read-back included), so a journaled outcome needs no replay.
    """
    for outcome in outcomes:
        if outcome is None:             # harness failure, already recorded
            continue
        if not outcome.fault_fired:
            if not outcome.ok:
                # Fault never fired yet the run failed: a plain bug,
                # not an injection result.
                report.divergences.append(Divergence(outcome, trace))
            continue
        report.fault_fired_runs += 1
        if fault.kind in DETECTABLE:
            if outcome.ok:
                report.fault_missed.append(outcome)
            else:
                report.fault_detected_runs += 1
        else:
            if outcome.ok:
                report.fault_detected_runs += 1
            else:
                report.fault_missed.append(outcome)


def _shrink_divergences(report: FuzzReport, specs: Sequence[ModelSpec],
                        check_every: int, out_dir) -> None:
    by_name = {spec.name: spec for spec in specs}
    for divergence in report.divergences[:MAX_SHRINKS]:
        spec = by_name[divergence.outcome.model]
        try:
            minimized, outcome = shrink_trace(
                spec, divergence.trace, reference=divergence.outcome,
                check_every=check_every)
        except ValueError:
            continue                    # flaky under different checking
        divergence.minimized = minimized
        divergence.minimized_outcome = outcome
        if out_dir is not None:
            npz, test = emit_regression(spec, minimized, outcome, out_dir)
            divergence.npz_path = str(npz)
            divergence.test_path = str(test)
