"""Batches of independent simulation runs.

Trace-driven coherence simulation is embarrassingly parallel across
independent ``(SystemConfig, Workload)`` runs: no state is shared, and
every run is deterministic. :func:`run_many` plans a batch (cache hits,
duplicate collapsing, lazy trace paths) and hands the runs it must
execute to :func:`repro.harness.campaign.campaign_map`, whose fork
workers build each system -- of one socket or of ``config.n_sockets``
-- run the workload, and ship back its
:class:`~repro.harness.runner.RunResult`, which carries the stats and
never the live system.

Guarantees:

* **Deterministic ordering** -- results are returned in request order
  regardless of worker completion order.
* **Bit-identical to serial** -- the simulator is deterministic, so the
  parallel path produces exactly the stats the ``jobs=1`` in-process
  path produces (asserted by ``tests/test_parallel_cache.py``).
* **Run-once memoization** -- duplicate requests in a batch are executed
  once, and the session :class:`~repro.harness.result_cache.ResultCache`
  memoizes across batches (so figure after figure reuses the shared
  baseline runs).
* **No work lost to one bad run** -- a run that raises, times out or
  kills its worker fails alone: every other run completes and is
  published to the cache before
  :class:`~repro.harness.campaign.CampaignError` names the failures.

``jobs`` defaults to ``REPRO_JOBS`` (see the ``--jobs`` CLI flag);
``jobs=1`` runs in process with no workers at all. An explicit
``jobs`` above ``os.cpu_count()`` is honored -- oversubscription is the
user's call -- and the effective worker count of the last batch is
reported in :func:`telemetry_snapshot` instead of being clamped.
"""

from __future__ import annotations

import math
import os
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.config import SystemConfig
from repro.common.errors import ConfigError
from repro.harness.campaign import (NO_RETRIES, CampaignError,
                                    CampaignJournal, CampaignPolicy,
                                    campaign_map)
from repro.harness.result_cache import run_key, session_cache
from repro.harness.runner import RunResult, run_workload
from repro.harness.system_builder import build_system
from repro.workloads.trace import Workload

#: One requested run: (config, workload).
RunSpec = Tuple[SystemConfig, Workload]

#: Sentinel distinguishing "use the session cache" from "no cache".
USE_SESSION_CACHE = object()

#: Session telemetry: totals over every run_many() call in this process.
#: ``effective_jobs`` is the worker count of the most recent batch (a
#: gauge, not a running total); the campaign layer adds its retry /
#: resume / failure counters here too.
_telemetry = {"runs": 0, "cache_hits": 0, "wall_seconds": 0.0,
              "accesses": 0, "cache_dropped_puts": 0, "effective_jobs": 0,
              "resume_skips": 0, "run_failures": 0, "run_retries": 0}


def telemetry_snapshot() -> Dict[str, float]:
    """Copy of the running totals (pair with :func:`telemetry_since`)."""
    return dict(_telemetry)


def telemetry_since(before: Dict[str, float]) -> Dict[str, float]:
    """Telemetry delta since a snapshot taken earlier."""
    return {key: _telemetry[key] - before.get(key, 0)
            for key in _telemetry}


def record_runs(runs: int, wall_seconds: float, accesses: int,
                cache_hits: int = 0) -> None:
    """Count finished runs in the session telemetry.

    The one accounting path for simulated runs: :func:`run_many` calls
    it once per batch, and the one run outside it, the calibration
    anchors' sampled probe
    (:func:`repro.harness.calibration.measure_shared_fraction`), once
    per run, so every run is counted once wherever it executes.
    """
    _telemetry["runs"] += runs
    _telemetry["cache_hits"] += cache_hits
    _telemetry["wall_seconds"] += wall_seconds
    _telemetry["accesses"] += accesses


def parse_number(value, source: str, kind=int, allow_zero: bool = False):
    """Validate a count or a duration from the CLI or the environment.

    With ``kind=int`` (worker counts, sizes, depths) accepts a positive
    integer, as int or decimal string; with ``kind=float`` (durations,
    ratios) a positive finite number. ``allow_zero`` admits zero too.
    Anything else -- zero, negatives, a float where an integer is due,
    NaN, infinity or non-numeric text -- raises
    :class:`~repro.common.errors.ConfigError` naming ``source`` so the
    CLI can fail with a one-line message instead of a traceback.
    """
    sign = "non-negative" if allow_zero else "positive"
    what = (f"a {sign} integer" if kind is int
            else f"a {sign} finite number")
    try:
        number = kind(str(value).strip())
    except (TypeError, ValueError):
        number = None
    if (number is None or not math.isfinite(number)
            or number < 0 or (number == 0 and not allow_zero)):
        raise ConfigError(f"{source} must be {what}, got {value!r}")
    return number


def env_number(name: str, default: int) -> int:
    """Positive integer from environment variable ``name`` (see
    :func:`parse_number`), or ``default`` when it is unset or blank."""
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    return parse_number(raw, name)


def default_jobs() -> int:
    """Worker count from ``REPRO_JOBS`` (default 1: serial)."""
    return env_number("REPRO_JOBS", 1)


def execute_run(spec: RunSpec,
                trace_path: Optional[str] = None) -> RunResult:
    """Build the system for ``spec`` and run it.

    With ``trace_path`` the run executes under a
    :class:`~repro.obs.trace.TraceSession`: events stream to that JSONL
    file and the aggregated time series lands next to it.
    """
    config, workload = spec
    system = build_system(config)
    if trace_path is None:
        return run_workload(system, workload)
    from repro.obs.trace import TraceSession
    with TraceSession(system, jsonl=trace_path) as session:
        return session.run(workload)


def _trace_path_for(trace_dir, index: int, spec: RunSpec) -> str:
    directory = Path(trace_dir)
    directory.mkdir(parents=True, exist_ok=True)
    return str(directory / f"run{index:04d}_{spec[1].name}.jsonl")




def run_many(specs: Sequence[RunSpec], jobs: Optional[int] = None,
             cache=USE_SESSION_CACHE, trace_dir=None,
             policy: Optional[CampaignPolicy] = None,
             journal: Optional[CampaignJournal] = None) -> List[RunResult]:
    """Run every ``(config, workload)`` spec; results in request order.

    ``jobs=None`` reads ``REPRO_JOBS``; ``jobs=1`` runs in process.
    ``cache=None`` disables memoization (every spec is executed); by
    default the session cache is consulted and filled. ``trace_dir``
    enables event tracing on every *executed* run: each writes
    ``run<NNNN>_<workload>.jsonl`` (plus its time-series sibling) into
    that directory, and the result's ``trace_path`` points at it. Cache
    hits keep whatever trace path their original execution stored, and
    a fully cached batch creates no trace directory.

    ``policy`` sets per-run timeouts and retries (default
    :data:`~repro.harness.campaign.NO_RETRIES`). With a ``journal``
    every completed run is committed there under its run key, and a
    re-run replays committed runs instead of simulating them. A run
    that still fails does not discard the batch: every other spec
    executes, completed results are published to the cache, and only
    then does :class:`~repro.harness.campaign.CampaignError` name each
    failing run's index and workload.
    """
    jobs = default_jobs() if jobs is None else parse_number(jobs, "jobs")
    if cache is USE_SESSION_CACHE:
        cache = session_cache()
    specs = list(specs)
    results: List[Optional[RunResult]] = [None] * len(specs)
    keys: Dict[int, str] = {}
    first_of_key: Dict[str, int] = {}
    aliases: Dict[int, int] = {}
    pending: List[Tuple[int, RunSpec, Optional[str]]] = []
    for index, spec in enumerate(specs):
        if cache is not None or journal is not None:
            keys[index] = run_key(*spec)
        if cache is not None:
            hit = cache.get(keys[index])
            if hit is not None:
                results[index] = hit
                continue
            first = first_of_key.setdefault(keys[index], index)
            if first != index:
                aliases[index] = first
                continue
        # Trace paths only for runs that execute (see the docstring).
        trace_path = (None if trace_dir is None
                      else _trace_path_for(trace_dir, index, spec))
        pending.append((index, spec, trace_path))

    dropped_before = cache.dropped_puts if cache is not None else 0
    executed = 0
    failures = []
    if pending:
        outcomes = campaign_map(
            lambda job: execute_run(job[1], job[2]), pending,
            keys=[keys[index] for index, *_ in pending] if keys else None,
            jobs=jobs, policy=policy or NO_RETRIES, journal=journal)
        for (index, spec, _trace), outcome in zip(pending, outcomes):
            if not outcome.ok:
                failures.append(replace(
                    outcome, index=index,
                    key=f"run {index} ({spec[1].name})"))
                continue
            results[index] = outcome.value
            executed += not outcome.resumed
            if cache is not None:
                cache.put(keys[index], outcome.value)
    for index, first in aliases.items():
        source = results[first]
        if source is not None:          # else the shared execution failed
            results[index] = RunResult(
                source.workload, source.stats, source.wall_seconds,
                cached=True, trace_path=source.trace_path)

    completed = [results[index] for index, *_ in pending
                 if results[index] is not None]
    record_runs(executed,
                sum(result.wall_seconds for result in completed),
                sum(result.accesses for result in completed),
                cache_hits=len(specs) - len(pending))
    if cache is not None:
        _telemetry["cache_dropped_puts"] += (cache.dropped_puts
                                             - dropped_before)
    if failures:
        raise CampaignError(failures, None if journal is None
                            else str(journal.path))
    return results  # type: ignore[return-value]
