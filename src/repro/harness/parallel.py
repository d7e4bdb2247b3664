"""Parallel fan-out of independent simulation runs.

Trace-driven coherence simulation is embarrassingly parallel across
independent ``(SystemConfig, Workload)`` runs: no state is shared, and
every run is deterministic. :func:`run_many` exploits that by fanning a
batch of runs over a ``multiprocessing`` pool. Workers rebuild the system
from the (picklable) config, run the workload, and ship back a *detached*
:class:`~repro.harness.runner.RunResult` -- stats only, never a live
``CMPSystem``.

Guarantees:

* **Deterministic ordering** -- results are returned in request order
  regardless of worker completion order.
* **Bit-identical to serial** -- the simulator is deterministic, so the
  parallel path produces exactly the stats the ``jobs=1`` serial
  fallback produces (asserted by ``tests/test_parallel_cache.py``).
* **Run-once memoization** -- duplicate requests in a batch are executed
  once, and the session :class:`~repro.harness.result_cache.ResultCache`
  memoizes across batches (so figure after figure reuses the shared
  baseline runs).
* **No work lost to one bad run** -- a raising worker no longer nukes
  the batch: every item is drained, completed results are published to
  the cache, and only then is :class:`ParallelMapError` raised naming
  the failing spec. (For retries, timeouts, and checkpoint/resume on
  top of that, see :mod:`repro.harness.campaign`.)

``jobs`` defaults to ``REPRO_JOBS`` (see the ``--jobs`` CLI flag);
``jobs=1`` runs serially in-process with no pool at all. An explicit
``jobs`` above ``os.cpu_count()`` is honored -- oversubscription is the
user's call -- and the effective worker count of the last batch is
reported in :func:`telemetry_snapshot` instead of being clamped.
"""

from __future__ import annotations

import functools
import math
import multiprocessing
import os
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.config import SystemConfig
from repro.common.errors import ConfigError
from repro.harness.result_cache import ResultCache, run_key, session_cache
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


def parse_number(value, source: str, kind=int, allow_zero: bool = False):
    """Validate a count or a duration from the CLI or the environment.

    With ``kind=int`` (worker counts, sizes, depths) accepts a positive
    integer, as int or decimal string, or a non-negative one with
    ``allow_zero``; with ``kind=float`` (durations) a positive finite
    number.  Anything else -- zero, negatives, a float where an integer
    is due, NaN, infinity or non-numeric text -- raises
    :class:`~repro.common.errors.ConfigError` naming ``source`` so the
    CLI can fail with a one-line message instead of a traceback.
    """
    if kind is int:
        what = "a non-negative integer" if allow_zero else "a positive integer"
    else:
        what = "a positive finite number"
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
    """Build the system for ``spec`` and run it (detached result).

    With ``trace_path`` the run executes under a
    :class:`~repro.obs.trace.TraceSession`: events stream to that JSONL
    file and the aggregated time series lands next to it.
    """
    config, workload = spec
    system = build_system(config)
    if trace_path is None:
        return run_workload(system, workload).detached()
    from repro.obs.trace import TraceSession
    with TraceSession(system, jsonl=trace_path) as session:
        return session.run(workload).detached()


def _pool_worker(job: Tuple[int, RunSpec, Optional[str]]
                 ) -> Tuple[int, RunResult]:
    index, spec, trace_path = job
    return index, execute_run(spec, trace_path)


def _pool_context():
    # fork shares the already-imported interpreter image (cheap startup
    # and no re-import of numpy per worker); fall back where unavailable.
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else None)


def fork_available() -> bool:
    """True when fork-start workers (sharing module globals set before
    the pool is created) are available on this platform."""
    return "fork" in multiprocessing.get_all_start_methods()


class ParallelMapError(RuntimeError):
    """One or more items of a :func:`parallel_map` batch raised.

    Raised only after the whole batch has drained, so sibling items'
    work is never discarded mid-flight: ``partial`` holds the completed
    results (``None`` at every failed position) and callers are expected
    to publish them (``run_many`` caches completed runs before
    re-raising with the failing spec's identity attached).
    """

    def __init__(self, message: str, item_index: int, error_type: str,
                 error: str, traceback_text: str = "",
                 partial: Optional[list] = None) -> None:
        super().__init__(message)
        self.item_index = item_index
        self.error_type = error_type
        self.error = error
        self.traceback_text = traceback_text
        self.partial = partial if partial is not None else []


def _guarded_call(fn, item):
    """Per-item crash isolation: never let one item poison the batch."""
    try:
        return ("ok", fn(item))
    except Exception as exc:           # noqa: BLE001 - reported to caller
        return ("err", type(exc).__name__, str(exc),
                traceback.format_exc())


def parallel_map(fn, items, jobs: int = 1, chunksize: int = 1,
                 require_fork: bool = False):
    """Order-preserving map of ``fn`` over ``items`` on a worker pool.

    The shared fan-out primitive behind :func:`run_many`, the sampled
    protocol explorer, and ``repro fuzz`` campaigns. ``fn`` must be a
    module-level (picklable) callable; callers whose per-item context
    cannot be pickled set a module global before calling and pass
    ``require_fork=True`` -- forked workers inherit the global, and the
    call degrades to the serial path when fork is unavailable (results
    are identical either way; only wall-clock differs).

    Exceptions are caught per item: the whole batch drains before
    :class:`ParallelMapError` is raised for the first failure, with the
    surviving results attached as ``partial``.
    """
    items = list(items)
    effective = min(jobs, len(items)) if items else 0
    if effective > 1 and require_fork and not fork_available():
        effective = 1
    _telemetry["effective_jobs"] = max(effective, 1)
    guarded = functools.partial(_guarded_call, fn)
    if effective <= 1:
        wrapped = [guarded(item) for item in items]
    else:
        context = _pool_context()
        with context.Pool(effective) as pool:
            wrapped = list(pool.imap(guarded, items, chunksize=chunksize))
    results = [entry[1] if entry[0] == "ok" else None
               for entry in wrapped]
    for index, entry in enumerate(wrapped):
        if entry[0] != "ok":
            _tag, error_type, error, tb = entry
            raise ParallelMapError(
                f"parallel_map item {index} raised {error_type}: {error}",
                item_index=index, error_type=error_type, error=error,
                traceback_text=tb, partial=results)
    return results


def _trace_path_for(trace_dir, index: int, spec: RunSpec) -> str:
    directory = Path(trace_dir)
    directory.mkdir(parents=True, exist_ok=True)
    return str(directory / f"run{index:04d}_{spec[1].name}.jsonl")


@dataclass
class BatchPlan:
    """The execution plan for one batch of specs.

    ``results`` starts with the cache hits filled in; ``pending`` holds
    the ``(index, spec, trace_path)`` jobs that actually need to
    execute; ``aliases`` maps duplicate indices to the first request of
    the same key.
    """

    specs: List[RunSpec]
    results: List[Optional[RunResult]]
    pending: List[Tuple[int, RunSpec, Optional[str]]]
    keys: Dict[int, str] = field(default_factory=dict)
    aliases: Dict[int, int] = field(default_factory=dict)


def plan_batch(specs: Sequence[RunSpec], cache, trace_dir,
               want_keys: bool = False) -> BatchPlan:
    """Resolve cache hits and collapse duplicates into a 'BatchPlan'.

    Trace paths are resolved *only* for runs that will execute, so a
    fully-cached batch neither creates the trace directory nor
    fabricates ``run<NNNN>_*.jsonl`` paths that no run will ever write.
    ``want_keys`` forces key computation even without a cache (the
    campaign journal needs them).
    """
    specs = list(specs)
    results: List[Optional[RunResult]] = [None] * len(specs)
    pending: List[Tuple[int, RunSpec, Optional[str]]] = []
    keys: Dict[int, str] = {}
    first_index_for_key: Dict[str, int] = {}
    aliases: Dict[int, int] = {}
    for index, spec in enumerate(specs):
        if cache is not None or want_keys:
            keys[index] = run_key(spec[0], spec[1])
        if cache is not None:
            hit = cache.get(keys[index])
            if hit is not None:
                results[index] = hit
                continue
            first = first_index_for_key.setdefault(keys[index], index)
            if first != index:
                aliases[index] = first
                continue
        trace_path = (None if trace_dir is None
                      else _trace_path_for(trace_dir, index, spec))
        pending.append((index, spec, trace_path))
    return BatchPlan(specs, results, pending, keys, aliases)


def resolve_aliases(plan: BatchPlan) -> None:
    """Fill duplicate-spec slots from their executed first occurrence."""
    for index, first in plan.aliases.items():
        source = plan.results[first]
        if source is None:             # the shared execution failed
            continue
        plan.results[index] = RunResult(
            source.workload, source.stats, None, source.wall_seconds,
            cached=True, trace_path=source.trace_path)


def record_batch_telemetry(plan: BatchPlan, executed: int,
                           dropped_puts: int = 0) -> None:
    """Fold one batch's totals into the session telemetry."""
    _telemetry["runs"] += executed
    _telemetry["cache_hits"] += len(plan.specs) - len(plan.pending)
    _telemetry["cache_dropped_puts"] += dropped_puts
    completed = [plan.results[index] for index, *_ in plan.pending
                 if plan.results[index] is not None]
    _telemetry["wall_seconds"] += sum(result.wall_seconds
                                      for result in completed)
    _telemetry["accesses"] += sum(result.stats.total_accesses
                                  for result in completed)


def run_many(specs: Sequence[RunSpec], jobs: Optional[int] = None,
             cache=USE_SESSION_CACHE,
             trace_dir=None) -> List[RunResult]:
    """Run every ``(config, workload)`` spec; results in request order.

    ``jobs=None`` reads ``REPRO_JOBS``; ``jobs=1`` is the serial
    fallback. ``cache=None`` disables memoization (every spec is
    executed); by default the session cache is consulted and filled.
    ``trace_dir`` enables event tracing on every *executed* run: each
    writes ``run<NNNN>_<workload>.jsonl`` (plus its time-series sibling)
    into that directory, and the result's ``trace_path`` points at it.
    Cache hits keep whatever trace path their original execution stored.

    A raising run no longer discards the batch: every other spec still
    executes, completed results are published to the cache, and the
    :class:`ParallelMapError` re-raised afterwards names the failing
    spec's index and workload. Campaigns that need typed failures,
    retries, or resume use :func:`repro.harness.campaign.run_specs`.
    """
    jobs = default_jobs() if jobs is None else parse_number(jobs, "jobs")
    if cache is USE_SESSION_CACHE:
        cache = session_cache()
    plan = plan_batch(specs, cache, trace_dir)

    executed = 0
    failure: Optional[ParallelMapError] = None
    if plan.pending:
        try:
            mapped = parallel_map(_pool_worker, plan.pending, jobs=jobs)
        except ParallelMapError as exc:
            failure = exc
            mapped = [entry for entry in exc.partial if entry is not None]
        dropped_before = cache.dropped_puts if cache is not None else 0
        for index, result in mapped:
            plan.results[index] = result
            if cache is not None:
                cache.put(plan.keys[index], result)
        executed = len(mapped)
        resolve_aliases(plan)
        record_batch_telemetry(
            plan, executed,
            dropped_puts=(cache.dropped_puts - dropped_before
                          if cache is not None else 0))
        if failure is not None:
            bad_index, bad_spec, _trace = plan.pending[failure.item_index]
            raise ParallelMapError(
                f"run {bad_index} ({bad_spec[1].name}) raised "
                f"{failure.error_type}: {failure.error} "
                f"({executed} completed runs were kept in the cache)",
                item_index=bad_index, error_type=failure.error_type,
                error=failure.error,
                traceback_text=failure.traceback_text,
                partial=plan.results) from failure
    else:
        record_batch_telemetry(plan, 0)
    return plan.results  # type: ignore[return-value]
