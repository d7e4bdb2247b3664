"""Fault-tolerant campaign execution over independent runs.

:mod:`repro.harness.parallel` gives the harness *fast* fan-out; this
module gives it *durable* fan-out. A campaign is a batch of independent
runs that must survive the failure modes long unattended executions
actually hit:

* **Crash isolation** -- a run that raises (or whose worker process is
  killed outright) becomes a typed :class:`RunFailure` carrying the run
  key, error, traceback, and attempt count; every other run's result is
  kept.
* **Per-run timeouts** -- each worker self-arms ``SIGALRM`` (via
  ``signal.setitimer``) around its run, so a wedged simulation turns
  into a ``timeout`` failure instead of hanging the batch. The parent
  additionally enforces a grace deadline with ``SIGKILL`` as a backstop
  for workers stuck in uninterruptible code.
* **Retry with exponential backoff** -- transient failures (a dead
  worker, any ``OSError``) are re-executed up to
  :attr:`CampaignPolicy.retries` times, with capped exponential delays.
* **Checkpoint/resume** -- a :class:`CampaignJournal` appends one JSONL
  record per committed run (key + pickled payload, flushed and fsynced)
  and keeps an atomic sibling checkpoint file via
  :mod:`repro.common.ioutil`. Re-running the same campaign with the same
  journal skips every committed run and replays its recorded payload,
  so the resumed campaign's aggregate statistics are bit-identical to an
  uninterrupted one.

Workers are one process per attempt (started from the same fork/spawn
context the pool layer uses). That costs one ``fork`` per run -- noise
for the multi-second simulations campaigns are made of -- and buys exact
failure attribution: a worker's death can only ever lose the single run
it was bound to at spawn time.

The journal doubles as an observability trace: retry, timeout,
worker-death, and resume-skip records use the matching
:class:`~repro.obs.events.EventKind` values, so ``repro report
<journal>`` renders a campaign-health section.
"""

from __future__ import annotations

import base64
import heapq
import json
import math
import os
import pickle
import signal
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from queue import Empty
from typing import (Any, Dict, List, Optional, Sequence, Tuple, Union)

from repro.common.errors import ConfigError
from repro.common.ioutil import atomic_write_text
from repro.obs.events import EventKind

__all__ = [
    "CampaignError", "CampaignJournal", "CampaignPolicy",
    "CampaignResult", "RunFailure", "RunSuccess", "campaign_map",
    "execute_guarded", "journal_summary", "policy_from_env", "run_specs",
]

#: Failure kinds a campaign distinguishes (``RunFailure.kind``).
EXCEPTION = "exception"
TIMEOUT = "timeout"
WORKER_DEATH = "worker-death"

#: Seconds the parent grants past ``run_timeout`` before it stops
#: trusting the worker's own alarm and kills it.
_TIMEOUT_GRACE = 5.0


@dataclass(frozen=True)
class CampaignPolicy:
    """Retry/timeout policy for one campaign.

    ``retries`` counts *re*-executions: ``retries=2`` allows three
    attempts total. Only transient failures are retried -- worker death
    always, ``OSError`` by default, timeouts only when
    ``retry_timeouts`` is set (a deterministic simulation that timed
    out once will usually time out again).
    """

    retries: int = 2
    run_timeout: Optional[float] = None
    backoff_base: float = 0.25
    backoff_cap: float = 8.0
    retry_timeouts: bool = False

    def backoff(self, attempt: int) -> float:
        """Delay before re-executing after the ``attempt``-th failure."""
        return min(self.backoff_cap,
                   self.backoff_base * (2.0 ** max(0, attempt - 1)))


def policy_from_env() -> Optional[CampaignPolicy]:
    """Build a policy from ``REPRO_RUN_TIMEOUT`` / ``REPRO_RETRIES``.

    Returns ``None`` when neither is set (callers then keep the plain
    fail-fast path). Malformed values raise
    :class:`~repro.common.errors.ConfigError` so the CLI reports one
    clean line instead of a traceback.
    """
    raw_timeout = (os.environ.get("REPRO_RUN_TIMEOUT") or "").strip()
    raw_retries = (os.environ.get("REPRO_RETRIES") or "").strip()
    if not raw_timeout and not raw_retries:
        return None
    timeout = None
    if raw_timeout:
        try:
            timeout = float(raw_timeout)
        except ValueError:
            raise ConfigError("REPRO_RUN_TIMEOUT must be a number of "
                              f"seconds, got {raw_timeout!r}") from None
        if not math.isfinite(timeout):
            # float() happily parses "inf" and "nan"; a NaN deadline
            # would silently disable the parent's SIGKILL backstop.
            raise ConfigError("REPRO_RUN_TIMEOUT must be a finite number "
                              f"of seconds, got {raw_timeout!r}")
        if timeout <= 0:
            raise ConfigError("REPRO_RUN_TIMEOUT must be positive, got "
                              f"{raw_timeout!r}")
    retries = 0
    if raw_retries:
        try:
            retries = int(raw_retries)
        except ValueError:
            raise ConfigError("REPRO_RETRIES must be a non-negative "
                              f"integer, got {raw_retries!r}") from None
        if retries < 0:
            raise ConfigError("REPRO_RETRIES must be a non-negative "
                              f"integer, got {raw_retries!r}")
    return CampaignPolicy(retries=retries, run_timeout=timeout)


# ----------------------------------------------------------------------
# Typed outcomes
# ----------------------------------------------------------------------
@dataclass
class RunSuccess:
    """One completed run (live, retried, or replayed from a journal)."""

    index: int
    key: str
    value: Any
    attempts: int = 1
    resumed: bool = False

    ok = True


@dataclass
class RunFailure:
    """One run that did not produce a result after every attempt."""

    index: int
    key: str
    kind: str                       # exception | timeout | worker-death
    error_type: str = ""
    error: str = ""
    traceback: str = ""
    attempts: int = 1

    ok = False

    def __str__(self) -> str:
        detail = f": {self.error_type}: {self.error}" if self.error_type \
            else ""
        return (f"{self.key}: {self.kind} after {self.attempts} "
                f"attempt(s){detail}")


RunOutcome = Union[RunSuccess, RunFailure]


class CampaignError(RuntimeError):
    """A campaign finished with unresolved :class:`RunFailure` records."""

    def __init__(self, failures: Sequence[RunFailure],
                 journal_path: Optional[str] = None) -> None:
        self.failures = list(failures)
        self.journal_path = journal_path
        hint = (f"; resume with the journal at {journal_path}"
                if journal_path else "")
        super().__init__(
            f"{len(self.failures)} of the campaign's runs failed "
            f"(first: {self.failures[0]}){hint}")


# ----------------------------------------------------------------------
# Journal: append-only JSONL + atomic checkpoint
# ----------------------------------------------------------------------
_MISS = object()


class CampaignJournal:
    """Append-only JSONL journal of committed runs.

    One ``run_ok`` record per committed run (key + base64-pickled
    payload), flushed and fsynced before the commit is acknowledged;
    retry/timeout/worker-death/resume-skip notes ride along as
    event-style records. A sibling ``<name>.checkpoint.json`` summary is
    republished atomically after every commit. A torn trailing line
    (the writer died mid-append) is ignored on load, so a journal is
    always resumable.
    """

    def __init__(self, path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.meta: Dict[str, Any] = {}
        self._committed: Dict[str, Any] = {}
        self.counts: Dict[str, int] = {}
        if self.path.exists():
            self._load()
        self._handle = self.path.open("a", encoding="utf-8")

    # -- loading -------------------------------------------------------
    def _load(self) -> None:
        with self.path.open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    break               # torn tail: ignore, stay resumable
                kind = record.get("kind")
                if kind == "meta":
                    self.meta.update(record)
                    continue
                self.counts[kind] = self.counts.get(kind, 0) + 1
                if kind == "run_ok":
                    try:
                        payload = pickle.loads(base64.b64decode(
                            record["payload"]))
                    except Exception:   # noqa: BLE001 - damaged record
                        continue        # treat as uncommitted
                    self._committed[record["key"]] = payload

    # -- identity ------------------------------------------------------
    def ensure_meta(self, **meta) -> None:
        """Pin (or verify) the campaign identity this journal belongs to.

        A journal written by one campaign must not silently resume a
        different one: any already-recorded field that disagrees raises
        :class:`~repro.common.errors.ConfigError`.
        """
        stale = {key: self.meta[key] for key, value in meta.items()
                 if key in self.meta and self.meta[key] != value}
        if stale:
            detail = ", ".join(
                f"{key}: journal={self.meta[key]!r} requested={meta[key]!r}"
                for key in stale)
            raise ConfigError(
                f"journal {self.path} belongs to a different campaign "
                f"({detail})")
        fresh = {key: value for key, value in meta.items()
                 if key not in self.meta}
        if fresh:
            self.meta.update(fresh)
            self._append({"kind": "meta", **fresh}, durable=True)

    # -- writes --------------------------------------------------------
    def _append(self, record: dict, durable: bool = False) -> None:
        self._handle.write(json.dumps(record) + "\n")
        self._handle.flush()
        if durable:
            os.fsync(self._handle.fileno())

    def commit(self, key: str, payload: Any) -> None:
        """Durably record one completed run and its result payload."""
        encoded = base64.b64encode(
            pickle.dumps(payload,
                         protocol=pickle.HIGHEST_PROTOCOL)).decode("ascii")
        self._append({"kind": "run_ok", "key": key, "payload": encoded},
                     durable=True)
        self._committed[key] = payload
        self.counts["run_ok"] = self.counts.get("run_ok", 0) + 1
        self._checkpoint()

    def note(self, kind: str, step: int = -1, cause: str = "",
             **extra) -> None:
        """Record a non-commit campaign event (retry, timeout, ...)."""
        record: Dict[str, Any] = {"kind": kind}
        if step >= 0:
            record["step"] = step
        if cause:
            record["cause"] = cause
        record.update(extra)
        self._append(record)
        self.counts[kind] = self.counts.get(kind, 0) + 1

    def _checkpoint(self) -> None:
        checkpoint = {
            "journal": self.path.name,
            "committed": self.counts.get("run_ok", 0),
            "counts": dict(self.counts),
            "meta": {key: value for key, value in self.meta.items()
                     if key != "kind"},
        }
        atomic_write_text(self.checkpoint_path(),
                          json.dumps(checkpoint, indent=1) + "\n")

    def checkpoint_path(self) -> Path:
        return self.path.with_name(self.path.name + ".checkpoint.json")

    # -- reads ---------------------------------------------------------
    def get(self, key: str) -> Any:
        """The committed payload for ``key``, or the ``_MISS`` sentinel."""
        return self._committed.get(key, _MISS)

    def __contains__(self, key: str) -> bool:
        return key in self._committed

    def __len__(self) -> int:
        return len(self._committed)

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "CampaignJournal":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def journal_summary(journal_path) -> Dict[str, Any]:
    """Progress summary for a journal, torn-checkpoint tolerant.

    Prefers the atomic ``<name>.checkpoint.json`` sibling (cheap: no
    payload decoding); a checkpoint that is missing, truncated mid-write
    (copied while being replaced, or damaged by the filesystem), or
    decodes to the wrong shape falls back to replaying the journal --
    the same guard the journal itself applies to a torn trailing line.
    The fallback marks the summary with ``"recovered": True``.
    """
    journal_path = Path(journal_path)
    checkpoint = journal_path.with_name(
        journal_path.name + ".checkpoint.json")
    try:
        summary = json.loads(checkpoint.read_text(encoding="utf-8"))
        if isinstance(summary, dict) and "committed" in summary:
            return summary
    except (OSError, ValueError):
        pass                            # torn/corrupt: replay instead
    counts: Dict[str, int] = {}
    meta: Dict[str, Any] = {}
    if journal_path.exists():
        with journal_path.open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    break               # torn tail: same rule as _load
                kind = record.get("kind")
                if kind == "meta":
                    meta.update({key: value
                                 for key, value in record.items()
                                 if key != "kind"})
                    continue
                counts[kind] = counts.get(kind, 0) + 1
    return {
        "journal": journal_path.name,
        "committed": counts.get("run_ok", 0),
        "counts": counts,
        "meta": meta,
        "recovered": True,
    }


# ----------------------------------------------------------------------
# Guarded execution (shared by the serial path and the workers)
# ----------------------------------------------------------------------
class _RunTimeout(BaseException):
    # BaseException deliberately: the run under execution (oracle,
    # runner) may catch-and-record ``Exception`` as part of its own
    # contract, and a timeout must never be swallowed into a result --
    # only ``execute_guarded`` may catch it.
    pass


def _raise_timeout(_signum, _frame):
    raise _RunTimeout()


def _alarm_available() -> bool:
    return (hasattr(signal, "SIGALRM")
            and threading.current_thread() is threading.main_thread())


def execute_guarded(fn, item, timeout: Optional[float]) -> tuple:
    """Run ``fn(item)`` with a self-armed deadline; never raises.

    Returns ``("ok", value)`` or
    ``("err", kind, error_type, message, traceback, transient)``.
    Shared by the campaign executor's serial path, its one-attempt
    workers, and the service worker fleet (:mod:`repro.service.worker`).
    """
    armed = False
    if timeout and _alarm_available():
        previous = signal.signal(signal.SIGALRM, _raise_timeout)
        signal.setitimer(signal.ITIMER_REAL, timeout)
        armed = True
    try:
        return ("ok", fn(item))
    except _RunTimeout:
        return ("err", TIMEOUT, "TimeoutError",
                f"run exceeded {timeout:.3f}s", "", False)
    except Exception as exc:           # noqa: BLE001 - crash isolation
        return ("err", EXCEPTION, type(exc).__name__, str(exc),
                traceback.format_exc(), isinstance(exc, OSError))
    finally:
        if armed:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)


def _task_entry(fn, item, index: int, attempt: int,
                timeout: Optional[float], queue) -> None:
    """Worker body: one attempt of one run, result shipped by queue."""
    queue.put((index, attempt, execute_guarded(fn, item, timeout)))


# ----------------------------------------------------------------------
# The executor
# ----------------------------------------------------------------------
def campaign_map(fn, items, *, keys: Optional[Sequence[str]] = None,
                 jobs: int = 1, policy: Optional[CampaignPolicy] = None,
                 journal: Optional[CampaignJournal] = None,
                 bus=None, require_fork: bool = False
                 ) -> List[RunOutcome]:
    """Fault-tolerantly map ``fn`` over ``items``; one outcome per item.

    The resilient sibling of
    :func:`repro.harness.parallel.parallel_map`: order-preserving and
    deterministic in its *results* (retries change wall-clock, never
    values), but an item that ultimately fails yields a
    :class:`RunFailure` instead of poisoning the batch. With a
    ``journal``, items whose key is already committed are skipped and
    replayed from the journal; live completions are committed as they
    finish. ``bus`` (an :class:`~repro.obs.bus.EventBus`) receives
    retry/timeout/worker-death/resume-skip events.
    """
    from repro.harness.parallel import fork_available

    items = list(items)
    policy = policy or CampaignPolicy()
    if keys is None:
        keys = [f"item{index:06d}" for index in range(len(items))]
    else:
        keys = [str(key) for key in keys]
        if len(keys) != len(items):
            raise ConfigError(f"campaign_map got {len(items)} items but "
                              f"{len(keys)} keys")

    outcomes: List[Optional[RunOutcome]] = [None] * len(items)
    pending: List[int] = []
    for index in range(len(items)):
        if journal is not None:
            payload = journal.get(keys[index])
            if payload is not _MISS:
                outcomes[index] = RunSuccess(index, keys[index], payload,
                                             attempts=0, resumed=True)
                _note(journal, bus, EventKind.RESUME_SKIP.value, index,
                      keys[index])
                continue
        pending.append(index)

    effective = min(jobs, len(pending)) if pending else 0
    if effective > 1 and require_fork and not fork_available():
        effective = 1
    if effective > 1:
        _run_pooled(fn, items, keys, pending, effective, policy,
                    journal, bus, outcomes)
    else:
        _run_serial(fn, items, keys, pending, policy, journal, bus,
                    outcomes)
    _record_campaign_telemetry(outcomes, effective or 1)
    return outcomes  # type: ignore[return-value]


def _note(journal: Optional[CampaignJournal], bus, kind: str,
          index: int, cause: str) -> None:
    if journal is not None:
        journal.note(kind, step=index, cause=cause)
    if bus is not None:
        bus.step = index
        bus.emit(EventKind(kind), cause=cause)


def _finalize(outcomes, journal, bus, keys, index: int,
              outcome: RunOutcome) -> None:
    outcomes[index] = outcome
    if isinstance(outcome, RunSuccess):
        if journal is not None:
            journal.commit(keys[index], outcome.value)
        return
    if journal is not None:
        journal.note("run_failure", step=index, cause=outcome.kind,
                     error_type=outcome.error_type, error=outcome.error,
                     attempts=outcome.attempts, key=outcome.key)
    if outcome.kind == TIMEOUT:
        _note(journal, bus, EventKind.RUN_TIMEOUT.value, index,
              outcome.key)


def _should_retry(policy: CampaignPolicy, kind: str, transient: bool,
                  attempt: int) -> bool:
    if attempt > policy.retries:
        return False
    if kind == WORKER_DEATH:
        return True
    if kind == TIMEOUT:
        return policy.retry_timeouts
    return transient


def _failure_from(keys, index: int, attempt: int, err: tuple
                  ) -> RunFailure:
    _tag, kind, error_type, message, tb = err[:5]
    return RunFailure(index, keys[index], kind, error_type, message, tb,
                      attempts=attempt)


def _run_serial(fn, items, keys, pending, policy, journal, bus,
                outcomes) -> None:
    """In-process fallback: same semantics minus worker-death isolation
    (a hard crash here kills the campaign -- the journal still bounds
    the loss to the current run)."""
    for index in pending:
        attempt = 0
        while True:
            attempt += 1
            result = execute_guarded(fn, items[index],
                                      policy.run_timeout)
            if result[0] == "ok":
                _finalize(outcomes, journal, bus, keys, index,
                          RunSuccess(index, keys[index], result[1],
                                     attempts=attempt))
                break
            kind, transient = result[1], result[5]
            if kind == TIMEOUT:
                _note(journal, bus, EventKind.RUN_TIMEOUT.value, index,
                      keys[index])
            if _should_retry(policy, kind, transient, attempt):
                _note(journal, bus, EventKind.RUN_RETRY.value, index,
                      kind)
                time.sleep(policy.backoff(attempt))
                continue
            _finalize(outcomes, journal, bus, keys, index,
                      _failure_from(keys, index, attempt, result))
            break


@dataclass
class _Active:
    process: Any
    index: int
    attempt: int
    deadline: Optional[float]


def _run_pooled(fn, items, keys, pending, jobs, policy, journal, bus,
                outcomes) -> None:
    """Process-per-attempt execution with claim-free death detection.

    Each worker process is bound to exactly one (item, attempt) at spawn
    time, so a dead worker unambiguously identifies the single run it
    lost -- there is no task queue a crash could silently swallow from.
    """
    from repro.harness.parallel import _pool_context

    context = _pool_context()
    result_queue = context.Queue()
    waiting: deque = deque(pending)
    retry_heap: List[Tuple[float, int, int]] = []   # (ready, index, att)
    attempts: Dict[int, int] = {index: 0 for index in pending}
    active: List[_Active] = []
    received: Dict[Tuple[int, int], tuple] = {}
    remaining = len(pending)

    def drain() -> None:
        while True:
            try:
                index, attempt, payload = result_queue.get_nowait()
            except Empty:
                return
            received[(index, attempt)] = payload

    def fail_or_retry(slot: _Active, err: tuple) -> None:
        nonlocal remaining
        kind, transient = err[1], err[5]
        if kind == TIMEOUT:
            _note(journal, bus, EventKind.RUN_TIMEOUT.value, slot.index,
                  keys[slot.index])
        if _should_retry(policy, kind, transient, slot.attempt):
            _note(journal, bus, EventKind.RUN_RETRY.value, slot.index,
                  kind)
            heapq.heappush(retry_heap,
                           (time.monotonic()
                            + policy.backoff(slot.attempt),
                            slot.index, slot.attempt))
            return
        _finalize(outcomes, journal, bus, keys, slot.index,
                  _failure_from(keys, slot.index, slot.attempt, err))
        remaining -= 1

    def finish(slot: _Active, payload: tuple) -> None:
        nonlocal remaining
        active.remove(slot)
        slot.process.join()
        if payload[0] == "ok":
            _finalize(outcomes, journal, bus, keys, slot.index,
                      RunSuccess(slot.index, keys[slot.index],
                                 payload[1], attempts=slot.attempt))
            remaining -= 1
        else:
            fail_or_retry(slot, payload)

    try:
        while remaining > 0:
            now = time.monotonic()
            while retry_heap and retry_heap[0][0] <= now:
                _ready, index, _attempt = heapq.heappop(retry_heap)
                waiting.append(index)
            while waiting and len(active) < jobs:
                index = waiting.popleft()
                attempts[index] += 1
                attempt = attempts[index]
                deadline = (None if policy.run_timeout is None else
                            time.monotonic() + policy.run_timeout
                            + _TIMEOUT_GRACE)
                process = context.Process(
                    target=_task_entry,
                    args=(fn, items[index], index, attempt,
                          policy.run_timeout, result_queue),
                    daemon=True)
                process.start()
                active.append(_Active(process, index, attempt, deadline))
            # Block briefly on the queue, then sweep the active set.
            try:
                index, attempt, payload = result_queue.get(timeout=0.05)
                received[(index, attempt)] = payload
            except Empty:
                pass
            drain()
            now = time.monotonic()
            for slot in list(active):
                payload = received.pop((slot.index, slot.attempt), None)
                if payload is not None:
                    finish(slot, payload)
                elif not slot.process.is_alive():
                    # Killed worker: drain once more in case the result
                    # landed between the last sweep and its death.
                    drain()
                    payload = received.pop((slot.index, slot.attempt),
                                           None)
                    if payload is not None:
                        finish(slot, payload)
                        continue
                    active.remove(slot)
                    slot.process.join()
                    _note(journal, bus, EventKind.WORKER_DEATH.value,
                          slot.index, keys[slot.index])
                    fail_or_retry(slot, ("err", WORKER_DEATH,
                                         "WorkerDeath",
                                         f"worker exited with code "
                                         f"{slot.process.exitcode} before"
                                         f" delivering a result", "",
                                         True))
                elif slot.deadline is not None and now > slot.deadline:
                    slot.process.kill()
                    slot.process.join()
                    active.remove(slot)
                    fail_or_retry(slot, ("err", TIMEOUT, "TimeoutError",
                                         f"run exceeded "
                                         f"{policy.run_timeout:.3f}s "
                                         f"(parent-enforced)", "",
                                         False))
    finally:
        for slot in active:
            slot.process.kill()
            slot.process.join()
        result_queue.close()
        result_queue.join_thread()


def _record_campaign_telemetry(outcomes, effective: int) -> None:
    from repro.harness import parallel

    telemetry = parallel._telemetry
    telemetry["effective_jobs"] = effective
    for outcome in outcomes:
        if outcome is None:
            continue
        if isinstance(outcome, RunFailure):
            telemetry["run_failures"] += 1
        elif outcome.resumed:
            telemetry["resume_skips"] += 1
        if outcome.attempts > 1:
            telemetry["run_retries"] += outcome.attempts - 1


# ----------------------------------------------------------------------
# Spec-level campaigns (the fault-tolerant run_many)
# ----------------------------------------------------------------------
@dataclass
class CampaignResult:
    """Everything a ``run_specs`` campaign produced.

    ``results`` is aligned with the requested specs (``None`` where the
    run ultimately failed); ``outcomes`` is aligned with the *executed*
    subset, in plan order.
    """

    results: List[Optional[Any]]
    outcomes: List[RunOutcome] = field(default_factory=list)
    failures: List[RunFailure] = field(default_factory=list)
    resumed: int = 0
    executed: int = 0
    cache_hits: int = 0
    journal_path: Optional[str] = None

    @property
    def ok(self) -> bool:
        return not self.failures

    def require_complete(self) -> List[Any]:
        """The full results list, or :class:`CampaignError` if any run
        failed (completed results stay cached/journaled for resume)."""
        if self.failures:
            raise CampaignError(self.failures, self.journal_path)
        return self.results


def _spec_task(job):
    from repro.harness.parallel import execute_run

    _index, spec, trace_path = job
    return execute_run(spec, trace_path)


def run_specs(specs, jobs: Optional[int] = None, cache=_MISS,
              trace_dir=None, policy: Optional[CampaignPolicy] = None,
              journal: Optional[CampaignJournal] = None,
              bus=None) -> CampaignResult:
    """Fault-tolerant :func:`~repro.harness.parallel.run_many`.

    Same planning (session cache consultation, duplicate collapsing,
    lazy trace paths) but pending runs execute under
    :func:`campaign_map`: failures become :class:`RunFailure` records
    instead of exceptions, completed results are cached *and* journaled
    as they finish, and a resume replays journaled payloads without
    re-simulating. ``cache`` follows :func:`run_many`'s convention:
    the session cache by default, ``None`` to disable memoization.
    """
    from repro.harness import parallel

    specs = list(specs)
    jobs = (parallel.default_jobs() if jobs is None
            else parallel.parse_number(jobs, "jobs"))
    if cache is _MISS:
        cache = parallel.session_cache()
    plan = parallel.plan_batch(specs, cache, trace_dir, want_keys=True)
    dropped_before = cache.dropped_puts if cache is not None else 0

    outcomes = campaign_map(
        _spec_task, plan.pending,
        keys=[plan.keys[index] for index, _spec, _trace in plan.pending],
        jobs=jobs, policy=policy, journal=journal, bus=bus)

    executed = 0
    for (index, _spec, _trace), outcome in zip(plan.pending, outcomes):
        if isinstance(outcome, RunSuccess):
            plan.results[index] = outcome.value
            if not outcome.resumed:
                executed += 1
            if cache is not None:
                cache.put(plan.keys[index], outcome.value)
    parallel.resolve_aliases(plan)
    parallel.record_batch_telemetry(
        plan, executed,
        dropped_puts=(cache.dropped_puts - dropped_before
                      if cache is not None else 0))

    failures = [outcome for outcome in outcomes
                if isinstance(outcome, RunFailure)]
    return CampaignResult(
        results=plan.results, outcomes=list(outcomes), failures=failures,
        resumed=sum(1 for outcome in outcomes
                    if isinstance(outcome, RunSuccess)
                    and outcome.resumed),
        executed=executed,
        cache_hits=len(specs) - len(plan.pending),
        journal_path=str(journal.path) if journal is not None else None)
