"""The one fan-out engine: fault-tolerant execution of independent runs.

Every figure batch, fuzz campaign, model-check level and sampled
exploration is a batch of independent runs, and :func:`campaign_map`
is the only code that starts worker processes for them. It survives
the failure modes long unattended executions actually hit:

* **Long-lived fork workers** -- one call forks ``jobs`` workers after
  ``fn`` and ``items`` exist, so the workers inherit both: callers pass
  closures, only an item's index travels to a worker, and only its
  result is pickled back.
* **Crash isolation** -- each worker holds at most one (index, attempt)
  at a time, sent over its own pipe, so a worker that dies names
  exactly the one run it lost. The worker is replaced and the run is
  retried or becomes a typed ``worker-death`` :class:`RunFailure`; a
  run that raises becomes one too. Every other run's result is kept.
* **Per-run timeouts** -- each worker self-arms ``SIGALRM`` (via
  ``signal.setitimer``) around its run, so a wedged simulation turns
  into a ``timeout`` failure instead of hanging the batch. The parent
  additionally SIGKILLs a worker ``_TIMEOUT_GRACE`` seconds past the
  deadline, as a backstop for runs stuck in uninterruptible code.
* **Retry with exponential backoff** -- transient failures (a dead
  worker, any ``OSError``) are re-executed up to
  :attr:`CampaignPolicy.retries` times, with capped exponential delays.
* **Checkpoint/resume** -- a :class:`CampaignJournal` appends one JSONL
  record per committed run (key + pickled payload, flushed and fsynced).
  Re-running the same campaign with the same journal skips every
  committed run and replays its recorded payload, so the resumed
  campaign's aggregate statistics are bit-identical to an uninterrupted
  one.

``jobs=1``, or a platform without ``fork``, runs every attempt in
process under the same policy, minus worker-death isolation.

The journal doubles as an observability trace: retry, timeout,
worker-death, and resume-skip records use the matching
:class:`~repro.obs.events.EventKind` values, so ``repro report
<journal>`` renders a campaign-health section.
"""

from __future__ import annotations

import base64
import heapq
import json
import multiprocessing
import os
import pickle
import signal
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.common.errors import ConfigError
from repro.obs.events import EventKind

__all__ = [
    "CampaignError", "CampaignJournal", "CampaignPolicy", "NO_RETRIES",
    "RunFailure", "RunSuccess", "campaign_map", "fork_available",
    "policy_from_env", "values_of",
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
    and ``OSError``; never a timeout (a deterministic simulation that
    timed out once will time out again).
    """

    retries: int = 2
    run_timeout: Optional[float] = None
    backoff_base: float = 0.25
    backoff_cap: float = 8.0

    def backoff(self, attempt: int) -> float:
        """Delay before re-executing after the ``attempt``-th failure."""
        return min(self.backoff_cap,
                   self.backoff_base * (2.0 ** max(0, attempt - 1)))


#: A plain batch: every run gets one attempt and no deadline.
NO_RETRIES = CampaignPolicy(retries=0)


def policy_from_env() -> CampaignPolicy:
    """:data:`NO_RETRIES` with ``REPRO_RUN_TIMEOUT`` (positive seconds)
    and ``REPRO_RETRIES`` (a non-negative count) applied where they are
    set.

    Malformed values raise :class:`~repro.common.errors.ConfigError`
    naming the variable (see
    :func:`~repro.harness.parallel.parse_number`), so the CLI reports
    one clean line instead of a traceback.
    """
    from repro.harness.parallel import parse_number

    changes = {}
    for name, attr, kind, allow_zero in (
            ("REPRO_RUN_TIMEOUT", "run_timeout", float, False),
            ("REPRO_RETRIES", "retries", int, True)):
        raw = (os.environ.get(name) or "").strip()
        if raw:
            changes[attr] = parse_number(raw, name, kind=kind,
                                         allow_zero=allow_zero)
    return replace(NO_RETRIES, **changes)


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


def values_of(outcomes: Sequence[RunOutcome]) -> List[Any]:
    """Every outcome's value, or :class:`CampaignError` if any failed."""
    failures = [outcome for outcome in outcomes if not outcome.ok]
    if failures:
        raise CampaignError(failures)
    return [outcome.value for outcome in outcomes]


# ----------------------------------------------------------------------
# Journal: append-only JSONL
# ----------------------------------------------------------------------
_MISS = object()


class CampaignJournal:
    """Append-only JSONL journal of committed runs.

    One ``run_ok`` record per committed run (key + base64-pickled
    payload), flushed and fsynced before the commit is acknowledged;
    retry/timeout/worker-death/resume-skip notes ride along as
    event-style records. A torn trailing line (the writer died
    mid-append) is ignored on load, so a journal is always resumable.
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


# ----------------------------------------------------------------------
# Guarded execution (in process and in the workers)
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
    Shared by the campaign executor's in-process path and its fork
    workers.
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



def fork_available() -> bool:
    """True where workers can be forked (and so inherit ``fn`` and
    ``items`` instead of pickling them)."""
    return "fork" in multiprocessing.get_all_start_methods()


def _worker_loop(conn, fn, items, timeout: Optional[float],
                 parent_ends) -> None:
    """Worker body: run one item index at a time, as the parent sends
    them, until it sends ``None`` or goes away."""
    # ^C reaches the whole process group; the parent kills its workers.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for end in parent_ends:
        # With the parent's ends of every pipe closed here, a dead
        # parent reads as EOF instead of a hang.
        end.close()
    while True:
        try:
            index = conn.recv()
        except (EOFError, OSError):    # the parent went away
            return
        if index is None:
            return
        result = execute_guarded(fn, items[index], timeout)
        try:
            payload = pickle.dumps(result, pickle.HIGHEST_PROTOCOL)
        except Exception as exc:       # noqa: BLE001 - unpicklable result
            payload = pickle.dumps(("err", EXCEPTION, type(exc).__name__,
                                    f"result could not be sent back: "
                                    f"{exc}", traceback.format_exc(),
                                    False))
        try:
            conn.send_bytes(payload)
        except OSError:                 # the parent went away
            return


# ----------------------------------------------------------------------
# The executor
# ----------------------------------------------------------------------
def campaign_map(fn, items, *, keys: Optional[Sequence[str]] = None,
                 jobs: int = 1, policy: Optional[CampaignPolicy] = None,
                 journal: Optional[CampaignJournal] = None
                 ) -> List[RunOutcome]:
    """Fault-tolerantly map ``fn`` over ``items``; one outcome per item.

    Order-preserving and deterministic in its *results* (retries change
    wall-clock, never values), but an item that ultimately fails yields
    a :class:`RunFailure` instead of poisoning the batch. ``jobs`` above
    1 forks that many long-lived workers (at most one per pending item);
    ``fn`` may be any callable, closures included, but its results must
    pickle. With a ``journal``, items whose key is already committed are
    skipped and replayed from the journal; live completions are
    committed as they finish.
    """
    items = list(items)
    if keys is None:
        keys = [f"item{index:06d}" for index in range(len(items))]
    else:
        keys = [str(key) for key in keys]
        if len(keys) != len(items):
            raise ConfigError(f"campaign_map got {len(items)} items but "
                              f"{len(keys)} keys")

    outcomes: List[Optional[RunOutcome]] = [None] * len(items)
    pending: List[int] = []
    for index, key in enumerate(keys):
        payload = _MISS if journal is None else journal.get(key)
        if payload is _MISS:
            pending.append(index)
            continue
        outcomes[index] = RunSuccess(index, key, payload, attempts=0,
                                     resumed=True)
        journal.note(EventKind.RESUME_SKIP.value, step=index, cause=key)

    jobs = min(jobs, len(pending)) if fork_available() else 1
    _Scheduler(fn, items, keys, policy or CampaignPolicy(), journal,
               outcomes, jobs).run(pending)
    _record_campaign_telemetry(outcomes, max(1, jobs))
    return outcomes  # type: ignore[return-value]


def _should_retry(policy: CampaignPolicy, kind: str, transient: bool,
                  attempt: int) -> bool:
    """Whether a failed ``attempt`` is re-executed: worker deaths and
    transient exceptions are, up to ``policy.retries`` times;
    timeouts never are."""
    if attempt > policy.retries or kind == TIMEOUT:
        return False
    return kind == WORKER_DEATH or transient


@dataclass
class _Worker:
    """One long-lived fork worker and the run it holds, if any."""

    process: Any
    conn: Any
    index: Optional[int] = None
    attempt: int = 0
    deadline: Optional[float] = None


class _Scheduler:
    """Attempts, retries and settles the pending items of one call.

    Ready attempts go to idle workers, up to ``jobs`` of them (forking
    a replacement for each one that died); with ``jobs <= 1`` each
    attempt runs in process instead. Retries wait out their backoff on
    a heap either way.
    """

    def __init__(self, fn, items, keys, policy: CampaignPolicy,
                 journal: Optional[CampaignJournal], outcomes,
                 jobs: int) -> None:
        self.fn = fn
        self.items = items
        self.keys = keys
        self.policy = policy
        self.journal = journal
        self.outcomes = outcomes
        self.jobs = jobs
        self.ready: deque = deque()        # (index, attempt)
        self.backoff: List[tuple] = []     # heap of (due, index, attempt)
        self.workers: List[_Worker] = []
        self.context = (multiprocessing.get_context("fork")
                        if jobs > 1 else None)

    def run(self, pending: Sequence[int]) -> None:
        self.ready.extend((index, 1) for index in pending)
        try:
            while self.ready or self.backoff or self._busy():
                while self.backoff and \
                        self.backoff[0][0] <= time.monotonic():
                    _due, index, attempt = heapq.heappop(self.backoff)
                    self.ready.append((index, attempt))
                if self.context is not None:
                    self._dispatch()
                    self._collect()
                elif self.ready:
                    index, attempt = self.ready.popleft()
                    self._settle(index, attempt, execute_guarded(
                        self.fn, self.items[index],
                        self.policy.run_timeout))
                else:
                    time.sleep(max(0.0, self.backoff[0][0]
                                   - time.monotonic()))
        finally:
            self._close()

    # -- outcomes ------------------------------------------------------
    def _note(self, kind: str, index: int, cause: str) -> None:
        if self.journal is not None:
            self.journal.note(kind, step=index, cause=cause)

    def _settle(self, index: int, attempt: int, result: tuple) -> None:
        """Record one attempt: a success, a retry, or a final failure."""
        key = self.keys[index]
        if result[0] == "ok":
            self.outcomes[index] = RunSuccess(index, key, result[1],
                                              attempts=attempt)
            if self.journal is not None:
                self.journal.commit(key, result[1])
            return
        _tag, kind, error_type, message, tb, transient = result
        if kind == TIMEOUT:
            self._note(EventKind.RUN_TIMEOUT.value, index, key)
        if _should_retry(self.policy, kind, transient, attempt):
            self._note(EventKind.RUN_RETRY.value, index, kind)
            heapq.heappush(self.backoff,
                           (time.monotonic() + self.policy.backoff(attempt),
                            index, attempt + 1))
            return
        failure = RunFailure(index, key, kind, error_type, message, tb,
                             attempts=attempt)
        self.outcomes[index] = failure
        if self.journal is not None:
            self.journal.note("run_failure", step=index, cause=kind,
                              error_type=error_type, error=message,
                              attempts=attempt, key=key)

    # -- workers -------------------------------------------------------
    def _busy(self) -> List[_Worker]:
        return [worker for worker in self.workers
                if worker.index is not None]

    def _spawn(self) -> _Worker:
        conn, child = self.context.Pipe()
        parent_ends = [worker.conn for worker in self.workers] + [conn]
        process = self.context.Process(
            target=_worker_loop, daemon=True,
            args=(child, self.fn, self.items, self.policy.run_timeout,
                  parent_ends))
        process.start()
        child.close()
        worker = _Worker(process, conn)
        self.workers.append(worker)
        return worker

    def _dispatch(self) -> None:
        """Hand ready attempts to idle workers, forking up to ``jobs``."""
        idle = [worker for worker in self.workers if worker.index is None]
        while self.ready and (idle or len(self.workers) < self.jobs):
            worker = idle.pop() if idle else self._spawn()
            worker.index, worker.attempt = self.ready.popleft()
            worker.deadline = (
                None if self.policy.run_timeout is None else
                time.monotonic() + self.policy.run_timeout
                + _TIMEOUT_GRACE)
            try:
                worker.conn.send(worker.index)
            except OSError:             # died while idle
                self._lost(worker)

    def _collect(self) -> None:
        """Wait for a result, a death, a deadline or a due retry."""
        from multiprocessing.connection import wait

        busy = self._busy()
        wake = [worker.deadline for worker in busy
                if worker.deadline is not None]
        if self.backoff:
            wake.append(self.backoff[0][0])
        timeout = (max(0.0, min(wake) - time.monotonic()) if wake
                   else None)
        ready = set(wait([worker.conn for worker in busy]
                         + [worker.process.sentinel for worker in busy],
                         timeout))
        now = time.monotonic()
        for worker in busy:
            if worker.conn in ready or worker.process.sentinel in ready:
                self._receive(worker)
            elif worker.deadline is not None and now > worker.deadline:
                index, attempt = worker.index, worker.attempt
                self._retire(worker)
                self._settle(index, attempt, (
                    "err", TIMEOUT, "TimeoutError",
                    f"run exceeded {self.policy.run_timeout:.3f}s "
                    f"(parent-enforced)", "", False))

    def _receive(self, worker: _Worker) -> None:
        index, attempt = worker.index, worker.attempt
        try:
            result = (pickle.loads(worker.conn.recv_bytes())
                      if worker.conn.poll() else None)
        except (EOFError, OSError):
            result = None
        except Exception as exc:       # noqa: BLE001 - did not unpickle
            result = ("err", EXCEPTION, type(exc).__name__,
                      f"result could not be received: {exc}",
                      traceback.format_exc(), False)
        if result is None:
            self._lost(worker)
            return
        worker.index = worker.deadline = None
        if not worker.process.is_alive():   # died right after sending
            self._retire(worker)
        self._settle(index, attempt, result)

    def _lost(self, worker: _Worker) -> None:
        """The worker died holding its run: replace it, charge the run."""
        index, attempt = worker.index, worker.attempt
        self._retire(worker)
        self._note(EventKind.WORKER_DEATH.value, index, self.keys[index])
        self._settle(index, attempt, (
            "err", WORKER_DEATH, "WorkerDeath",
            f"worker exited with code {worker.process.exitcode} before "
            f"delivering a result", "", True))

    def _retire(self, worker: _Worker) -> None:
        worker.process.kill()
        worker.process.join()
        worker.conn.close()
        self.workers.remove(worker)

    def _close(self) -> None:
        for worker in self.workers:
            if worker.index is not None:
                worker.process.kill()
                continue
            try:
                worker.conn.send(None)
            except OSError:
                pass
        for worker in self.workers:
            worker.process.join()
            worker.conn.close()
        self.workers = []


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
