"""The worker fleet: ``repro work`` processes draining the lease queue.

Any number of workers (across any number of hosts sharing the service
root) run this loop:

1. **Reclaim** -- re-enqueue expired leases (their owner stopped
   heartbeating: SIGKILL, wedge, power loss). Determinism makes
   re-execution safe; the claim-side committed-payload check makes it
   idempotent.
2. **Claim** -- atomically take the first pending item.
3. **Execute** -- consult the shared result store first (identical runs
   dedupe across jobs); otherwise run the item under
   :func:`~repro.harness.campaign.execute_guarded` (self-armed per-run
   deadline, typed failures) while a daemon thread heartbeats the lease.
4. **Commit** -- atomically publish the payload into the job's ``runs/``
   directory and the result store, then release the lease. Transient
   failures are requeued with their attempt count bumped (capped by the
   campaign policy); persistent ones become failure records.
5. **Finalize** -- when the job's last item settles, fold it into its
   verdict, canonical journal, and HTML report (exactly-once via the
   job store's finalize lock).

Each step is crash-safe at its boundary: dying *before* the payload
commit leaves the lease to expire and the item re-executes
bit-identically; dying *after* leaves a committed payload plus a stale
lease that reclaims into a no-op.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
from typing import Optional

from repro.common.errors import ConfigError
from repro.common.ioutil import atomic_write_text
from repro.harness.campaign import (CampaignPolicy, _should_retry,
                                    execute_guarded, policy_from_env)
from repro.obs.events import EventKind
from repro.service.jobs import JOB_KINDS, JobStore
from repro.service.queue import DEFAULT_TTL, LeaseQueue, QueueItem

#: A lease reclaimed this many times marks a poison item: it killed (or
#: outlived) every worker that touched it, so it becomes a failure
#: record instead of being re-executed forever.
MAX_RECLAIMS = 5


class Worker:
    """One fleet member bound to a service root directory."""

    def __init__(self, root, worker_id: Optional[str] = None,
                 lease_ttl: float = DEFAULT_TTL, poll: float = 0.5,
                 policy: Optional[CampaignPolicy] = None,
                 max_reclaims: int = MAX_RECLAIMS) -> None:
        # The policy first: a bad REPRO_RUN_TIMEOUT / REPRO_RETRIES
        # fails before the service root is touched.
        self.policy = policy if policy is not None else \
            policy_from_env(CampaignPolicy())
        self.jobs = JobStore(root)
        self.queue = LeaseQueue(self.jobs.queue_dir, ttl=lease_ttl)
        self.worker_id = (worker_id or
                          f"{socket.gethostname()}-{os.getpid()}")
        self.poll = poll
        self.max_reclaims = max_reclaims
        self.processed = 0

    # -- events --------------------------------------------------------
    def _event(self, job_id: str, kind: str, index: int = -1,
               cause: str = "", **extra) -> None:
        record = {"kind": kind, "worker": self.worker_id}
        if index >= 0:
            record["step"] = index
        if cause:
            record["cause"] = cause
        record.update(extra)
        try:
            self.jobs.events(job_id).write_record(record)
        except OSError:
            pass                        # observability must not kill work

    # -- the loop ------------------------------------------------------
    def run(self, once: bool = False, until_idle: bool = False,
            max_items: Optional[int] = None) -> int:
        """Drain the queue; returns the number of items processed.

        ``once`` stops after the first processed item; ``until_idle``
        exits when no work is pending *or in flight* anywhere (the
        batch-mode used by scripts and CI); neither means serve forever.
        """
        while True:
            self._reclaim_expired()
            item = self.queue.claim()
            if item is not None:
                self.process(item)
                self.processed += 1
                if once or (max_items is not None
                            and self.processed >= max_items):
                    return self.processed
                continue
            if until_idle and self.queue.idle():
                return self.processed
            if once:
                return self.processed
            time.sleep(self.poll)

    def _reclaim_expired(self) -> None:
        for lease in self.queue.expired_leases():
            item = self.queue.reclaim(lease)
            if item is not None:
                self._event(item.job, EventKind.LEASE_RECLAIM.value,
                            item.index, cause=self.worker_id,
                            reclaims=item.reclaims)

    # -- one item ------------------------------------------------------
    def process(self, item: QueueItem) -> None:
        try:
            spec = self.jobs.load_spec(item.job)
        except (OSError, ValueError, ConfigError):
            # A queue entry for a job that no longer exists (deleted
            # directory, corrupted spec): drop it rather than wedge.
            self.queue.release(item)
            return
        if self.jobs.payload_path(item.job, item.index).exists():
            # Duplicate from a reclaim race: already committed.
            self.queue.release(item)
            self._maybe_finalize(item.job)
            return
        try:
            self.jobs.transition(item.job, "running")
        except ConfigError:
            # Terminal job with a stray queue entry: nothing to run.
            self.queue.release(item)
            return
        if item.reclaims > self.max_reclaims:
            self._fail(item, kind="worker-death", error_type="",
                       error=f"poison item: lease reclaimed "
                             f"{item.reclaims} times")
            return

        stored = self.jobs.store.get(item.key)
        if stored is not None:
            self._event(item.job, EventKind.STORE_HIT.value, item.index,
                        cause=item.key[:16])
            self._commit(item, stored, to_store=False)
            return

        kind = JOB_KINDS[spec.kind]
        stop = threading.Event()
        beat = threading.Thread(target=self._heartbeat,
                                args=(item, stop), daemon=True)
        beat.start()
        try:
            outcome = execute_guarded(
                lambda index: kind.execute(spec, index), item.index,
                self.policy.run_timeout)
        finally:
            stop.set()
            beat.join()
        if outcome[0] == "ok":
            self._commit(item, outcome[1], to_store=True)
            return
        _tag, fail_kind, error_type, error, _tb, transient = outcome
        if _should_retry(self.policy, fail_kind, transient, item.attempt):
            self._event(item.job, EventKind.RUN_RETRY.value, item.index,
                        cause=f"{error_type}: {error}" if error_type
                        else fail_kind, attempt=item.attempt)
            time.sleep(self.policy.backoff(item.attempt))
            self.queue.requeue(item)
            return
        self._fail(item, kind=fail_kind, error_type=error_type,
                   error=error)

    def _heartbeat(self, item: QueueItem, stop: threading.Event) -> None:
        interval = max(0.05, self.queue.ttl / 4.0)
        while not stop.wait(interval):
            try:
                self.queue.heartbeat(item)
            except OSError:
                return                 # lease reclaimed underneath us

    def _commit(self, item: QueueItem, payload, to_store: bool) -> None:
        if to_store:
            try:
                self.jobs.store.put(item.key, payload)
            except OSError:
                pass                    # store is an optimization only
        self.jobs.commit_payload(item.job, item.index, payload)
        self.queue.release(item)
        self._event(item.job, "run_ok", item.index)
        self._maybe_finalize(item.job)

    def _fail(self, item: QueueItem, kind: str, error_type: str,
              error: str) -> None:
        atomic_write_text(
            self.jobs.fail_path(item.job, item.index),
            json.dumps({"key": item.key, "kind": kind,
                        "error_type": error_type, "error": error,
                        "attempts": item.attempt,
                        "reclaims": item.reclaims,
                        "worker": self.worker_id}, indent=1) + "\n")
        self.queue.release(item)
        self._event(item.job, "run_failure", item.index,
                    cause=kind)
        self._maybe_finalize(item.job)

    def _maybe_finalize(self, job_id: str) -> None:
        final = self.jobs.finalize(job_id,
                                   stale_lock_after=self.queue.ttl * 4)
        if final is None:
            return
        try:
            from repro.service.html_report import write_job_report
            write_job_report(self.jobs.job_dir(job_id))
        except Exception as exc:       # noqa: BLE001 - report is a view
            self._event(job_id, "report_error", cause=str(exc))


def run_worker(root, worker_id: Optional[str] = None,
               lease_ttl: float = DEFAULT_TTL, poll: float = 0.5,
               once: bool = False, until_idle: bool = False,
               max_items: Optional[int] = None,
               policy: Optional[CampaignPolicy] = None) -> int:
    """Entry point used by ``repro work`` and the fleet tests."""
    worker = Worker(root, worker_id=worker_id, lease_ttl=lease_ttl,
                    poll=poll, policy=policy)
    return worker.run(once=once, until_idle=until_idle,
                      max_items=max_items)
