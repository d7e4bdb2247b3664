"""`repro.service`: the async campaign job service.

The campaign layer (:mod:`repro.harness.campaign`) made one blocking
invocation on one host fault tolerant; this package turns it into a
*service* that many users and many hosts submit through:

* :mod:`repro.service.jobs` -- the job API: a sweep/fuzz/figure spec is
  one JSON document, submitted into a durable on-disk :class:`JobStore`
  with atomic state transitions (``queued -> running -> done / failed /
  partial``). Identical submissions share a job id, so a re-submitted
  spec that already completed returns instantly.
* :mod:`repro.service.queue` -- the shared work queue: each job expands
  into run-granular items that workers *lease* (atomic rename), renew by
  heartbeat, and release on commit. A SIGKILLed worker's leases expire
  and are reclaimed by any surviving worker; the simulator is
  deterministic, so re-execution commits the identical payload.
* :mod:`repro.service.worker` -- the worker fleet: ``repro work``
  processes (N per host, hosts sharing one service root) that lease,
  execute, commit, and finalize jobs.
* :mod:`repro.service.store` -- the content-addressed
  :class:`DiskResultStore` shared by the fleet and by
  :class:`~repro.harness.result_cache.ResultCache`, so identical runs
  dedupe to store hits across users and jobs.
* :mod:`repro.service.html_report` -- self-contained HTML experiment
  reports rendered from a job's journal, events, and time series.
"""

from repro.service.jobs import (JOB_KINDS, JobRecord, JobSpec, JobStore,
                                job_id_for)
from repro.service.queue import LeaseQueue, QueueItem
from repro.service.store import DiskResultStore
from repro.service.worker import Worker, run_worker

__all__ = [
    "DiskResultStore", "JOB_KINDS", "JobRecord", "JobSpec", "JobStore",
    "LeaseQueue", "QueueItem", "Worker", "job_id_for", "run_worker",
]
