"""Durable job store and job kinds for the campaign service.

A *job* is one declarative experiment spec -- a fuzz campaign, a
parameter sweep, or a figure experiment -- submitted as JSON and
executed item-by-item by the worker fleet (:mod:`repro.service.worker`).
Everything about a job is content-addressed and deterministic:

* The **job id** is a SHA-256 over the canonicalized spec, so
  resubmitting an identical spec lands on the existing job -- a finished
  job returns instantly, an interrupted one resumes.
* Each job expands to an ordered list of **items** (single simulator
  runs) whose keys are content hashes over exactly what determines the
  result (model + trace + checking cadence, or the existing
  :func:`~repro.harness.result_cache.run_key` for config/workload runs).
  Item keys index the shared :mod:`~repro.service.store` result store,
  so identical runs dedupe across jobs and users -- and sweep items use
  the *same* keys the interactive session cache uses.
* **Finalize** folds the committed payloads with the same plan/fold
  code the in-process harness uses (:mod:`repro.verify.differential`,
  :class:`~repro.harness.sweep.Sweep`) and writes a canonical
  :class:`~repro.harness.campaign.CampaignJournal` in plan order, so a
  job's journal is bit-identical no matter how many workers ran it, how
  many died, or how many times it was resumed.

Job state lives in ``state.json`` (atomic replace, validated
transitions): ``queued -> running -> done | failed | partial``, with
terminal states re-queueable by resubmission.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.common.errors import ConfigError
from repro.common.ioutil import atomic_write_text
from repro.harness.campaign import CampaignJournal, journal_summary
from repro.obs.events import EventKind
from repro.obs.sinks import AppendJsonlSink
from repro.service.queue import LeaseQueue, QueueItem
from repro.service.store import DiskResultStore, store_from_env

#: Job lifecycle states and the legal transitions between them.
#: Same-state writes are idempotent (two workers marking ``running``).
STATES = ("queued", "running", "done", "failed", "partial")
_TRANSITIONS = {
    "queued": {"queued", "running", "failed"},
    "running": {"running", "done", "failed", "partial"},
    "done": {"queued"},
    "failed": {"queued"},
    "partial": {"queued"},
}

#: Job states with nothing left to execute.
TERMINAL = ("done", "failed", "partial")


def _canonical_json(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _content_key(prefix: str, *parts) -> str:
    digest = hashlib.sha256(repr(parts).encode("utf-8")).hexdigest()
    return f"{prefix}-{digest}"


# ----------------------------------------------------------------------
# Specs and ids
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class JobSpec:
    """One declarative experiment: a kind plus normalized parameters."""

    kind: str
    params: Dict[str, Any]

    @classmethod
    def make(cls, kind: str, params: Optional[Dict[str, Any]] = None
             ) -> "JobSpec":
        """Validate and normalize: unknown kinds / bad params raise
        :class:`~repro.common.errors.ConfigError` (one clean CLI line)."""
        if kind not in JOB_KINDS:
            known = ", ".join(sorted(JOB_KINDS))
            raise ConfigError(
                f"unknown job kind {kind!r}; known kinds: {known}")
        normalized = JOB_KINDS[kind].normalize(dict(params or {}))
        return cls(kind, normalized)

    def to_json(self) -> str:
        return _canonical_json({"kind": self.kind, "params": self.params})

    @classmethod
    def from_json(cls, text: str) -> "JobSpec":
        record = json.loads(text)
        return cls.make(record["kind"], record.get("params"))


def job_id_for(spec: JobSpec) -> str:
    """Content-addressed job id: same spec, same job, every time."""
    digest = hashlib.sha256(spec.to_json().encode("utf-8")).hexdigest()
    return f"job-{digest[:16]}"


@dataclass
class JobRecord:
    """One job's externally visible status."""

    job_id: str
    kind: str
    state: str
    items: int
    done: int = 0
    failed: int = 0
    params: Dict[str, Any] = field(default_factory=dict)
    updated: float = 0.0

    @property
    def progress(self) -> str:
        text = f"{self.done}/{self.items}"
        if self.failed:
            text += f" ({self.failed} failed)"
        return text

    def describe(self) -> str:
        return (f"{self.job_id}  {self.kind:<7} {self.state:<8} "
                f"{self.progress}")


# ----------------------------------------------------------------------
# Job kinds
# ----------------------------------------------------------------------
class JobKind:
    """One executable job flavour: validation, item expansion,
    per-item execution, and the fold back into a verdict + artifacts.

    ``execute`` and ``finalize`` must be deterministic functions of the
    spec (the fleet relies on re-execution after a worker death being
    bit-identical), so parameters are normalized up front and every
    source of run-order or randomness is pinned by the spec itself.
    """

    kind = ""

    def normalize(self, params: Dict[str, Any]) -> Dict[str, Any]:
        raise NotImplementedError

    def item_keys(self, spec: JobSpec) -> List[str]:
        """Content-addressed result-store keys, in execution order."""
        raise NotImplementedError

    def execute(self, spec: JobSpec, index: int) -> Any:
        """Run one item; the return value must pickle."""
        raise NotImplementedError

    def finalize(self, spec: JobSpec, payloads: Sequence[Optional[Any]],
                 failures: Sequence[str], job_dir: Path
                 ) -> Tuple[str, Dict[str, Any]]:
        """Fold payloads (plan order, ``None`` = lost run) into the
        final state + summary, writing the canonical journal."""
        raise NotImplementedError

    # -- shared helpers ------------------------------------------------
    @staticmethod
    def _int(params, name, default, minimum=0) -> int:
        value = params.get(name, default)
        if not isinstance(value, int) or isinstance(value, bool) \
                or value < minimum:
            raise ConfigError(f"job parameter {name!r} must be an "
                              f"integer >= {minimum}, got {value!r}")
        return value

    @staticmethod
    def write_journal(job_dir: Path, meta: Dict[str, Any],
                      records: Sequence[Tuple[str, Any]]) -> Path:
        """(Re)write the canonical plan-order journal for one job.

        Built fresh at finalize time -- never appended to during
        execution -- so the byte stream is a pure function of the spec
        and the committed payloads, independent of worker interleaving.
        """
        path = job_dir / "journal.jsonl"
        try:
            path.unlink()               # finalize may re-run (takeover)
        except OSError:
            pass
        journal = CampaignJournal(path)
        try:
            journal.ensure_meta(**meta)
            for key, payload in records:
                if payload is not None:
                    journal.commit(key, payload)
        finally:
            journal.close()
        return path


class FuzzJobKind(JobKind):
    """A differential fuzz campaign (``repro fuzz`` as a service job)."""

    kind = "fuzz"

    #: Plans are deterministic functions of the normalized params;
    #: memoized so a worker does not regenerate every trace per item.
    _memo: Dict[str, Any] = {}

    def normalize(self, params):
        models = params.get("models")
        if models is not None:
            if (not isinstance(models, list)
                    or not all(isinstance(m, str) for m in models)):
                raise ConfigError("job parameter 'models' must be a "
                                  "list of model names")
            from repro.verify.models import model_by_name
            for name in models:
                model_by_name(name)     # raises ConfigError when unknown
        return {
            "seed": self._int(params, "seed", 0),
            "budget": self._int(params, "budget", 25, minimum=1),
            "check_every": self._int(params, "check_every", 1),
            "steps_per_trace": self._int(params, "steps_per_trace", 48,
                                         minimum=1),
            "models": models,
        }

    def plan(self, spec: JobSpec):
        from repro.verify.differential import plan_campaign
        from repro.verify.models import model_by_name
        memo_key = spec.to_json()
        plan = self._memo.get(memo_key)
        if plan is None:
            params = spec.params
            models = (None if params["models"] is None else
                      [model_by_name(name) for name in params["models"]])
            plan = plan_campaign(
                params["seed"], params["budget"], models=models,
                check_every=params["check_every"],
                steps_per_trace=params["steps_per_trace"])
            self._memo.clear()          # one live plan is plenty
            self._memo[memo_key] = plan
        return plan

    def item_keys(self, spec):
        plan = self.plan(spec)
        keys = []
        for trace in plan.traces:
            for model in plan.specs:
                keys.append(_content_key(
                    "fuzz", model.name, trace.steps, plan.check_every))
        return keys

    def execute(self, spec, index):
        return self.plan(spec).run_one(index)

    def finalize(self, spec, payloads, failures, job_dir):
        from repro.verify.differential import build_report, fold_flat
        plan = self.plan(spec)
        report = build_report(plan)
        report.harness_failures.extend(failures)
        fold_flat(report, plan, list(payloads))
        params = spec.params
        journal = self.write_journal(
            job_dir,
            dict(campaign="fuzz", seed=params["seed"],
                 check_every=params["check_every"],
                 steps_per_trace=params["steps_per_trace"], fault=None,
                 models=[model.name for model in plan.specs]),
            list(zip(plan.keys, payloads)))
        report.journal_path = str(journal)
        state = ("done" if report.ok else
                 "partial" if report.partial else "failed")
        return state, {
            "kind": self.kind,
            "ok": report.ok,
            "runs": report.runs,
            "traces": report.traces_run,
            "models": list(report.models),
            "divergences": [str(d) for d in report.divergences],
            "digest_mismatches": list(report.digest_mismatches),
            "harness_failures": list(report.harness_failures),
            "text": report.summary(),
        }


class SweepJobKind(JobKind):
    """A directory-ratio sweep: ZeroDEV at each ratio R versus the
    sparse baseline, one speedup point per ratio.

    Items are ordinary (config, workload) runs keyed by
    :func:`~repro.harness.result_cache.run_key`, so they share store
    entries with every other sweep, figure, and interactive session.
    """

    kind = "sweep"

    def normalize(self, params):
        apps = params.get("apps", ["freqmine"])
        if (not isinstance(apps, list) or not apps
                or not all(isinstance(a, str) for a in apps)):
            raise ConfigError("job parameter 'apps' must be a non-empty "
                              "list of application names")
        from repro.workloads.suites import find_profile
        for app in apps:
            try:
                find_profile(app)
            except KeyError as exc:
                raise ConfigError(str(exc)) from None
        ratios = params.get("ratios", [0, 0.5, 1.0])
        if (not isinstance(ratios, list) or not ratios
                or not all(isinstance(r, (int, float))
                           and not isinstance(r, bool) and r >= 0
                           for r in ratios)):
            raise ConfigError("job parameter 'ratios' must be a "
                              "non-empty list of ratios >= 0 "
                              "(0 = no directory)")
        return {
            "apps": list(apps),
            "ratios": [float(r) for r in ratios],
            "accesses": self._int(params, "accesses", 2000, minimum=1),
            "seed": self._int(params, "seed", 5),
        }

    def _parts(self, spec: JobSpec):
        from repro.common.config import (DirectoryConfig, LLCReplacement,
                                         Protocol, scaled_socket)
        from repro.harness.sweep import Sweep
        from repro.workloads.suites import find_profile, make_multithreaded
        params = spec.params
        reference = scaled_socket()

        def zerodev_at(ratio):
            return reference.with_(
                protocol=Protocol.ZERODEV,
                directory=DirectoryConfig(
                    ratio=ratio if ratio > 0 else None),
                llc_replacement=LLCReplacement.DATA_LRU)

        sweep = Sweep(reference, zerodev_at)
        workloads = [
            make_multithreaded(find_profile(app), reference,
                               params["accesses"], seed=params["seed"])
            for app in params["apps"]]
        return sweep, workloads, sweep.plan_specs(params["ratios"],
                                                  workloads)

    def item_keys(self, spec):
        from repro.harness.result_cache import run_key
        _sweep, _workloads, planned = self._parts(spec)
        return [run_key(config, workload)
                for config, workload in planned]

    def execute(self, spec, index):
        from repro.harness.parallel import execute_run
        _sweep, _workloads, planned = self._parts(spec)
        return execute_run(planned[index])

    def finalize(self, spec, payloads, failures, job_dir):
        sweep, workloads, planned = self._parts(spec)
        params = spec.params
        from repro.harness.result_cache import run_key
        keys = [run_key(config, workload)
                for config, workload in planned]
        self.write_journal(
            job_dir,
            dict(campaign="sweep", apps=params["apps"],
                 ratios=params["ratios"], accesses=params["accesses"],
                 seed=params["seed"]),
            list(zip(keys, payloads)))
        complete = all(payload is not None for payload in payloads)
        summary: Dict[str, Any] = {
            "kind": self.kind,
            "ok": complete and not failures,
            "harness_failures": list(failures),
        }
        if complete:
            points = sweep.fold_results(params["ratios"], workloads,
                                        list(payloads))
            summary["points"] = [
                {"ratio": point.value,
                 "geomean_speedup": point.geomean_speedup,
                 "speedups": dict(point.speedups)}
                for point in points]
            summary["text"] = "\n".join(
                f"R={point.value:g}: geomean speedup "
                f"{point.geomean_speedup:.3f}" for point in points)
            state = "done" if not failures else "partial"
        else:
            summary["text"] = (f"{sum(p is None for p in payloads)} of "
                               f"{len(payloads)} runs missing")
            state = "partial" if not failures else "partial"
        return state, summary


class FigureJobKind(JobKind):
    """One figure experiment (``repro run FIG``) as a single-item job."""

    kind = "figure"

    def normalize(self, params):
        from repro.cli import EXPERIMENTS
        figure = params.get("figure")
        if figure not in EXPERIMENTS:
            known = ", ".join(sorted(EXPERIMENTS))
            raise ConfigError(f"job parameter 'figure' must be one of: "
                              f"{known} (got {figure!r})")
        return {
            "figure": figure,
            "accesses": self._int(params, "accesses", 0),
        }

    def item_keys(self, spec):
        params = spec.params
        return [_content_key("figure", params["figure"],
                             params["accesses"])]

    def execute(self, spec, index):
        from repro.cli import EXPERIMENTS
        params = spec.params
        saved = os.environ.get("REPRO_ACCESSES")
        if params["accesses"]:
            os.environ["REPRO_ACCESSES"] = str(params["accesses"])
        try:
            table, _results = EXPERIMENTS[params["figure"]]()
        finally:
            # The next item in this process must see the caller's size.
            if saved is None:
                os.environ.pop("REPRO_ACCESSES", None)
            else:
                os.environ["REPRO_ACCESSES"] = saved
        return table.to_dict()

    def finalize(self, spec, payloads, failures, job_dir):
        params = spec.params
        table = payloads[0] if payloads else None
        self.write_journal(
            job_dir,
            dict(campaign="figure", figure=params["figure"],
                 accesses=params["accesses"]),
            list(zip(self.item_keys(spec), payloads)))
        if table is None:
            return "partial", {"kind": self.kind, "ok": False,
                               "harness_failures": list(failures),
                               "text": "figure run missing"}
        artifacts = job_dir / "artifacts"
        artifacts.mkdir(exist_ok=True)
        atomic_write_text(artifacts / "figure.json",
                          json.dumps(table, indent=1) + "\n")
        rows = table.get("rows", [])
        return "done", {
            "kind": self.kind,
            "ok": True,
            "title": table.get("title", params["figure"]),
            "rows": rows,
            "harness_failures": list(failures),
            "text": f"{table.get('title', '')}: {len(rows)} rows",
        }


JOB_KINDS: Dict[str, JobKind] = {
    kind.kind: kind
    for kind in (FuzzJobKind(), SweepJobKind(), FigureJobKind())
}


# ----------------------------------------------------------------------
# The on-disk job store
# ----------------------------------------------------------------------
class JobStore:
    """One service root directory: jobs, queue, and the result store.

    Layout::

        <root>/jobs/<job_id>/spec.json      canonical spec (content-addressed)
                             state.json     atomic, validated transitions
                             runs/<i>.pkl   committed item payloads
                             runs/<i>.fail.json  items lost after retries
                             events.jsonl   operational events (append-only)
                             journal.jsonl  canonical plan-order journal
                             report.html    self-contained experiment report
        <root>/queue/                       the shared lease queue
        <root>/store/                       default result store
                                            (``REPRO_STORE`` overrides)
    """

    def __init__(self, root,
                 store: Optional[DiskResultStore] = None) -> None:
        self.root = Path(root)
        self.jobs_dir = self.root / "jobs"
        self.queue_dir = self.root / "queue"
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        if store is None:
            store = store_from_env()
        if store is None:
            store = DiskResultStore(self.root / "store")
        self.store = store

    # -- paths ---------------------------------------------------------
    def job_dir(self, job_id: str) -> Path:
        return self.jobs_dir / job_id

    def runs_dir(self, job_id: str) -> Path:
        return self.job_dir(job_id) / "runs"

    def payload_path(self, job_id: str, index: int) -> Path:
        return self.runs_dir(job_id) / f"{index:05d}.pkl"

    def fail_path(self, job_id: str, index: int) -> Path:
        return self.runs_dir(job_id) / f"{index:05d}.fail.json"

    def events(self, job_id: str) -> AppendJsonlSink:
        return AppendJsonlSink(self.job_dir(job_id) / "events.jsonl")

    # -- specs ---------------------------------------------------------
    def load_spec(self, job_id: str) -> JobSpec:
        text = (self.job_dir(job_id) / "spec.json").read_text(
            encoding="utf-8")
        return JobSpec.from_json(text)

    # -- state ---------------------------------------------------------
    def _state_path(self, job_id: str) -> Path:
        return self.job_dir(job_id) / "state.json"

    def read_state(self, job_id: str) -> Dict[str, Any]:
        return json.loads(self._state_path(job_id).read_text(
            encoding="utf-8"))

    def transition(self, job_id: str, new_state: str,
                   **extra) -> Dict[str, Any]:
        """Atomically move a job to ``new_state`` (validated)."""
        state = self.read_state(job_id)
        current = state["state"]
        if new_state not in _TRANSITIONS.get(current, set()):
            raise ConfigError(
                f"job {job_id}: illegal state transition "
                f"{current!r} -> {new_state!r}")
        if new_state != current or extra:
            state["state"] = new_state
            state["updated"] = time.time()
            state.update(extra)
            atomic_write_text(self._state_path(job_id),
                              json.dumps(state, indent=1) + "\n")
            self.events(job_id).write_record(
                {"kind": EventKind.JOB_STATE.value, "cause": new_state})
        return state

    # -- submission ----------------------------------------------------
    def submit(self, spec: JobSpec,
               queue: Optional[LeaseQueue] = None
               ) -> Tuple[JobRecord, bool]:
        """Submit (or resume) a job; returns ``(record, created)``.

        Content-addressed dedupe: an identical spec maps to the same
        job id. A finished job returns its record instantly; a
        ``failed``/``partial`` job is re-queued (only the items without
        committed payloads); a ``queued``/``running`` job is joined.
        """
        job_id = job_id_for(spec)
        job_dir = self.job_dir(job_id)
        queue = queue if queue is not None else LeaseQueue(self.queue_dir)
        keys = JOB_KINDS[spec.kind].item_keys(spec)
        if self._state_path(job_id).exists():
            record = self.record(job_id)
            if record.state == "done" or record.state not in TERMINAL:
                return record, False
            requeued = self._requeue_missing(job_id, keys, queue)
            self.transition(job_id, "queued", requeued=requeued)
            return self.record(job_id), False
        job_dir.mkdir(parents=True, exist_ok=True)
        self.runs_dir(job_id).mkdir(exist_ok=True)
        atomic_write_text(job_dir / "spec.json", spec.to_json() + "\n")
        atomic_write_text(self._state_path(job_id), json.dumps({
            "job": job_id, "kind": spec.kind, "state": "queued",
            "items": len(keys), "submitted": time.time(),
            "updated": time.time(),
        }, indent=1) + "\n")
        self.events(job_id).write_record(
            {"kind": EventKind.JOB_STATE.value, "cause": "queued"})
        for index, key in enumerate(keys):
            queue.enqueue(QueueItem(job_id, index, key))
        return self.record(job_id), True

    def _requeue_missing(self, job_id: str, keys: Sequence[str],
                         queue: LeaseQueue) -> int:
        requeued = 0
        for index, key in enumerate(keys):
            if self.payload_path(job_id, index).exists():
                continue
            try:                        # a fresh attempt gets a clean slate
                self.fail_path(job_id, index).unlink()
            except OSError:
                pass
            queue.enqueue(QueueItem(job_id, index, key))
            requeued += 1
        return requeued

    # -- inspection ----------------------------------------------------
    def record(self, job_id: str) -> JobRecord:
        state = self.read_state(job_id)
        runs = self.runs_dir(job_id)
        done = failed = 0
        if runs.is_dir():
            for path in runs.iterdir():
                if path.name.endswith(".fail.json"):
                    failed += 1
                elif path.suffix == ".pkl":
                    done += 1
        spec = self.load_spec(job_id)
        return JobRecord(job_id, state.get("kind", spec.kind),
                         state["state"], state.get("items", 0),
                         done=done, failed=failed, params=spec.params,
                         updated=state.get("updated", 0.0))

    def list_jobs(self) -> List[JobRecord]:
        records = []
        for path in sorted(self.jobs_dir.iterdir()):
            if (path / "state.json").is_file():
                records.append(self.record(path.name))
        return records

    def failure_lines(self, job_id: str) -> List[str]:
        """Human-readable lines for every lost item, in item order."""
        lines = []
        runs = self.runs_dir(job_id)
        if not runs.is_dir():
            return lines
        for path in sorted(runs.glob("*.fail.json")):
            try:
                record = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                lines.append(f"{path.name}: unreadable failure record")
                continue
            detail = (f": {record['error_type']}: {record['error']}"
                      if record.get("error_type") else
                      f": {record['error']}" if record.get("error")
                      else "")
            lines.append(f"{record.get('key', path.stem)}: "
                         f"{record.get('kind', 'failure')} after "
                         f"{record.get('attempts', '?')} "
                         f"attempt(s){detail}")
        return lines

    # -- completion ----------------------------------------------------
    def is_complete(self, job_id: str) -> bool:
        """Every item has a committed payload or a failure record."""
        state = self.read_state(job_id)
        items = state.get("items", 0)
        settled = sum(
            1 for index in range(items)
            if self.payload_path(job_id, index).exists()
            or self.fail_path(job_id, index).exists())
        return settled >= items

    def finalize(self, job_id: str,
                 stale_lock_after: float = 600.0) -> Optional[str]:
        """Fold a complete job into its verdict, journal, and report.

        Exactly-once via an ``O_EXCL`` lock file; a lock left by a
        finalizer that died (job still non-terminal after
        ``stale_lock_after`` seconds) is taken over. Returns the final
        state, or ``None`` when the job is incomplete or another
        finalizer holds the lock.
        """
        if not self.is_complete(job_id):
            return None
        state = self.read_state(job_id)
        if state["state"] in TERMINAL:
            return state["state"]
        lock = self.job_dir(job_id) / "finalize.lock"
        try:
            fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            try:
                stale = (time.time() - lock.stat().st_mtime
                         > stale_lock_after)
            except OSError:
                return None             # released underneath us
            if not stale:
                return None
            try:                        # dead finalizer: take over
                lock.unlink()
                fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except OSError:
                return None
        try:
            os.write(fd, f"{os.getpid()}\n".encode())
        finally:
            os.close(fd)
        try:
            spec = self.load_spec(job_id)
            items = state.get("items", 0)
            payloads: List[Optional[Any]] = []
            for index in range(items):
                payloads.append(self._load_payload(job_id, index))
            final_state, summary = JOB_KINDS[spec.kind].finalize(
                spec, payloads, self.failure_lines(job_id),
                self.job_dir(job_id))
            atomic_write_text(self.job_dir(job_id) / "summary.json",
                              json.dumps(summary, indent=1) + "\n")
            self.transition(job_id, final_state)
            return final_state
        finally:
            try:
                lock.unlink()
            except OSError:
                pass

    def _load_payload(self, job_id: str, index: int) -> Optional[Any]:
        try:
            data = self.payload_path(job_id, index).read_bytes()
        except OSError:
            return None
        try:
            return pickle.loads(data)
        except Exception:              # noqa: BLE001 - treat as missing
            return None

    def commit_payload(self, job_id: str, index: int,
                       payload: Any) -> None:
        """Durably (and idempotently) publish one item's payload."""
        path = self.payload_path(job_id, index)
        path.parent.mkdir(parents=True, exist_ok=True)
        data = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        temp = path.with_name(path.name + f".tmp{os.getpid()}")
        with temp.open("wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, path)

    def journal_status(self, job_id: str) -> Optional[Dict[str, Any]]:
        """The canonical journal's summary, if finalized yet."""
        path = self.job_dir(job_id) / "journal.jsonl"
        if not path.exists():
            return None
        return journal_summary(path)
