"""Tests for the campaign job service (``repro.service``).

The load-bearing properties:

* **Result store** -- the disk store round-trips payloads (``get``
  never raises, ``put`` is atomic), :class:`ResultCache` works over it,
  and ``REPRO_STORE`` names the session cache's directory.
* **Lease queue** -- claims are exclusive, heartbeats keep leases
  alive, expired leases are reclaimed exactly once with their reclaim
  count bumped, and requeues never lose items.
* **Worker-fleet failure matrix** -- a SIGKILLed worker's leased run is
  reclaimed and re-executed by a second worker, and the finished job's
  canonical journal is *byte-identical* to an uninterrupted
  single-worker run; poison items fail after bounded reclaims; partial
  jobs resume by resubmission.
* **Dedupe** -- resubmitting a finished spec returns instantly;
  identical runs across different jobs are served from the shared
  result store (``store_hit`` events).
* **HTML reports** -- self-contained: no external URLs, scripts, or
  stylesheet links.
"""

from __future__ import annotations

import json
import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.common.errors import ConfigError
from repro.harness.campaign import CampaignPolicy, fork_available
from repro.harness.parallel import execute_run
from repro.harness.result_cache import (ResultCache, reset_session_cache,
                                        run_key, session_cache)
from repro.service import (DiskResultStore, JobSpec, JobStore,
                           LeaseQueue, QueueItem, job_id_for)
from repro.service.worker import MAX_RECLAIMS, Worker, run_worker
from repro.workloads import make_multithreaded
from repro.workloads.suites import find_profile

from tests.conftest import tiny_config

needs_fork = pytest.mark.skipif(not fork_available(),
                                reason="fork start method unavailable")

#: A small fuzz job: 2 traces x 2 models = 4 items, seconds to run.
SMALL_FUZZ = {"budget": 2,
              "models": ["baseline-1x",
                         "zerodev-fuse-private-spill-shared"]}


@pytest.fixture(autouse=True)
def isolated_store_env(monkeypatch):
    monkeypatch.delenv("REPRO_STORE", raising=False)
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    reset_session_cache()
    yield
    reset_session_cache()


def drain(root, **kwargs) -> int:
    kwargs.setdefault("poll", 0.05)
    kwargs.setdefault("until_idle", True)
    return run_worker(root, **kwargs)


def read_journal(root, job_id):
    """(kind, key, payload-bytes) triples plus the raw journal bytes."""
    path = Path(root) / "jobs" / job_id / "journal.jsonl"
    return path.read_bytes()


# ----------------------------------------------------------------------
# Result stores
# ----------------------------------------------------------------------
class TestResultStores:
    def test_round_trip(self, tmp_path):
        store = DiskResultStore(tmp_path / "s")
        assert store.get("k") is None
        store.put("k", {"payload": [1, 2, 3]})
        assert store.get("k") == {"payload": [1, 2, 3]}
        assert "k" in store and len(store) == 1
        assert sorted(store.keys()) == ["k"]
        store.put("k", "replaced")      # overwrite is fine
        assert store.get("k") == "replaced"
        # Workers receive the store by pickle and read the same objects.
        clone = pickle.loads(pickle.dumps(store))
        assert clone.get("k") == "replaced"

    def test_disk_corruption_is_a_miss(self, tmp_path):
        store = DiskResultStore(tmp_path)
        store.put("k", 42)
        store.path_for("k").write_bytes(b"not a pickle")
        assert store.get("k") is None

    def test_result_cache_over_a_shared_store(self, tmp_path):
        workload = make_multithreaded(find_profile("blackscholes"),
                                      tiny_config(), 200, seed=3)
        spec = (tiny_config(), workload)
        result = execute_run(spec)
        key = run_key(*spec)
        cache = ResultCache(store=DiskResultStore(tmp_path / "cache"))
        cache.put(key, result)
        fresh = ResultCache(store=DiskResultStore(tmp_path / "cache"))
        hit = fresh.get(key)
        assert hit is not None
        assert hit.stats.total_cycles == result.stats.total_cycles

    def test_result_cache_rejects_foreign_objects(self, tmp_path):
        store = DiskResultStore(tmp_path / "cache")
        store.put("k", {"not": "a RunResult"})
        assert ResultCache(store=store).get("k") is None

    def test_repro_store_env_must_name_a_directory(self, tmp_path,
                                                   monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "local"))
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "shared"))
        reset_session_cache()
        assert session_cache().store.directory == tmp_path / "shared"
        monkeypatch.delenv("REPRO_STORE")
        assert session_cache().store.directory == tmp_path / "local"
        # A sqlite: spelling is refused, not taken as a directory name.
        monkeypatch.setenv("REPRO_STORE", f"sqlite:{tmp_path / 'x.db'}")
        reset_session_cache()
        with pytest.raises(ConfigError, match="REPRO_STORE"):
            session_cache()
        with pytest.raises(ConfigError, match="REPRO_STORE"):
            JobStore(tmp_path / "svc")


# ----------------------------------------------------------------------
# Lease queue
# ----------------------------------------------------------------------
class TestLeaseQueue:
    def test_claim_is_exclusive(self, tmp_path):
        queue = LeaseQueue(tmp_path)
        queue.enqueue(QueueItem("job-a", 0, "key0"))
        first = queue.claim()
        assert first is not None and first.index == 0
        assert queue.claim() is None    # nothing left to claim
        assert queue.pending() == 1     # but still in flight
        queue.release(first)
        assert queue.idle()

    def test_expired_lease_reclaims_once_with_bumped_count(self,
                                                           tmp_path):
        queue = LeaseQueue(tmp_path, ttl=1.0)
        queue.enqueue(QueueItem("job-a", 0, "key0"))
        item = queue.claim()
        stale = time.time() - 60
        os.utime(item.path, (stale, stale))
        leases = queue.expired_leases()
        assert leases == [item.path]
        reclaimed = queue.reclaim(leases[0])
        assert reclaimed.reclaims == 1
        assert queue.reclaim(leases[0]) is None   # second taker loses
        again = queue.claim()
        assert again.reclaims == 1 and again.key == "key0"

    def test_heartbeat_prevents_expiry(self, tmp_path):
        queue = LeaseQueue(tmp_path, ttl=1.0)
        queue.enqueue(QueueItem("job-a", 0, "key0"))
        item = queue.claim()
        stale = time.time() - 60
        os.utime(item.path, (stale, stale))
        queue.heartbeat(item)
        assert queue.expired_leases() == []

    @pytest.mark.parametrize("ttl", [0, -1.5, float("inf"),
                                     float("nan")],
                             ids=["zero", "negative", "inf", "nan"])
    def test_invalid_ttl_rejected_at_construction(self, tmp_path, ttl):
        # ttl=0 makes every live lease instantly stealable; inf/nan
        # make dead workers' leases unreclaimable. Fail fast instead.
        with pytest.raises(ConfigError, match="TTL"):
            LeaseQueue(tmp_path, ttl=ttl)

    def test_requeue_bumps_attempt(self, tmp_path):
        queue = LeaseQueue(tmp_path)
        queue.enqueue(QueueItem("job-a", 0, "key0"))
        item = queue.claim()
        queue.requeue(item)
        retry = queue.claim()
        assert retry.attempt == item.attempt + 1
        assert queue.pending() == 1     # the lease, no duplicate todo


# ----------------------------------------------------------------------
# Jobs and specs
# ----------------------------------------------------------------------
class TestJobSpecs:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown job kind"):
            JobSpec.make("bake")

    @pytest.mark.parametrize("kind,params,match", [
        ("fuzz", {"budget": 0}, "budget"),
        ("fuzz", {"models": ["nope"]}, "unknown model"),
        ("fuzz", {"seed": "seven"}, "seed"),
        ("sweep", {"apps": []}, "apps"),
        ("sweep", {"apps": ["not-an-app"]}, "unknown application"),
        ("sweep", {"ratios": [-1.0]}, "ratios"),
        ("figure", {"figure": "fig999"}, "figure"),
    ])
    def test_bad_params_rejected(self, kind, params, match):
        with pytest.raises(ConfigError, match=match):
            JobSpec.make(kind, params)

    def test_job_id_is_content_addressed(self):
        a = JobSpec.make("fuzz", {"budget": 2, "seed": 1})
        b = JobSpec.make("fuzz", {"seed": 1, "budget": 2})
        c = JobSpec.make("fuzz", {"budget": 2, "seed": 2})
        assert job_id_for(a) == job_id_for(b)
        assert job_id_for(a) != job_id_for(c)

    def test_illegal_transition_rejected(self, tmp_path):
        store = JobStore(tmp_path)
        record, _created = store.submit(JobSpec.make("fuzz", SMALL_FUZZ))
        with pytest.raises(ConfigError, match="illegal state"):
            store.transition(record.job_id, "done")


# ----------------------------------------------------------------------
# The worker fleet
# ----------------------------------------------------------------------
class TestWorkerFleet:
    def test_single_worker_completes_a_fuzz_job(self, tmp_path):
        store = JobStore(tmp_path)
        record, created = store.submit(JobSpec.make("fuzz", SMALL_FUZZ))
        assert created and record.state == "queued" and record.items == 4
        assert drain(tmp_path) == 4
        final = store.record(record.job_id)
        assert final.state == "done" and final.done == 4
        journal = store.journal_status(record.job_id)
        assert journal["committed"] == 4
        assert journal["meta"]["campaign"] == "fuzz"
        summary = json.loads(
            (store.job_dir(record.job_id) / "summary.json").read_text())
        assert summary["ok"] is True and summary["runs"] == 4

    def test_finished_job_resubmits_instantly(self, tmp_path):
        store = JobStore(tmp_path)
        spec = JobSpec.make("fuzz", SMALL_FUZZ)
        store.submit(spec)
        drain(tmp_path)
        started = time.monotonic()
        record, created = store.submit(spec)
        assert not created and record.state == "done"
        assert time.monotonic() - started < 1.0
        assert LeaseQueue(store.queue_dir).idle()   # nothing re-enqueued

    def test_backdated_lease_is_reclaimed_and_job_finishes(self,
                                                           tmp_path):
        store = JobStore(tmp_path)
        record, _created = store.submit(JobSpec.make("fuzz", SMALL_FUZZ))
        queue = LeaseQueue(store.queue_dir, ttl=1.0)
        held = queue.claim()            # a "worker" that dies silently
        stale = time.time() - 60
        os.utime(held.path, (stale, stale))
        drain(tmp_path, lease_ttl=1.0)
        assert store.record(record.job_id).state == "done"
        events = [json.loads(line) for line in
                  (store.job_dir(record.job_id) / "events.jsonl")
                  .read_text().splitlines()]
        assert any(e["kind"] == "lease_reclaim" for e in events)

    def test_sigkilled_worker_journal_bit_identical(self, tmp_path):
        """Satellite 3: SIGKILL a leased worker; a second worker
        reclaims and finishes; the canonical journal is byte-identical
        to an uninterrupted single-worker run."""
        spec_params = dict(SMALL_FUZZ, budget=3)
        clean_root = tmp_path / "clean"
        fleet_root = tmp_path / "fleet"
        clean_store = JobStore(clean_root)
        clean_record, _ = clean_store.submit(
            JobSpec.make("fuzz", spec_params))
        drain(clean_root)
        assert clean_store.record(clean_record.job_id).state == "done"

        fleet_store = JobStore(fleet_root)
        fleet_record, _ = fleet_store.submit(
            JobSpec.make("fuzz", spec_params))
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        victim = subprocess.Popen(
            [sys.executable, "-m", "repro", "work", "--root",
             str(fleet_root), "--poll", "0.05", "--lease-ttl", "30"],
            env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        try:
            deadline = time.monotonic() + 30
            queue_dir = fleet_store.queue_dir
            while time.monotonic() < deadline:
                if list(queue_dir.glob("*.lease")):
                    break
                time.sleep(0.01)
        finally:
            victim.kill()               # SIGKILL: no cleanup, no release
            victim.wait()
        # The victim's lease (if any) never heartbeats again; backdate
        # it so the surviving worker reclaims immediately instead of
        # the test waiting out a TTL.
        stale = time.time() - 3600
        for lease in fleet_store.queue_dir.glob("*.lease"):
            os.utime(lease, (stale, stale))
        drain(fleet_root, lease_ttl=1.0, worker_id="survivor")
        final = fleet_store.record(fleet_record.job_id)
        assert final.state == "done" and final.done == 6
        assert read_journal(fleet_root, fleet_record.job_id) == \
            read_journal(clean_root, clean_record.job_id)

    def test_poison_item_fails_bounded_and_job_is_partial(self,
                                                          tmp_path):
        store = JobStore(tmp_path)
        record, _created = store.submit(JobSpec.make("fuzz", SMALL_FUZZ))
        queue = LeaseQueue(store.queue_dir)
        poisoned = queue.claim()
        queue.release(poisoned)
        queue.enqueue(QueueItem(poisoned.job, poisoned.index,
                                poisoned.key,
                                reclaims=MAX_RECLAIMS + 1))
        drain(tmp_path)
        final = store.record(record.job_id)
        assert final.state == "partial"
        assert final.failed == 1 and final.done == 3
        assert any("poison" in line
                   for line in store.failure_lines(record.job_id))
        # Resubmission wipes the failure record and finishes the job.
        store.submit(JobSpec.make("fuzz", SMALL_FUZZ))
        drain(tmp_path)
        assert store.record(record.job_id).state == "done"

    def test_identical_runs_dedupe_across_jobs(self, tmp_path,
                                               monkeypatch):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "shared"))
        root_a, root_b = tmp_path / "a", tmp_path / "b"
        JobStore(root_a).submit(JobSpec.make("fuzz", SMALL_FUZZ))
        drain(root_a)
        store_b = JobStore(root_b)
        record, _created = store_b.submit(
            JobSpec.make("fuzz", SMALL_FUZZ))
        drain(root_b)
        assert store_b.record(record.job_id).state == "done"
        events = [json.loads(line) for line in
                  (store_b.job_dir(record.job_id) / "events.jsonl")
                  .read_text().splitlines()]
        hits = [e for e in events if e["kind"] == "store_hit"]
        assert len(hits) == 4           # every run served from the store

    def test_transient_failure_is_retried_in_place(self, tmp_path,
                                                   monkeypatch):
        store = JobStore(tmp_path)
        record, _created = store.submit(JobSpec.make("fuzz", SMALL_FUZZ))
        from repro.service.jobs import JOB_KINDS
        real = JOB_KINDS["fuzz"].execute
        calls = {"n": 0}

        def flaky(spec, index):
            calls["n"] += 1
            if calls["n"] == 1:
                raise OSError("transient I/O blip")
            return real(spec, index)

        monkeypatch.setattr(JOB_KINDS["fuzz"], "execute", flaky)
        worker = Worker(tmp_path, poll=0.05,
                        policy=CampaignPolicy(retries=2,
                                              backoff_base=0.01))
        worker.run(until_idle=True)
        assert store.record(record.job_id).state == "done"
        events = [json.loads(line) for line in
                  (store.job_dir(record.job_id) / "events.jsonl")
                  .read_text().splitlines()]
        assert any(e["kind"] == "run_retry" for e in events)


# ----------------------------------------------------------------------
# Sweep and figure kinds through the service
# ----------------------------------------------------------------------
class TestOtherJobKinds:
    def test_sweep_job_produces_points(self, tmp_path):
        store = JobStore(tmp_path)
        record, _created = store.submit(JobSpec.make("sweep", {
            "apps": ["blackscholes"], "ratios": [0, 1.0],
            "accesses": 300, "seed": 3}))
        assert record.items == 3        # 1 baseline + 2 ratio points
        drain(tmp_path)
        assert store.record(record.job_id).state == "done"
        summary = json.loads(
            (store.job_dir(record.job_id) / "summary.json").read_text())
        assert [p["ratio"] for p in summary["points"]] == [0.0, 1.0]
        for point in summary["points"]:
            assert point["geomean_speedup"] > 0

    def test_figure_size_does_not_leak_into_the_next_item(
            self, monkeypatch):
        # One worker process runs figure items back to back: a
        # default-size item after an accesses=300 one must not run at
        # 300 (and commit that under the default-size content key).
        import repro.cli
        from repro.harness.reporting import Table
        from repro.service.jobs import JOB_KINDS

        seen = []

        def fake_figure():
            seen.append(os.environ.get("REPRO_ACCESSES"))
            return Table("fake figure"), {}

        monkeypatch.setitem(repro.cli.EXPERIMENTS, "fake", fake_figure)
        monkeypatch.delenv("REPRO_ACCESSES", raising=False)
        for accesses in (300, 0):
            spec = JobSpec.make("figure", {"figure": "fake",
                                           "accesses": accesses})
            JOB_KINDS["figure"].execute(spec, 0)
        assert seen == ["300", None]
        assert "REPRO_ACCESSES" not in os.environ

    def test_sweep_items_share_the_interactive_cache_keys(self,
                                                          tmp_path):
        spec = JobSpec.make("sweep", {"apps": ["blackscholes"],
                                      "ratios": [0], "accesses": 300,
                                      "seed": 3})
        from repro.service.jobs import JOB_KINDS
        keys = JOB_KINDS["sweep"].item_keys(spec)
        # Keys are run_key() content hashes -- 64-hex, no prefix -- so
        # service runs dedupe against interactive run_many sessions.
        assert all(len(key) == 64 and not key.startswith("sweep")
                   for key in keys)


# ----------------------------------------------------------------------
# HTML reports
# ----------------------------------------------------------------------
def assert_self_contained(html: str) -> None:
    lowered = html.lower()
    assert "http://" not in lowered
    assert "https://" not in lowered
    assert "<script" not in lowered
    assert "<link" not in lowered
    assert "@import" not in lowered


class TestHtmlReports:
    def test_job_report_is_self_contained_and_complete(self, tmp_path):
        store = JobStore(tmp_path)
        record, _created = store.submit(JobSpec.make("fuzz", SMALL_FUZZ))
        drain(tmp_path)
        html = (store.job_dir(record.job_id) / "report.html").read_text()
        assert_self_contained(html)
        assert record.job_id in html
        assert "ZERO directory-eviction victims" in html
        assert "committed runs" in html           # health section
        assert html.count("<tr") >= record.items  # per-run outcome rows

    def test_failed_runs_surface_in_the_report(self, tmp_path):
        store = JobStore(tmp_path)
        record, _created = store.submit(JobSpec.make("fuzz", SMALL_FUZZ))
        queue = LeaseQueue(store.queue_dir)
        poisoned = queue.claim()
        queue.release(poisoned)
        queue.enqueue(QueueItem(poisoned.job, poisoned.index,
                                poisoned.key,
                                reclaims=MAX_RECLAIMS + 1))
        drain(tmp_path)
        html = (store.job_dir(record.job_id) / "report.html").read_text()
        assert_self_contained(html)
        assert "lost" in html and "poison" in html

    def test_trace_html_rendering(self, tmp_path):
        store = JobStore(tmp_path)
        record, _created = store.submit(JobSpec.make("fuzz", SMALL_FUZZ))
        drain(tmp_path)
        from repro.service.html_report import render_trace_html
        html = render_trace_html(
            store.job_dir(record.job_id) / "journal.jsonl")
        assert_self_contained(html)
        assert "campaign healthy" in html


# ----------------------------------------------------------------------
# CLI integration
# ----------------------------------------------------------------------
class TestServiceCli:
    def test_submit_work_status_report(self, tmp_path, capsys):
        from repro.cli import main
        root = str(tmp_path / "svc")
        assert main(["submit", "fuzz",
                     json.dumps(SMALL_FUZZ), "--root", root]) == 0
        job_id = capsys.readouterr().out.split()[1]
        assert main(["work", "--root", root, "--until-idle",
                     "--poll", "0.05"]) == 0
        capsys.readouterr()
        assert main(["status", job_id, "--root", root]) == 0
        out = capsys.readouterr().out
        assert "done" in out and "4/4" in out
        assert main(["jobs", "--root", root]) == 0
        capsys.readouterr()
        assert main(["report", "--html", job_id, "--root", root]) == 0

    def test_malformed_params_exit_cleanly(self, tmp_path, capsys):
        from repro.cli import main
        root = str(tmp_path / "svc")
        assert main(["submit", "fuzz", "{not json",
                     "--root", root]) == 2
        assert main(["submit", "fuzz", '{"budget": 0}',
                     "--root", root]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err
