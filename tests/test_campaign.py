"""Tests for the fault-tolerant campaign layer.

The load-bearing properties:

* **Crash isolation** -- a worker SIGKILLed mid-campaign (or a run that
  raises) costs exactly that run; every sibling result is retained and
  the loss is a typed :class:`RunFailure` (or a successful retry).
* **Timeouts** -- a wedged run becomes a ``timeout`` failure both in
  process and in a fork worker instead of hanging the batch.
* **Checkpoint/resume** -- re-running against the same journal executes
  nothing already committed and yields stats bit-identical to an
  uninterrupted serial run.

The self-killing / flaky workers coordinate through marker files
because a retry may run in a replacement worker.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

from repro.common.errors import ConfigError
from repro.harness import parallel
from repro.harness.campaign import (NO_RETRIES, CampaignError,
                                    CampaignJournal, CampaignPolicy,
                                    RunFailure, RunSuccess, campaign_map,
                                    fork_available, policy_from_env,
                                    values_of)
from repro.harness.parallel import (run_many, telemetry_since,
                                    telemetry_snapshot)
from repro.harness.result_cache import (ResultCache, reset_session_cache,
                                        run_key)
from repro.workloads import make_multithreaded
from repro.workloads.suites import find_profile

from tests.conftest import tiny_config, zerodev_config

needs_fork = pytest.mark.skipif(not fork_available(),
                                reason="fork start method unavailable")


@pytest.fixture(autouse=True)
def fresh_session_cache():
    reset_session_cache()
    yield
    reset_session_cache()


def small_workload(name="blackscholes", accesses=200, seed=3):
    return make_multithreaded(find_profile(name), tiny_config(),
                              accesses, seed=seed)


def small_specs():
    """Two configs x two workloads: enough for dedup/resume coverage."""
    workloads = [small_workload("blackscholes"),
                 small_workload("canneal")]
    return [(config, workload)
            for config in (tiny_config(), zerodev_config())
            for workload in workloads]


def stats_dicts(results):
    return [result.stats.as_dict() for result in results]


# ----------------------------------------------------------------------
# Item functions
# ----------------------------------------------------------------------
def _double(item):
    index, _marker_dir = item
    return index * 2


def _kill_self_once(item):
    """SIGKILL the worker on the first attempt of item 1, then succeed."""
    index, marker_dir = item
    if index == 1:
        marker = Path(marker_dir) / "killed.marker"
        if not marker.exists():
            marker.write_text("x")
            os.kill(os.getpid(), signal.SIGKILL)
    return index * 2

def _kill_self_always(item):
    index, _marker_dir = item
    if index == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    return index * 2


def _oserror_once(item):
    index, marker_dir = item
    marker = Path(marker_dir) / f"os{index}.marker"
    if not marker.exists():
        marker.write_text("x")
        raise OSError("transient hiccup")
    return index * 2


def _value_error(item):
    index, _marker_dir = item
    if index == 1:
        raise ValueError("deterministic bug")
    return index * 2


def _sleep_forever(item):
    index, _marker_dir = item
    if index == 1:
        time.sleep(60.0)
    return index * 2


def _sleep_catching_exceptions(item):
    """A run that records Exceptions as results, like the fuzz oracle."""
    index, _marker_dir = item
    try:
        if index == 1:
            time.sleep(60.0)
    except Exception as exc:               # noqa: BLE001 - on purpose
        return f"swallowed {type(exc).__name__}"
    return index * 2


def _identity(value):
    return value


# ----------------------------------------------------------------------
# campaign_map: crash isolation, retries, timeouts
# ----------------------------------------------------------------------
class TestCrashIsolation:
    @needs_fork
    def test_sigkilled_worker_is_retried(self, tmp_path):
        items = [(index, str(tmp_path)) for index in range(4)]
        outcomes = campaign_map(_kill_self_once, items, jobs=2,
                                policy=CampaignPolicy(retries=2,
                                                      backoff_base=0.01))
        assert all(isinstance(o, RunSuccess) for o in outcomes)
        assert [o.value for o in outcomes] == [0, 2, 4, 6]
        assert outcomes[1].attempts == 2       # died once, retried
        assert all(o.attempts == 1 for i, o in enumerate(outcomes)
                   if i != 1)

    @needs_fork
    def test_sigkilled_worker_without_retries_is_typed_failure(
            self, tmp_path):
        items = [(index, str(tmp_path)) for index in range(4)]
        outcomes = campaign_map(_kill_self_always, items, jobs=2,
                                policy=CampaignPolicy(retries=0))
        assert isinstance(outcomes[1], RunFailure)
        assert outcomes[1].kind == "worker-death"
        assert "exited" in outcomes[1].error
        # Every sibling's result was retained.
        assert [o.value for i, o in enumerate(outcomes) if i != 1] \
            == [0, 4, 6]

    def test_oserror_is_retried_serially(self, tmp_path):
        items = [(index, str(tmp_path)) for index in range(3)]
        outcomes = campaign_map(_oserror_once, items, jobs=1,
                                policy=CampaignPolicy(retries=1,
                                                      backoff_base=0.01))
        assert all(isinstance(o, RunSuccess) for o in outcomes)
        assert all(o.attempts == 2 for o in outcomes)

    def test_deterministic_exception_is_not_retried(self, tmp_path):
        items = [(index, str(tmp_path)) for index in range(3)]
        outcomes = campaign_map(_value_error, items, jobs=1,
                                policy=CampaignPolicy(retries=3))
        failure = outcomes[1]
        assert isinstance(failure, RunFailure)
        assert failure.kind == "exception"
        assert failure.error_type == "ValueError"
        assert failure.attempts == 1           # ValueError is permanent
        assert "deterministic bug" in failure.traceback
        assert [o.value for i, o in enumerate(outcomes) if i != 1] \
            == [0, 4]

    @pytest.mark.skipif(not hasattr(signal, "SIGALRM"),
                        reason="needs SIGALRM")
    def test_serial_timeout_becomes_typed_failure(self, tmp_path):
        items = [(index, str(tmp_path)) for index in range(2)]
        started = time.monotonic()
        outcomes = campaign_map(
            _sleep_forever, items, jobs=1,
            policy=CampaignPolicy(retries=2, run_timeout=0.2))
        assert time.monotonic() - started < 30.0
        failure = outcomes[1]
        assert isinstance(failure, RunFailure)
        assert failure.kind == "timeout"
        assert failure.attempts == 1           # timeouts not retried
        assert outcomes[0].value == 0

    @needs_fork
    def test_pooled_timeout_becomes_typed_failure(self, tmp_path):
        items = [(index, str(tmp_path)) for index in range(3)]
        started = time.monotonic()
        outcomes = campaign_map(
            _sleep_forever, items, jobs=2,
            policy=CampaignPolicy(retries=0, run_timeout=0.2))
        assert time.monotonic() - started < 30.0
        failure = outcomes[1]
        assert isinstance(failure, RunFailure)
        assert failure.kind == "timeout"
        assert [o.value for i, o in enumerate(outcomes) if i != 1] \
            == [0, 4]

    @pytest.mark.skipif(not hasattr(signal, "SIGALRM"),
                        reason="needs SIGALRM")
    def test_timeout_pierces_broad_exception_handlers(self, tmp_path):
        # The fuzz oracle catches Exception per step and records it as
        # an outcome; a timeout must never be swallowed into a "result"
        # that way (it would be committed to the journal as a success).
        items = [(index, str(tmp_path)) for index in range(2)]
        outcomes = campaign_map(
            _sleep_catching_exceptions, items, jobs=1,
            policy=CampaignPolicy(retries=0, run_timeout=0.2))
        assert isinstance(outcomes[1], RunFailure)
        assert outcomes[1].kind == "timeout"
        assert outcomes[0].value == 0

    def test_key_count_mismatch_raises(self):
        with pytest.raises(ConfigError, match="keys"):
            campaign_map(_identity, [1, 2, 3], keys=["only-one"])


# ----------------------------------------------------------------------
# Journal mechanics
# ----------------------------------------------------------------------
class TestJournal:
    def test_commit_and_resume_skip(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with CampaignJournal(path) as journal:
            outcomes = campaign_map(_identity, [10, 20, 30],
                                    keys=["a", "b", "c"],
                                    journal=journal)
        assert [o.value for o in outcomes] == [10, 20, 30]
        assert path.exists()
        with CampaignJournal(path) as journal:
            assert len(journal) == 3
            again = campaign_map(_identity, [10, 20, 30],
                                 keys=["a", "b", "c"], journal=journal)
        assert all(o.resumed for o in again)
        assert all(o.attempts == 0 for o in again)
        assert [o.value for o in again] == [10, 20, 30]

    def test_partial_journal_resumes_only_missing(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with CampaignJournal(path) as journal:
            campaign_map(_identity, [10, 20], keys=["a", "b"],
                         journal=journal)
        with CampaignJournal(path) as journal:
            outcomes = campaign_map(_identity, [10, 20, 30],
                                    keys=["a", "b", "c"],
                                    journal=journal)
        assert [o.resumed for o in outcomes] == [True, True, False]
        # A damaged line between committed records -- a JSON array, a
        # line that is no JSON, a run_ok record whose payload does not
        # decode -- is skipped and counted; every record after it still
        # loads, and the damaged run_ok simply re-runs.
        lines = path.read_text(encoding="utf-8").splitlines(True)
        bad_ok = '{"kind": "run_ok", "key": "d", "payload": "%%"}\n'
        path.write_text("".join(lines[:1] + ["[1, 2]\n", "{not json\n"]
                                + lines[1:2] + [bad_ok] + lines[2:]),
                        encoding="utf-8")
        with CampaignJournal(path) as journal:
            assert journal.damaged == 2
            assert [key in journal for key in "abcd"] == [True] * 3 + [
                False]
            outcomes = campaign_map(_identity, [10, 20, 30, 40],
                                    keys=["a", "b", "c", "d"],
                                    journal=journal)
        assert [o.resumed for o in outcomes] == [True, True, True, False]
        assert [o.value for o in outcomes] == [10, 20, 30, 40]

    def test_torn_tail_is_tolerated(self, tmp_path):
        from repro.obs.report import summarize

        path = tmp_path / "j.jsonl"
        with CampaignJournal(path) as journal:
            campaign_map(_identity, [10, 20], keys=["a", "b"],
                         journal=journal)
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"kind": "run_ok", "key": "c", "pay')  # torn
        with CampaignJournal(path) as journal:
            assert "a" in journal and "b" in journal
            assert "c" not in journal       # torn record = uncommitted
            outcomes = campaign_map(_identity, [10, 20, 30, 40, 50],
                                    keys=["a", "b", "c", "d", "e"],
                                    journal=journal)
        assert [o.resumed for o in outcomes] == [True, True, False,
                                                 False, False]
        # What the resumed session committed after the torn line is
        # there on the next resume: its first record did not land on
        # the torn line, which is gone.
        with CampaignJournal(path) as journal:
            assert len(journal) == 5 and journal.damaged == 0
            again = campaign_map(_identity, [10, 20, 30, 40, 50],
                                 keys=["a", "b", "c", "d", "e"],
                                 journal=journal)
        assert all(o.resumed for o in again)
        assert [o.value for o in again] == [10, 20, 30, 40, 50]
        assert summarize(path)["campaign"]["run_ok"] == 5

    def test_ensure_meta_rejects_foreign_campaign(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with CampaignJournal(path) as journal:
            journal.ensure_meta(campaign="fuzz", seed=7)
        with CampaignJournal(path) as journal:
            journal.ensure_meta(campaign="fuzz", seed=7)  # same: fine
            journal.ensure_meta(budget=50)                # new key: fine
            with pytest.raises(ConfigError, match="different campaign"):
                journal.ensure_meta(seed=8)

    def test_commit_counts_survive_reopen(self, tmp_path):
        from repro.obs.report import summarize

        path = tmp_path / "j.jsonl"
        with CampaignJournal(path) as journal:
            campaign_map(_identity, [1, 2, 3], keys=["a", "b", "c"],
                         journal=journal)
            assert journal.counts["run_ok"] == len(journal) == 3
        with CampaignJournal(path) as journal:
            assert journal.counts["run_ok"] == len(journal) == 3
        # The journal is the whole record: ``repro report`` reads the
        # same count from it, and nothing else is written beside it.
        assert summarize(path)["campaign"]["run_ok"] == 3
        assert list(tmp_path.iterdir()) == [path]

    def test_journal_renders_as_campaign_report(self, tmp_path):
        from repro.obs.report import render_report

        path = tmp_path / "j.jsonl"
        with CampaignJournal(path) as journal:
            journal.ensure_meta(campaign="test")
            campaign_map(_value_error,
                         [(index, str(tmp_path)) for index in range(3)],
                         journal=journal)
        text = render_report(path)
        assert "campaign health" in text
        assert "1 unresolved run failure(s)" in text
        with CampaignJournal(tmp_path / "ok.jsonl") as journal:
            campaign_map(_identity, [1, 2], keys=["a", "b"],
                         journal=journal)
        assert "campaign healthy" in render_report(tmp_path / "ok.jsonl")


# ----------------------------------------------------------------------
# run_many under a policy and a journal
# ----------------------------------------------------------------------
def _sigkill_batch(cache_dir: str) -> None:
    """Run ``small_specs()`` at ``jobs=2``; the canneal run under the
    first config SIGKILLs its worker.  Prints the error as JSON."""
    real = parallel.run_workload
    victim = small_specs()[1]

    def deadly(system, workload):
        if system.config == victim[0] and workload.name == "canneal":
            os.kill(os.getpid(), signal.SIGKILL)
        return real(system, workload)

    parallel.run_workload = deadly
    try:
        run_many(small_specs(), jobs=2, cache=ResultCache(cache_dir))
    except CampaignError as exc:
        print(json.dumps({"error": str(exc),
                          "failed": [f.index for f in exc.failures]}))


class TestRunManyCampaign:
    def test_policy_keeps_results_and_memoizes(self):
        specs = small_specs()
        reference = run_many(specs, jobs=1, cache=None)
        reset_session_cache()
        policy = CampaignPolicy(retries=1, run_timeout=60.0)
        before = telemetry_snapshot()
        results = run_many(specs, jobs=1, policy=policy)
        assert stats_dicts(results) == stats_dicts(reference)
        assert telemetry_since(before)["runs"] == len(specs)
        # Second invocation is served entirely by the session cache.
        before = telemetry_snapshot()
        again = run_many(specs, jobs=1, policy=policy)
        delta = telemetry_since(before)
        assert delta["runs"] == 0
        assert delta["cache_hits"] == len(specs)
        assert stats_dicts(again) == stats_dicts(reference)

    def test_uncached_serial_batch_hashes_pickles_and_opens_nothing(
            self, monkeypatch):
        # perfbench times exactly this call; keep it free of overhead.
        import builtins
        import pickle

        def forbidden(*_args, **_kwargs):
            raise AssertionError("hashed a trace, pickled or opened a file")

        specs = small_specs()
        monkeypatch.setattr(parallel, "run_key", forbidden)
        monkeypatch.setattr(pickle, "dumps", forbidden)
        monkeypatch.setattr(builtins, "open", forbidden)
        assert len(run_many(specs, jobs=1, cache=None)) == len(specs)

    def test_resume_is_bit_identical(self, tmp_path):
        specs = small_specs()
        reference = run_many(specs, jobs=1, cache=None)
        path = tmp_path / "sweep.jsonl"

        # "Interrupted" campaign: only half the specs committed.
        reset_session_cache()
        with CampaignJournal(path) as journal:
            run_many(specs[:2], jobs=1, journal=journal)

        reset_session_cache()
        before = telemetry_snapshot()
        with CampaignJournal(path) as journal:
            resumed = run_many(specs, jobs=1, journal=journal)
        delta = telemetry_since(before)
        assert delta["runs"] == len(specs) - 2
        assert delta["resume_skips"] == 2
        assert stats_dicts(resumed) == stats_dicts(reference)

        # A third run re-executes nothing at all.
        reset_session_cache()
        before = telemetry_snapshot()
        with CampaignJournal(path) as journal:
            replayed = run_many(specs, jobs=1, journal=journal)
        delta = telemetry_since(before)
        assert delta["runs"] == 0
        assert delta["resume_skips"] == len(specs)
        assert stats_dicts(replayed) == stats_dicts(reference)

    def test_failures_name_run_and_survivors_are_cached(self,
                                                        monkeypatch):
        specs = small_specs()
        real = parallel.run_workload

        def flaky(system, workload):
            if workload.name == "canneal":
                raise ValueError("sim bug")
            return real(system, workload)

        monkeypatch.setattr(parallel, "run_workload", flaky)
        before = telemetry_snapshot()
        with pytest.raises(CampaignError) as err:
            run_many(specs, jobs=1)
        assert "run 1 (canneal)" in str(err.value)
        assert "ValueError: sim bug" in str(err.value)
        # canneal under each config, each tried once (no retries).
        assert [f.index for f in err.value.failures] == [1, 3]
        assert all(f.attempts == 1 for f in err.value.failures)

        # The completed runs were published: a retry after the fix only
        # re-executes the runs that failed.
        monkeypatch.setattr(parallel, "run_workload", real)
        results = run_many(specs, jobs=1)
        assert all(result is not None for result in results)
        delta = telemetry_since(before)
        assert delta["runs"] == len(specs)     # 2 + the 2 retried
        assert delta["cache_hits"] == 2

    @needs_fork
    def test_sigkilled_worker_fails_its_run_not_the_batch(self,
                                                          tmp_path):
        # In a child process under a deadline: an engine that hangs on
        # a dead worker fails this test instead of wedging the suite.
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src"), str(root), env.get("PYTHONPATH", "")])
        cache_dir = tmp_path / "cache"
        child = subprocess.run(
            [sys.executable, "-c",
             "import sys; from tests.test_campaign import _sigkill_batch;"
             " _sigkill_batch(sys.argv[1])", str(cache_dir)],
            env=env, cwd=root, capture_output=True, text=True,
            timeout=30)
        assert child.returncode == 0, child.stderr
        report = json.loads(child.stdout.strip().splitlines()[-1])
        assert report["failed"] == [1]
        assert "worker-death" in report["error"]
        assert "run 1 (canneal)" in report["error"]
        cache = ResultCache(cache_dir)
        for index, spec in enumerate(small_specs()):
            assert (cache.get(run_key(*spec)) is None) == (index == 1)

    def test_sweep_resume_round_trip(self, tmp_path):
        from repro.harness.experiments import compare

        work = [("PARSEC", "blackscholes", small_workload("blackscholes"))]
        configs = {"zerodev": zerodev_config()}
        reference = compare(tiny_config(), configs, work)["zerodev"]

        reset_session_cache()
        path = tmp_path / "sweep.jsonl"
        first = compare(tiny_config(), configs, work,
                        resume=path)["zerodev"]
        reset_session_cache()
        before = telemetry_snapshot()
        resumed = compare(tiny_config(), configs, work,
                          resume=path)["zerodev"]
        delta = telemetry_since(before)
        # The base run and the design run both replay from the journal.
        assert delta["runs"] == 0 and delta["resume_skips"] == 2
        for pairs in (first, resumed):
            assert [stats_dicts(pair) for pair in pairs] \
                == [stats_dicts(pair) for pair in reference]

    def test_values_of_names_the_failure(self, tmp_path):
        items = [(index, str(tmp_path)) for index in range(3)]
        outcomes = campaign_map(_value_error, items, jobs=1,
                                policy=NO_RETRIES)
        assert [o.value for o in outcomes if o.ok] == [0, 4]
        with pytest.raises(CampaignError, match="ValueError") as err:
            values_of(outcomes)
        assert [f.index for f in err.value.failures] == [1]
        assert values_of(outcomes[:1]) == [0]


class TestTracePlanLaziness:
    def test_fully_cached_batch_creates_no_trace_dir(self, tmp_path):
        specs = small_specs()[:2]
        run_many(specs, jobs=1)                # fills the session cache
        trace_dir = tmp_path / "traces"
        results = run_many(specs, jobs=1, trace_dir=trace_dir)
        assert all(result.cached for result in results)
        assert not trace_dir.exists()

    def test_executed_runs_still_write_traces(self, tmp_path):
        specs = small_specs()[:2]
        trace_dir = tmp_path / "traces"
        results = run_many(specs, jobs=1, trace_dir=trace_dir)
        assert trace_dir.is_dir()
        for result in results:
            assert result.trace_path is not None
            assert Path(result.trace_path).is_file()


class TestCacheDroppedPuts:
    # An unwritable cache "directory": a regular file occupies the path,
    # so ``mkdir(exist_ok=True)`` raises FileExistsError (an OSError) --
    # unlike chmod tricks, this fails even when the suite runs as root.
    def test_oserror_is_counted_and_warned_once(self, tmp_path):
        blocked = tmp_path / "cache"
        blocked.write_text("not a directory")
        cache = ResultCache(blocked)
        result = run_many(small_specs()[:1], jobs=1, cache=None)[0]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cache.put("k1", result)
            cache.put("k2", result)
        assert cache.dropped_puts == 2
        dropped = [w for w in caught
                   if issubclass(w.category, RuntimeWarning)]
        assert len(dropped) == 1               # warn once, count all
        # The in-memory tier still serves both entries.
        assert cache.get("k1") is not None

    def test_dropped_puts_reach_telemetry(self, tmp_path, monkeypatch):
        blocked = tmp_path / "cache"
        blocked.write_text("not a directory")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(blocked))
        reset_session_cache()
        try:
            before = telemetry_snapshot()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                run_many(small_specs()[:2], jobs=1)
            assert telemetry_since(before)["cache_dropped_puts"] == 2
        finally:
            reset_session_cache()


class TestOversubscription:
    def test_explicit_jobs_above_cpu_count_is_honored(self):
        want = (os.cpu_count() or 1) + 2
        outcomes = campaign_map(_identity, list(range(want)), jobs=want)
        assert [o.value for o in outcomes] == list(range(want))
        assert parallel.telemetry_snapshot()["effective_jobs"] == want

    def test_jobs_clamped_to_items_not_cpus(self):
        campaign_map(_identity, [1, 2], jobs=64)
        assert parallel.telemetry_snapshot()["effective_jobs"] == 2

    @needs_fork
    def test_closures_need_not_pickle(self):
        offset = 10
        outcomes = campaign_map(lambda item: item + offset, [1, 2, 3],
                                jobs=2)
        assert [o.value for o in outcomes] == [11, 12, 13]


# ----------------------------------------------------------------------
# run_many matrix: duplicates x cache x trace_dir
# ----------------------------------------------------------------------
class TestRunManyMatrix:
    @pytest.mark.parametrize("with_cache", [True, False],
                             ids=["cache", "no-cache"])
    @pytest.mark.parametrize("with_traces", [True, False],
                             ids=["traces", "no-traces"])
    def test_duplicates_resolve_identically(self, tmp_path, with_cache,
                                            with_traces):
        base = small_specs()[:2]
        specs = base + [base[0]]               # duplicate of the first
        reference = run_many(base, jobs=1, cache=None)
        reset_session_cache()
        results = run_many(
            specs, jobs=1,
            cache=parallel.USE_SESSION_CACHE if with_cache else None,
            trace_dir=(tmp_path / "traces") if with_traces else None)
        assert stats_dicts(results[:2]) == stats_dicts(reference)
        assert stats_dicts([results[2]]) == stats_dicts([reference[0]])
        if with_cache:
            assert results[2].cached           # collapsed duplicate
        if with_traces:
            assert any(result.trace_path for result in results)


# ----------------------------------------------------------------------
# Policy plumbing
# ----------------------------------------------------------------------
class TestPolicyFromEnv:
    def test_unset_variables_keep_the_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_RUN_TIMEOUT", raising=False)
        monkeypatch.delenv("REPRO_RETRIES", raising=False)
        assert policy_from_env() == NO_RETRIES
        # Each variable sets one value; the other keeps the default's.
        monkeypatch.setenv("REPRO_RETRIES", "3")
        policy = policy_from_env()
        assert policy.retries == 3
        assert policy.run_timeout is None

    def test_values_parse(self, monkeypatch):
        monkeypatch.setenv("REPRO_RUN_TIMEOUT", "12.5")
        monkeypatch.setenv("REPRO_RETRIES", "3")
        policy = policy_from_env()
        assert policy.run_timeout == 12.5
        assert policy.retries == 3

    @pytest.mark.parametrize("variable,value", [
        ("REPRO_RUN_TIMEOUT", "soon"),
        ("REPRO_RUN_TIMEOUT", "-1"),
        # float() happily parses these; a non-finite deadline would
        # silently disarm the parent's SIGKILL backstop.
        ("REPRO_RUN_TIMEOUT", "inf"),
        ("REPRO_RUN_TIMEOUT", "nan"),
        ("REPRO_RUN_TIMEOUT", "0"),
        ("REPRO_RETRIES", "two"),
        ("REPRO_RETRIES", "-2"),
        ("REPRO_RETRIES", "1.5"),
    ])
    def test_malformed_values_raise(self, monkeypatch, variable, value):
        monkeypatch.delenv("REPRO_RUN_TIMEOUT", raising=False)
        monkeypatch.delenv("REPRO_RETRIES", raising=False)
        monkeypatch.setenv(variable, value)
        with pytest.raises(ConfigError, match=variable):
            policy_from_env()

    def test_backoff_is_capped_exponential(self):
        policy = CampaignPolicy(backoff_base=0.5, backoff_cap=2.0)
        assert policy.backoff(1) == 0.5
        assert policy.backoff(2) == 1.0
        assert policy.backoff(3) == 2.0
        assert policy.backoff(10) == 2.0
