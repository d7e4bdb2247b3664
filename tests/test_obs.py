"""Tests for ``repro.obs``: event tracing, sinks, sessions, reports.

The acceptance property mirrors the paper's headline claim: a traced
ZeroDEV run must contain *zero* ``priv_inv`` events with ``cause="dev"``,
while a 1/32x sparse-directory baseline over the same workload produces
them in volume.  Alongside that: the disabled path must not perturb
results, traced runs must match untraced runs stat-for-stat, and the
sinks/report pipeline must round-trip through JSONL.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro.common.addressing import BLOCK_SHIFT
from repro.common.config import DirectoryConfig
from repro.common.errors import ConfigError
from repro.common.ioutil import atomic_write_text
from repro.harness.parallel import (default_jobs, execute_run,
                                    parse_number, run_many,
                                    telemetry_since, telemetry_snapshot)
from repro.harness.runner import run_workload
from repro.harness.system_builder import build_system
from repro.obs import (Event, EventBus, EventKind, InvCause, JsonlSink,
                       PhaseProfiler, RingBufferSink, TimeSeriesAggregator,
                       TraceSession, attach, detach, load_trace,
                       render_report, summarize, timeseries_path_for)
from repro.obs.report import render_trace_html
from repro.workloads import make_multithreaded
from repro.workloads.suites import find_profile

from tests.conftest import (OPS, assert_self_contained, tiny_config,
                            zerodev_config)


def small_workload(name="canneal", accesses=400, seed=11):
    return make_multithreaded(find_profile(name), tiny_config(),
                              accesses, seed=seed)


def sparse_baseline_config():
    """1/32x sparse directory: forces DEVs within a few hundred accesses."""
    return tiny_config(directory=DirectoryConfig(ratio=1 / 32))


# ---------------------------------------------------------------------------
# Event primitives
# ---------------------------------------------------------------------------
class TestEvents:
    def test_record_omits_unset_coordinates(self):
        event = Event(5, EventKind.DENF_NACK, -1, -1, "")
        assert event.to_record() == {"step": 5, "kind": "denf_nack"}

    def test_record_carries_coordinates(self):
        event = Event(7, EventKind.PRIV_INV, 3, 1, InvCause.DEV)
        assert event.to_record() == {"step": 7, "kind": "priv_inv",
                                     "block": 3, "core": 1, "cause": "dev"}

    def test_key_folds_cause(self):
        assert Event(0, EventKind.PRIV_INV, -1, -1,
                     InvCause.GETX).key() == "priv_inv:getx"
        assert Event(0, EventKind.DIR_INSERT, -1, -1, "").key() \
            == "dir_insert"


class TestEventBus:
    def test_fan_out_and_unsubscribe(self):
        bus = EventBus()
        first, second = RingBufferSink(8), RingBufferSink(8)
        bus.subscribe(first)
        bus.subscribe(second)
        bus.emit(EventKind.MSG, cause="GETS")
        bus.unsubscribe(second)
        bus.emit(EventKind.MSG, cause="DATA")
        assert first.total_seen == 2 and second.total_seen == 1

    def test_subscribe_is_idempotent(self):
        bus = EventBus()
        sink = RingBufferSink(8)
        bus.subscribe(sink)
        bus.subscribe(sink)
        bus.emit(EventKind.MSG)
        assert sink.total_seen == 1


class TestSinks:
    def test_ring_buffer_is_bounded(self):
        sink = RingBufferSink(4)
        for step in range(10):
            sink.handle(Event(step, EventKind.MSG, -1, -1, ""))
        assert len(sink) == 4 and sink.total_seen == 10
        assert [e.step for e in sink.events] == [6, 7, 8, 9]

    def test_ring_buffer_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            RingBufferSink(0)

    def test_aggregator_folds_by_epoch(self):
        agg = TimeSeriesAggregator(epoch=10)
        for step in (0, 9, 10, 25):
            agg.handle(Event(step, EventKind.PRIV_INV, -1, -1,
                             InvCause.DEV))
        series = agg.series_of("priv_inv:dev")
        assert series == [2, 1, 1]
        assert agg.totals()["priv_inv:dev"] == 4

    def test_aggregator_rejects_bad_epoch(self):
        with pytest.raises(ValueError):
            TimeSeriesAggregator(epoch=0)

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = JsonlSink(path)
        sink.write_meta(workload="x", n_cores=4)
        sink.handle(Event(1, EventKind.DIR_EVICT, 42, -1, InvCause.DEV))
        sink.close()
        meta, events = load_trace(path)
        assert meta["workload"] == "x" and meta["n_cores"] == 4
        assert events == [{"step": 1, "kind": "dir_evict", "block": 42,
                           "cause": "dev"}]


class TestProfiler:
    def test_phases_accumulate(self):
        profiler = PhaseProfiler()
        with profiler.phase("a"):
            pass
        with profiler.phase("a"):
            pass
        with profiler.phase("b"):
            pass
        assert profiler.calls == {"a": 2, "b": 1}
        assert set(profiler.to_dict()) == {"a", "b"}
        assert "a" in profiler.render()


# ---------------------------------------------------------------------------
# Attach / detach and non-perturbation
# ---------------------------------------------------------------------------
class TestAttachDetach:
    def test_attach_reaches_every_layer(self):
        system = build_system(sparse_baseline_config())
        bus = EventBus()
        attach(system, bus)
        assert system.obs is bus and system.mesh.obs is bus
        assert system.directory.obs is bus
        assert all(bank.obs is bus for bank in system.banks)
        assert all(core.obs is bus for core in system.cores)
        detach(system)
        assert system.obs is None and system.mesh.obs is None
        assert system.directory.obs is None
        assert all(bank.obs is None for bank in system.banks)
        assert all(core.obs is None for core in system.cores)

    def test_disabled_by_default(self):
        system = build_system(zerodev_config())
        assert system.obs is None and system.mesh.obs is None

    @pytest.mark.parametrize("config_fn", [
        zerodev_config, sparse_baseline_config])
    def test_tracing_does_not_perturb_stats(self, config_fn, tmp_path):
        workload = small_workload()
        plain = run_workload(build_system(config_fn()), workload)
        for kernel in ("scalar", "batched"):
            config = config_fn().with_(kernel=kernel)
            with TraceSession(build_system(config),
                              jsonl=tmp_path / f"{kernel}.jsonl") as session:
                traced = session.run(workload)
            assert traced.stats.as_dict() == plain.stats.as_dict()


# ---------------------------------------------------------------------------
# The bounded protocol trace: attach + a ring, one step per access
# ---------------------------------------------------------------------------
def ring_trace(config, script):
    """Drive (core, op-letter, block) steps on an attached system,
    advancing the bus step before each access as the runner does; the
    ring's events other than messages, as (step, kind, block, core,
    cause) tuples."""
    system = build_system(config)
    bus, ring = EventBus(), RingBufferSink(256)
    bus.subscribe(ring)
    attach(system, bus)
    for step, (core, op, block) in enumerate(script, 1):
        bus.step = step
        system.access(core, OPS[op], block << BLOCK_SHIFT)
    system.check_invariants()
    return [(e.step, e.kind.value, e.block, e.core, e.cause)
            for e in ring.events if e.kind is not EventKind.MSG]


class TestProtocolTrace:
    def test_entry_allocation(self):
        # One entry for the first reader; a second sharer joins it.
        assert ring_trace(tiny_config(), [(0, "R", 5), (1, "R", 5)]) \
            == [(1, "dir_insert", 5, -1, "")]

    def test_eviction_notice_frees_the_entry(self):
        # Five reads fill one 4-way L2 set: the fifth evicts block 0,
        # whose notice (state E) frees its entry in the same step.
        events = ring_trace(tiny_config(),
                            [(0, "R", 8 * k) for k in range(5)])
        assert events == [(k + 1, "dir_insert", 8 * k, -1, "")
                          for k in range(5)] + [
            (5, "l2_evict", 0, 0, "E"), (5, "dir_remove", 0, -1, "")]

    def test_llc_victim(self):
        # Five writes to one 4-way LLC set: each fill past the fourth
        # evicts that set's LRU data frame.
        events = ring_trace(tiny_config(),
                            [(0, "W", 32 * k) for k in range(5)])
        assert [event for event in events if event[1] == "llc_evict"] \
            == [(5, "llc_evict", 0, -1, "data"),
                (5, "llc_evict", 32, -1, "data")]

    def test_dev(self):
        # Two 8-way directory sets: the ninth even block evicts the
        # first from the even set, and its sharer is invalidated as a
        # DEV in the same step.
        events = ring_trace(tiny_config(
            directory=DirectoryConfig(ratio=0.125)),
            [(0, "R", 2 * k) for k in range(9)])
        assert events[-4:] == [
            (9, "dir_remove", 0, -1, ""),
            (9, "dir_evict", 0, -1, InvCause.DEV),
            (9, "priv_inv", 0, 0, InvCause.DEV),
            (9, "dir_insert", 16, -1, "")]

    def test_zerodev_entry_lifecycle_without_a_dev(self):
        # No sparse directory: the entry fuses with its block, spills
        # when the block turns shared, and fuses again on the write.
        assert ring_trace(zerodev_config(),
                          [(0, "R", 5), (1, "R", 5), (1, "W", 5)]) == [
            (1, "entry_fuse", 5, -1, ""), (2, "entry_unfuse", 5, -1, ""),
            (2, "entry_spill", 5, -1, ""),
            (3, "priv_inv", 5, 0, InvCause.GETX),
            (3, "entry_fuse", 5, -1, "")]


# ---------------------------------------------------------------------------
# The acceptance property (paper headline)
# ---------------------------------------------------------------------------
class TestZeroDevProperty:
    WORKLOAD = dict(name="canneal", accesses=600, seed=2)

    def _traced_summary(self, config, tmp_path, label):
        workload = small_workload(**self.WORKLOAD)
        path = tmp_path / f"{label}.jsonl"
        with TraceSession(build_system(config), jsonl=path) as session:
            session.run(workload)
        return summarize(path)

    def test_zerodev_trace_has_zero_dev_invalidations(self, tmp_path):
        summary = self._traced_summary(zerodev_config(), tmp_path, "zdev")
        assert summary["dev_invalidations"] == 0
        assert summary["kinds"].get("dir_evict", 0) == 0
        assert summary["total_events"] > 0       # tracing did fire

    def test_sparse_baseline_trace_has_dev_invalidations(self, tmp_path):
        summary = self._traced_summary(sparse_baseline_config(),
                                       tmp_path, "base")
        assert summary["dev_invalidations"] > 0
        assert summary["kinds"].get("dir_evict", 0) > 0


# ---------------------------------------------------------------------------
# Trace sessions, archives, reports
# ---------------------------------------------------------------------------
class TestTraceSession:
    def test_writes_jsonl_and_timeseries(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with TraceSession(build_system(zerodev_config()), jsonl=path,
                          epoch=100) as session:
            result = session.run(small_workload())
        assert result.trace_path == str(path)
        assert path.is_file()
        series_path = timeseries_path_for(path)
        assert series_path.is_file()
        series = json.loads(series_path.read_text())
        assert series["epoch_accesses"] == 100
        assert series["gauges"], "epoch sampling produced no gauges"
        for gauge in ("spilled_entries", "fused_entries",
                      "corrupted_blocks", "mpki"):
            assert gauge in series["gauges"][0]
        assert "drive" in series["runner_phases"]

    def test_events_carry_monotonic_steps(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with TraceSession(build_system(zerodev_config()),
                          jsonl=path) as session:
            session.run(small_workload(accesses=200))
        _meta, events = load_trace(path)
        steps = [event["step"] for event in events]
        assert steps == sorted(steps)
        assert steps[0] >= 1 and steps[-1] <= 200 * 4

    def test_close_is_idempotent_and_detaches(self, tmp_path):
        system = build_system(zerodev_config())
        session = TraceSession(system, jsonl=tmp_path / "t.jsonl")
        session.run(small_workload(accesses=200))
        session.close()
        session.close()
        assert system.obs is None

    def test_ring_only_session_needs_no_files(self):
        system = build_system(zerodev_config())
        ring = RingBufferSink(256)
        with TraceSession(system) as session:
            session.bus.subscribe(ring)
            session.run(small_workload(accesses=200))
            assert ring.total_seen > 0
        assert session.timeseries_path is None


class TestReport:
    def test_render_report_verdicts(self, tmp_path):
        workload = small_workload(accesses=500)
        zpath, bpath = tmp_path / "z.jsonl", tmp_path / "b.jsonl"
        with TraceSession(build_system(zerodev_config()),
                          jsonl=zpath) as session:
            session.run(workload)
        with TraceSession(build_system(sparse_baseline_config()),
                          jsonl=bpath) as session:
            session.run(workload)
        zero = render_report(zpath)
        assert "ZERO directory-eviction victims" in zero
        assert "message mix" in zero and "time series" in zero
        nonzero = render_report(bpath)
        assert "DEV-caused private-cache invalidations" in nonzero

    def test_load_trace_tolerates_truncated_tail(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"kind": "meta", "workload": "w"}\n'
                        '{"step": 1, "kind": "msg", "cause": "GETS"}\n'
                        '{"step": 2, "kind": "ms')   # torn mid-record
        meta, events = load_trace(path)
        assert meta["workload"] == "w"
        assert len(events) == 1


def write_jsonl(path, records, tail=""):
    """A trace or journal made of ``records``, plus raw ``tail`` text."""
    path.write_text("".join(json.dumps(record) + "\n"
                            for record in records) + tail,
                    encoding="utf-8")
    return path


#: A journal's records: 3 commits, 1 failure, 2 retries, 4 resume skips.
FAILED_JOURNAL = ([{"kind": "meta", "campaign": "fuzz"}]
                  + [{"kind": "run_ok", "key": key} for key in "abc"]
                  + [{"kind": "run_failure", "step": 3, "cause": "error"}]
                  + [{"kind": "run_retry", "step": 1}] * 2
                  + [{"kind": "resume_skip", "step": 0}] * 4)


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    """A ZeroDEV trace with a time series and a DEV-heavy baseline one."""
    root = tmp_path_factory.mktemp("traced")
    workload = small_workload(accesses=500)
    zpath, bpath = root / "z.jsonl", root / "b.jsonl"
    with TraceSession(build_system(zerodev_config()), jsonl=zpath,
                      epoch=100) as session:
        session.run(workload)
    with TraceSession(build_system(sparse_baseline_config()),
                      jsonl=bpath) as session:
        session.run(workload)
    return zpath, bpath


class TestHtmlReport:
    def test_zerodev_page_is_self_contained_and_ok(self, traced_runs):
        zpath, _bpath = traced_runs
        html = render_trace_html(zpath)
        assert html.startswith("<!doctype html>")
        assert_self_contained(html)
        assert "<span class=\"badge ok\">ok</span> " \
            "ZERO directory-eviction victims" in html
        assert "<title>repro trace z.jsonl</title>" in html

    def test_baseline_page_counts_devs_as_failed(self, traced_runs):
        _zpath, bpath = traced_runs
        devs = summarize(bpath)["dev_invalidations"]
        assert devs > 0
        html = render_trace_html(bpath)
        assert_self_contained(html)
        assert (f"<span class=\"badge failed\">failed</span> "
                f"{devs:,} DEV-caused invalidations") in html

    def test_event_totals_match_summary_in_count_order(self, traced_runs):
        for path in traced_runs:
            rows = re.findall(r"<tr><td><code>([^<]*)</code></td>"
                              r"<td>([\d,]+)</td></tr>",
                              render_trace_html(path))
            counts = [int(count.replace(",", "")) for _kind, count in rows]
            assert dict(zip((kind for kind, _ in rows), counts)) == \
                summarize(path)["kinds"]
            assert counts == sorted(counts, reverse=True)

    def test_meta_table_follows_the_meta_keys(self, traced_runs):
        zpath, _bpath = traced_runs
        html = render_trace_html(zpath)
        meta_table = html.split("<table>", 2)[1]
        assert re.findall(r"<td class=\"kv\">(\w+)</td>", meta_table) == \
            ["workload", "protocol", "n_cores", "epoch_accesses"]
        assert "kernel" not in meta_table    # in the meta, not shown

    def test_markup_in_trace_values_is_escaped(self, tmp_path):
        path = write_jsonl(tmp_path / "a&b.jsonl", [
            {"kind": "meta", "workload": "<script>alert(1)</script>"},
            {"kind": "<b>odd</b>", "step": 1}])
        html = render_trace_html(path)
        assert_self_contained(html)
        assert "&lt;script&gt;alert(1)&lt;/script&gt;" in html
        assert "<code>&lt;b&gt;odd&lt;/b&gt;</code>" in html
        assert "<h1>a&amp;b.jsonl</h1>" in html

    def test_time_series_charts_nonzero_gauges_only(self, tmp_path):
        path = write_jsonl(tmp_path / "t.jsonl",
                           [{"kind": "msg", "step": 1, "cause": "GETS"}])
        gauges = [{"mpki": 1.0, "fused_entries": 0, "dir_occupancy": 0},
                  {"mpki": 3.0, "fused_entries": 5, "dir_occupancy": 0},
                  {"mpki": 2.0, "fused_entries": 0, "dir_occupancy": 0}]
        timeseries_path_for(path).write_text(
            json.dumps({"epoch_accesses": 10, "gauges": gauges}))
        html = render_trace_html(path)
        assert "<h2>Time series</h2>" in html
        assert html.count("<svg") == 2
        assert ">fused_entries</td><td>peak 5.0</td>" in html
        assert ">mpki</td><td>peak 3.0</td>" in html
        assert "dir_occupancy" not in html

    def test_single_sample_series_is_one_point(self, tmp_path):
        path = write_jsonl(tmp_path / "t.jsonl",
                           [{"kind": "msg", "step": 1, "cause": "GETS"}])
        timeseries_path_for(path).write_text(
            json.dumps({"gauges": [{"mpki": 4.0}]}))
        html = render_trace_html(path)
        assert html.count("<svg") == 1
        assert "points=\"0.0,2.0\"" in html

    @pytest.mark.parametrize("archive", [None, "{not json", "[1, 2, 3]"],
                             ids=["missing", "undecodable", "not-a-dict"])
    def test_no_usable_series_means_no_chart_section(self, tmp_path,
                                                     archive):
        path = write_jsonl(tmp_path / "t.jsonl",
                           [{"kind": "msg", "step": 1, "cause": "GETS"}])
        if archive is not None:
            timeseries_path_for(path).write_text(archive)
        html = render_trace_html(path)
        assert "<svg" not in html and "Time series" not in html
        assert "<code>msg</code></td><td>1</td>" in html

    def test_torn_trace_renders_the_intact_prefix(self, tmp_path):
        path = write_jsonl(tmp_path / "t.jsonl",
                           [{"kind": "msg", "step": 1, "cause": "GETS"},
                            {"kind": "msg", "step": 2, "cause": "GETX"}],
                           tail='{"kind": "priv_inv", "cau')
        html = render_trace_html(path)
        assert "<code>msg</code></td><td>2</td>" in html
        assert "priv_inv" not in html

    def test_campaign_page_shows_every_health_cell(self, tmp_path):
        path = write_jsonl(tmp_path / "j.jsonl", FAILED_JOURNAL)
        html = render_trace_html(path)
        assert_self_contained(html)
        assert "<span class=\"badge failed\">failed</span> " \
            "1 unresolved run failure(s)" in html
        cells = re.findall(r"<div><b>(\d+)</b> ([a-z ]+)</div>", html)
        assert cells == [("3", "committed runs"), ("1", "failed runs"),
                         ("2", "retries"), ("0", "timeouts"),
                         ("0", "worker deaths"), ("4", "resume skips")]
        assert "directory-eviction" not in html

    def test_campaign_page_agrees_with_the_terminal_report(self,
                                                           tmp_path):
        path = write_jsonl(tmp_path / "j.jsonl", FAILED_JOURNAL)
        html_cells = {label: int(count) for count, label in re.findall(
            r"<div><b>(\d+)</b> ([a-z ]+)</div>", render_trace_html(path))}
        text = render_report(path)
        health = text.split("campaign health:\n", 1)[1].split("\n\n")[0]
        terminal = {line[:16].strip(): int(line[16:].replace(",", ""))
                    for line in health.splitlines()}
        assert terminal == html_cells
        assert "verdict: 1 unresolved run failure(s)" in text

    def test_healthy_campaign_journal(self, tmp_path):
        from repro.harness.campaign import CampaignJournal, campaign_map
        path = tmp_path / "ok.jsonl"
        with CampaignJournal(path) as journal:
            journal.ensure_meta(campaign="test")
            campaign_map(lambda value: value, [1, 2], keys=["a", "b"],
                         journal=journal)
        html = render_trace_html(path)
        assert_self_contained(html)
        assert "<span class=\"badge ok\">ok</span> " \
            "campaign healthy (all runs committed)" in html
        assert "<div><b>2</b> committed runs</div>" in html

    def test_every_style_rule_is_used(self, traced_runs, tmp_path):
        from repro.obs.report import _STYLE
        pages = [render_trace_html(path) for path in traced_runs]
        pages.append(render_trace_html(
            write_jsonl(tmp_path / "j.jsonl", FAILED_JOURNAL)))
        used = "\n".join(page.split("</style>", 1)[1] for page in pages)
        simple = [part for group in re.findall(r"([^{}]+)\{", _STYLE)
                  for selector in group.split(",")
                  for part in selector.split()]
        assert simple
        for part in simple:
            tag, *classes = part.split(".")
            if tag:
                assert f"<{tag}" in used, part
            for name in classes:
                assert re.search(rf"class=\"[^\"]*\b{name}\b", used), part


class TestMultisocketTracing:
    def test_socket_invalidations_are_cause_tagged(self):
        from repro.common.addressing import BLOCK_SHIFT
        from repro.multisocket import MultiSocketSystem
        from repro.obs import attach, detach
        from repro.workloads.trace import Op
        system = MultiSocketSystem(tiny_config(), n_sockets=2)
        bus = EventBus()
        ring = RingBufferSink(8192)
        bus.subscribe(ring)
        attach(system, bus)
        block = 8 << BLOCK_SHIFT
        socket0, socket1 = system.sockets
        socket0.access(0, Op.READ, block)
        socket1.access(0, Op.READ, block)        # socket-level S
        socket0.access(0, Op.WRITE, block)       # upgrade kills socket 1
        assert ring.counts().get("priv_inv:socket", 0) >= 1
        detach(system)
        assert system.obs is None
        assert all(socket.obs is None for socket in system.sockets)
        system.check_invariants()

    def test_traced_zerodev_multisocket_run(self):
        from repro.harness.parallel import run_live
        from repro.multisocket import MultiSocketSystem
        from repro.obs import attach
        workload = make_multithreaded(
            find_profile("canneal"), tiny_config(n_cores=8), 300, seed=5)
        per_kernel = {}
        for kernel in ("scalar", "batched"):
            system = MultiSocketSystem(zerodev_config(kernel=kernel),
                                       n_sockets=2)
            bus = EventBus()
            ring = RingBufferSink(1 << 16)
            bus.subscribe(ring)
            attach(system, bus)
            before = telemetry_snapshot()
            run_live(system, workload, check_invariants_every=200)
            # Counted once in the session telemetry, like a run_many
            # run.
            delta = telemetry_since(before)
            assert delta["runs"] == 1
            assert delta["accesses"] == workload.total_accesses
            counts = ring.counts()
            assert sum(count for key, count in counts.items()
                       if key.startswith("msg:")) > 0
            assert counts.get("priv_inv:dev", 0) == 0   # still no DEVs
            # The bus step is the global access index, as on one
            # socket: it never goes back and ends at the accesses
            # issued.
            steps = [event.step for event in ring.events]
            assert len(ring) == ring.total_seen
            assert steps == sorted(steps) and steps[0] >= 1
            assert bus.step == workload.total_accesses
            assert steps[-1] <= bus.step
            per_kernel[kernel] = counts
        assert per_kernel["scalar"] == per_kernel["batched"]


# ---------------------------------------------------------------------------
# run_many / result-cache propagation
# ---------------------------------------------------------------------------
class TestRunManyTracing:
    def test_trace_dir_traces_every_executed_run(self, tmp_path):
        specs = [(zerodev_config(), small_workload("blackscholes")),
                 (sparse_baseline_config(), small_workload("canneal"))]
        untraced = run_many(specs, jobs=1, cache=None)
        traced = run_many(specs, jobs=1, cache=None,
                          trace_dir=tmp_path / "traces")
        for result in traced:
            assert result.trace_path is not None
            trace = Path(result.trace_path)
            assert trace.parent == tmp_path / "traces"
            assert trace.is_file()
            assert timeseries_path_for(trace).is_file()
        assert ([r.stats.as_dict() for r in traced]
                == [r.stats.as_dict() for r in untraced])

    def test_cache_hit_preserves_trace_path(self, tmp_path):
        from repro.harness.result_cache import ResultCache
        spec = (zerodev_config(), small_workload())
        cache = ResultCache()
        first = run_many([spec], jobs=1, cache=cache,
                         trace_dir=tmp_path)[0]
        hit = run_many([spec], jobs=1, cache=cache)[0]
        assert hit.cached and hit.trace_path == first.trace_path

    def test_execute_run_with_trace_path(self, tmp_path):
        path = tmp_path / "one.jsonl"
        result = execute_run((zerodev_config(), small_workload()),
                             trace_path=str(path))
        assert result.system is None             # detached
        assert result.trace_path == str(path) and path.is_file()


# ---------------------------------------------------------------------------
# Jobs validation (satellite)
# ---------------------------------------------------------------------------
class TestJobsValidation:
    def test_parse_jobs_accepts_positive(self):
        assert parse_number("4", "--jobs") == 4
        assert parse_number(2, "--jobs") == 2
        assert parse_number(" 8 ", "--jobs") == 8

    @pytest.mark.parametrize("bad", ["0", "-2", "abc", "1.5", None, ""])
    def test_parse_jobs_rejects_garbage(self, bad):
        with pytest.raises(ConfigError):
            parse_number(bad, "--jobs")

    def test_non_negative_float_admits_zero_only(self):
        assert parse_number("0", "--ratio", kind=float,
                            allow_zero=True) == 0.0
        assert parse_number("0.25", "--ratio", kind=float,
                            allow_zero=True) == 0.25
        for bad in ("-1", "nan", "inf", "-inf", "x"):
            with pytest.raises(ConfigError,
                               match="a non-negative finite number"):
                parse_number(bad, "--ratio", kind=float, allow_zero=True)
        with pytest.raises(ConfigError, match="a positive finite number"):
            parse_number("0", "--run-timeout", kind=float)

    def test_default_jobs_reads_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert default_jobs() == 3

    def test_default_jobs_unset_or_blank_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert default_jobs() == 1
        monkeypatch.setenv("REPRO_JOBS", "  ")
        assert default_jobs() == 1

    @pytest.mark.parametrize("bad", ["0", "-1", "two"])
    def test_default_jobs_rejects_bad_env(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_JOBS", bad)
        with pytest.raises(ConfigError):
            default_jobs()

    def test_run_many_validates_explicit_jobs(self):
        with pytest.raises(ConfigError):
            run_many([], jobs=0)


# ---------------------------------------------------------------------------
# Atomic archive writes (satellite)
# ---------------------------------------------------------------------------
class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        path = tmp_path / "out.json"
        atomic_write_text(path, "first")
        atomic_write_text(path, "second")
        assert path.read_text() == "second"
        assert list(tmp_path.iterdir()) == [path]  # no temp litter

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "nested" / "deep" / "out.json"
        atomic_write_text(path, "x")
        assert path.read_text() == "x"
        # Not mkstemp's owner-only 0600: a rebuilt EXPERIMENTS.md or
        # results/*.txt keeps the mode a plain write gives it.
        plain = tmp_path / "plain.txt"
        plain.write_text("x")
        assert path.stat().st_mode == plain.stat().st_mode


# ---------------------------------------------------------------------------
# CLI surfacing
# ---------------------------------------------------------------------------
class TestCliSurfacing:
    def test_trace_events_then_report(self, capsys, tmp_path):
        from repro.cli import main
        path = str(tmp_path / "run.jsonl")
        assert main(["trace", "streamcluster", path,
                     "--accesses", "300", "--epoch", "200"]) == 0
        out = capsys.readouterr().out
        assert "ZERO directory-eviction victims" in out
        assert main(["report", path]) == 0
        assert "trace report" in capsys.readouterr().out
        assert main(["report", "--html", path]) == 0
        html = (tmp_path / "run.html").read_text(encoding="utf-8")
        assert_self_contained(html)
        assert "ZERO directory-eviction victims" in html
        assert "<svg" in html           # --epoch 200 archived a series

    def test_trace_events_baseline_shows_devs(self, capsys, tmp_path):
        from repro.cli import main
        path = str(tmp_path / "base.jsonl")
        assert main(["trace", "canneal", path, "--accesses", "400",
                     "--events", "--protocol", "baseline",
                     "--ratio", "0.03125"]) == 0
        assert "DEV-caused" in capsys.readouterr().out

    def test_report_missing_trace_is_clean_error(self, capsys, tmp_path):
        from repro.cli import main
        assert main(["report", str(tmp_path / "nope.jsonl")]) == 2
        assert "no such trace" in capsys.readouterr().err
        for target in (tmp_path / "nope.jsonl", tmp_path):
            assert main(["report", "--html", str(target)]) == 2
            err = capsys.readouterr().err
            assert "Traceback" not in err
            errors = [line for line in err.splitlines() if "error:" in line]
            assert len(errors) == 1, err
