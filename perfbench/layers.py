"""Which public calls of which layer the traced run wraps, and the
per-layer metrics it derives from their spans.

A layer is a ``repro`` sub-package.  Class methods are wrapped on the
class that defines them; module functions on the module that the caller
looks them up in at call time.
"""

from __future__ import annotations

from statistics import median

from spans import (Patches, fanout_span, public_methods, retire_span,
                   scoped_span, span, worker_span)

#: Per-layer time metrics: metric -> span names whose self times it sums.
TIME_METRICS = {
    "workloads.gen_s": ("workloads.gen",),
    "harness.build_s": ("harness.build",),
    "harness.runner_self_s": ("harness.runner",),
    "kernel.setup_s": ("kernel.setup",),
    "kernel.classify_s": ("kernel.classify",),
    "kernel.retire_s": ("kernel.retire",),
    "kernel.driver_self_s": ("kernel.driver",),
    "coherence.access_self_s": ("coherence.access",),
    "coherence.dir_s": ("coherence.dir",),
    "interconnect.send_s": ("interconnect.send", "interconnect.route"),
    "common.stats_s": ("common.record_message", "common.advance_core",
                       "common.record_latency"),
    "caches.private_s": ("caches.private",),
    "caches.llc_s": ("caches.llc",),
    "core.housing_s": ("core.housing",),
    "dram.s": ("dram.read", "dram.write"),
    "multisocket.access_self_s": ("multisocket",),
    "verify.canonical_s": ("verify.canonical",),
    "verify.check_s": ("verify.check",),
    "verify.explore_self_s": ("verify.explore",),
    "verify.campaign_self_s": ("verify.campaign",),
    "verify.oracle_self_s": ("verify.oracle",),
    "verify.tracegen_s": ("verify.tracegen",),
    "obs.emit_s": ("obs.emit",),
}

#: Self time divided by the number of runs / fan-out items.
PER_RUN_SPAN = ("harness.batch_self_s", "harness.batch")
PER_ITEM_SPAN = ("harness.fanout_s_per_item", "harness.fanout")

#: Per-layer call counts: metric -> span names whose calls it sums.
COUNT_METRICS = {
    "coherence.access_calls": ("coherence.access",),
    "coherence.dir_calls": ("coherence.dir",),
    "interconnect.send_calls": ("interconnect.send",),
    "common.stats_calls": ("common.record_message", "common.advance_core",
                           "common.record_latency"),
    "caches.private_calls": ("caches.private",),
    "caches.llc_calls": ("caches.llc",),
    "core.housing_calls": ("core.housing",),
    "dram.calls": ("dram.read", "dram.write"),
    "obs.events": ("obs.emit",),
}

#: Counts and ratios the simulation itself computes (simulation
#: workloads; 0 on ``verify``, whose runs are not figure runs).
SIM_METRICS = ("kernel.bulk_ratio", "caches.l2_miss_ratio",
               "coherence.dev_invalidations", "core.wb_de", "core.get_de",
               "core.relocations", "dram.row_hit_ratio",
               "sim.cycles_per_access")

#: Every per-layer metric, in report order.
PER_LAYER = (tuple(TIME_METRICS) + (PER_RUN_SPAN[0], PER_ITEM_SPAN[0])
             + tuple(COUNT_METRICS) + SIM_METRICS
             + ("verify.dedup_ratio", "trace.overhead_ratio",
                "other.self_s"))

#: Unit of every per-layer metric.
UNITS = dict({metric: "s" for metric in TIME_METRICS},
             **{PER_RUN_SPAN[0]: "s", PER_ITEM_SPAN[0]: "s",
                "other.self_s": "s", "trace.overhead_ratio": "ratio",
                "verify.dedup_ratio": "ratio", "kernel.bulk_ratio": "ratio",
                "caches.l2_miss_ratio": "ratio",
                "dram.row_hit_ratio": "ratio",
                "sim.cycles_per_access": "cycles/access"},
             **{metric: "count" for metric in COUNT_METRICS},
             **{metric: "count" for metric in (
                 "coherence.dev_invalidations", "core.wb_de",
                 "core.get_de", "core.relocations")})

#: Span names that only carry counts (no wall-clock).
COUNTERS = ("kernel.retired", "harness.fanout_items",
            "harness.fanout_items_traced")


def build_patches(log, run_label) -> Patches:
    """Every wrapper of the traced run, not yet installed.
    ``run_label(config, workload)`` names a simulation run."""
    import repro.harness.experiments as experiments
    import repro.harness.parallel as parallel
    import repro.harness.system_builder as system_builder
    import repro.kernel as kernel
    import repro.verify.differential as differential
    import repro.verify.modelcheck as modelcheck
    import repro.verify.oracle as oracle
    from repro.caches.llc import LLCBank
    from repro.caches.private_cache import PrivateHierarchy
    from repro.coherence.directory import SparseDirectory
    from repro.coherence.protocol import CMPSystem
    from repro.common.stats import SystemStats
    from repro.core.housing import MemoryHousing
    from repro.dram.model import DramModel
    from repro.interconnect.mesh import Mesh
    from repro.kernel.batched import SlotKernel
    from repro.multisocket.system import MultiSocketSystem
    from repro.obs.bus import EventBus
    from repro.verify.tracegen import TraceGenerator

    patches = Patches()

    def wrap(owner, attr, name, factory=span):
        patches.add(owner, attr, factory(log, name, vars(owner)[attr]))

    def wrap_all(cls, name, skip=()):
        for attr in public_methods(cls):
            if attr not in skip:
                wrap(cls, attr, name)

    for attr in ("make_multithreaded", "make_rate_workload",
                 "make_server_workload"):
        wrap(experiments, attr, "workloads.gen")

    # harness: the batch, each run's build and drive, the fuzz fan-out.
    wrap(parallel, "run_many", "harness.batch")
    patches.add(parallel, "execute_run", scoped_span(
        log, None, parallel.execute_run,
        label=lambda spec, *_a, **_kw: run_label(*spec)))
    wrap(parallel, "build_system", "harness.build")
    wrap(system_builder, "build_system", "harness.build")
    wrap(parallel, "run_workload", "harness.runner")
    wrap(differential, "campaign_map", "harness.fanout", fanout_span)

    # kernel: the driver loop, classification, bulk retirement.  The
    # driver inlines safe_end, so the scan/absorb/horizon helpers it
    # calls are timed as classification.
    wrap(kernel, "drive_batched", "kernel.driver")
    wrap(SlotKernel, "__init__", "kernel.setup")
    for attr in ("safe_end", "horizon", "_scan", "_absorb",
                 "reset_classification"):
        wrap(SlotKernel, attr, "kernel.classify")
    wrap(SlotKernel, "retire_run", "kernel.retire", retire_span)

    wrap(CMPSystem, "access", "coherence.access")
    wrap_all(SparseDirectory, "coherence.dir")
    wrap(Mesh, "send", "interconnect.send")
    wrap_all(Mesh, "interconnect.route", skip=("send",))
    for attr in ("record_message", "advance_core", "record_latency"):
        wrap(SystemStats, attr, f"common.{attr}")
    wrap_all(PrivateHierarchy, "caches.private")
    wrap_all(LLCBank, "caches.llc")
    wrap_all(MemoryHousing, "core.housing")
    wrap(DramModel, "read", "dram.read")
    wrap(DramModel, "write", "dram.write")
    wrap_all(MultiSocketSystem, "multisocket")

    # verify: explorations and campaigns open runs of their own.
    patches.add(modelcheck, "explore_model", scoped_span(
        log, "verify.explore", modelcheck.explore_model,
        label=lambda spec, depth, **_kw: f"explore:{spec.name}@{depth}"))
    patches.add(differential, "run_campaign", scoped_span(
        log, "verify.campaign", differential.run_campaign,
        label=lambda seed, budget, **_kw: f"fuzz:seed{seed}x{budget}"))
    wrap(differential, "run_trace", "verify.oracle", worker_span)
    wrap(modelcheck, "system_key", "verify.canonical")
    for module in (modelcheck, oracle):
        wrap(module, "check_step", "verify.check")
        wrap(module, "dev_count", "verify.check")
    wrap(TraceGenerator, "trace", "verify.tracegen")
    wrap(EventBus, "emit", "obs.emit")
    return patches


def self_time(record) -> float:
    return record[1] - record[2]


def derive(log, batches, untraced, workload, setup_scale) -> tuple:
    """``(metrics, problems)``: per-layer metrics per traced batch, and
    every way the attribution or the wrapper counts fail to add up.

    ``batches`` are the traced batches, ``untraced`` the others;
    ``log.covered`` is the wall-clock the traced batches' top-level
    spans covered.  Times are rescaled to the reference interpreter
    speed like the end-to-end ones: span times by the traced batches'
    factor, the generators' by the set-up's (``setup_scale``).
    """
    n = len(batches)
    scale = (sum(batch.seconds for batch in batches)
             / sum(batch.wall for batch in batches))
    totals = log.totals()
    setup = log.runs.get("setup", {})
    problems = []

    def self_of(names, table=totals):
        return sum(self_time(table[name]) for name in names
                   if name in table)

    def count_of(names, table=totals):
        return sum(table[name][0] for name in names if name in table)

    metrics = {}
    for metric, names in TIME_METRICS.items():
        if metric == "workloads.gen_s":
            metrics[metric] = self_of(names, setup) * setup_scale
        else:
            metrics[metric] = self_of(names) * scale / n
    runs = len(workload.labels) or 1
    metrics[PER_RUN_SPAN[0]] = (self_of((PER_RUN_SPAN[1],)) * scale
                                / n / runs)
    items = count_of(("harness.fanout_items",))
    metrics[PER_ITEM_SPAN[0]] = (self_of((PER_ITEM_SPAN[1],)) * scale
                                 / items if items else 0.0)
    for metric, names in COUNT_METRICS.items():
        metrics[metric] = count_of(names) // n

    # Closure: the self times of all spans plus uncovered time must
    # add up to the traced wall.
    wall = sum(batch.wall for batch in batches)
    known = set(COUNTERS) | {PER_RUN_SPAN[1], PER_ITEM_SPAN[1]}
    for names in TIME_METRICS.values():
        known.update(names)
    unknown = sorted(set(totals) - known)
    if unknown:
        problems.append(f"spans outside every metric: {unknown}")
    attributed = sum(self_time(record) for name, record in totals.items()
                     if name not in COUNTERS)
    other = wall - log.covered
    metrics["other.self_s"] = other * scale / n
    if abs(attributed + other - wall) > 0.05 * wall:
        problems.append(f"attribution does not close: layers "
                        f"{attributed:.3f}s + other {other:.3f}s vs "
                        f"traced wall {wall:.3f}s")
    items_traced = count_of(("harness.fanout_items_traced",))
    if items_traced != items:
        problems.append(f"{items - items_traced} of {items} fan-out items "
                        "shipped no spans back")
    metrics["trace.overhead_ratio"] = (
        median(batch.seconds for batch in batches)
        / median(batch.seconds for batch in untraced))

    for metric in SIM_METRICS + ("verify.dedup_ratio",):
        metrics[metric] = 0 if UNITS[metric] == "count" else 0.0
    if workload.name == "verify":
        reports = [r for b in batches for r in b.parts["reports"]]
        transitions = sum(r.transitions for r in reports)
        metrics["verify.dedup_ratio"] = (
            sum(r.dedup_hits for r in reports) / transitions)
    else:
        metrics.update(_sim_metrics(log, workload, batches, n, problems))
    return {metric: metrics[metric] for metric in PER_LAYER}, problems


def _sim_metrics(log, workload, batches, n, problems) -> dict:
    results = batches[0].parts["results"]
    stats = [result.stats for result in results]
    accesses = sum(s.total_accesses for s in stats)
    retired = 0
    for label, st in zip(workload.labels, stats):
        table = log.runs.get(label, {})
        run_retired = table.get("kernel.retired", [0])[0]
        retired += run_retired
        calls = table.get("coherence.access", [0])[0]
        if calls + run_retired != n * st.total_accesses:
            problems.append(f"{label}: {calls} access calls + "
                            f"{run_retired} bulk-retired != {n} x "
                            f"{st.total_accesses} accesses")
        messages = table.get("common.record_message", [0])[0]
        if messages != n * sum(st.messages.values()):
            problems.append(f"{label}: {messages} record_message calls "
                            f"!= {n} x {sum(st.messages.values())} "
                            "messages")
        reads = table.get("dram.read", [0])[0]
        if reads != n * st.dram_reads:
            problems.append(f"{label}: {reads} DramModel.read calls != "
                            f"{n} x {st.dram_reads} dram_reads")
    row = sum(s.dram_row_hits + s.dram_row_misses for s in stats)
    return {
        "kernel.bulk_ratio": retired / (n * accesses),
        "caches.l2_miss_ratio": sum(s.core_cache_misses
                                    for s in stats) / accesses,
        "coherence.dev_invalidations": sum(s.dev_invalidations
                                           for s in stats),
        "core.wb_de": sum(s.wb_de_messages for s in stats),
        "core.get_de": sum(s.get_de_messages for s in stats),
        "core.relocations": sum(s.spill_to_fuse + s.fuse_to_spill
                                for s in stats),
        "dram.row_hit_ratio": (sum(s.dram_row_hits for s in stats) / row
                               if row else 0.0),
        "sim.cycles_per_access": sum(sum(s.cycles)
                                     for s in stats) / accesses,
    }

