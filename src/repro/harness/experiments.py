"""Per-figure experiment definitions.

Each ``fig*`` function reproduces one figure of the paper's evaluation:
it builds the systems, runs the workloads, and returns a
:class:`~repro.harness.reporting.Table` whose rows carry both the measured
value and the paper's value (where the paper states one). The benchmarks
in ``benchmarks/`` are thin wrappers that execute these functions under
pytest-benchmark and assert the qualitative *shape* (who wins, direction
of trends) rather than absolute numbers -- the substrate is a trace-driven
simulator, not the authors' Multi2Sim testbed (see DESIGN.md).

Every comparison -- a set of designs against a reference socket on the
same applications -- goes through :func:`compare`: it issues the
reference and every design over the ``(group, app, workload)`` work of
:func:`suite_work` as one :func:`repro.harness.parallel.run_many` batch
and returns ``(base run, run)`` pairs; :func:`compare_suites` reduces
them to speedups. A figure without a reference (Figures 5 and 12, the
notice-bit and socket-directory ablations) issues :func:`run_configs`
batches. A multi-socket run is one spec whose config sets
``n_sockets``. Every batch (a) fans out over ``REPRO_JOBS`` worker
processes and (b) deduplicates against the session result cache, so
the baseline runs shared by fig17-fig27 are simulated exactly once per
session. Results are bit-identical to the serial path (the simulator
is deterministic); every table carries run telemetry in
``Table.metadata``.

Scaling knobs (environment variables):

``REPRO_ACCESSES``  accesses per core per run (default 6000)
``REPRO_FULL``      set to 1 to run every application instead of the
                    representative subset
``REPRO_SCALE``     capacity scale divisor (default 16; 1 = paper-sized)
``REPRO_JOBS``      worker processes for independent runs (default 1)
``REPRO_CACHE_DIR`` persist run results on disk across sessions
``REPRO_RUN_TIMEOUT`` per-run deadline in seconds (default: none)
``REPRO_RETRIES``   retry budget for transient failures (worker death,
                    OSError; default 0)
"""

from __future__ import annotations

import functools
import os
import time
from contextlib import nullcontext
from typing import Dict, Iterable, List, Optional, Tuple

from repro.common.config import (DirCachingPolicy, DirectoryConfig,
                                 LLCDesign, LLCReplacement, Protocol,
                                 SystemConfig, CacheGeometry,
                                 resolve_kernel, scaled_socket)
from repro.common.stats import makespan_speedup, weighted_speedup
from repro.harness.campaign import CampaignJournal, policy_from_env
from repro.harness.energy import estimate_energy
from repro.harness.parallel import (env_number, run_many,
                                    telemetry_since, telemetry_snapshot)
from repro.harness.reporting import Table, geomean
from repro.harness.runner import RunResult
from repro.workloads.suites import (make_heterogeneous_mixes,
                                    make_multithreaded, make_rate_workload,
                                    make_server_workload, suite_profiles)
from repro.workloads.trace import Workload


def accesses_per_core(default: int = 6000) -> int:
    return env_number("REPRO_ACCESSES", default)


def capacity_scale() -> int:
    return env_number("REPRO_SCALE", 16)


def run_full() -> bool:
    return os.environ.get("REPRO_FULL", "0") == "1"


def jobs() -> int:
    """Worker processes for independent runs (``REPRO_JOBS``)."""
    from repro.harness.parallel import default_jobs
    return default_jobs()


def default_config(**overrides) -> SystemConfig:
    return scaled_socket(capacity_scale(), **overrides)


def _instrumented(fn):
    """Record wall-clock and run telemetry into the returned table.

    Every figure's ``results/*.json`` artifact then carries the number
    of simulated runs, cache hits, per-run wall time, and simulated
    accesses per second -- the baseline future perf PRs regress against.

    Two rates are recorded. ``accesses_per_second`` divides by the run
    wall summed over every run, i.e. the speed of one run in its
    worker; with more workers than CPUs each run slows down and this
    rate drops although the figure finishes sooner.
    ``aggregate_accesses_per_second`` divides by the experiment's own
    wall-clock: the figure's throughput. ``cpu_count`` says how many
    CPUs the workers shared, and ``kernel`` which access kernel ran
    (``REPRO_KERNEL`` or the config's default).
    """
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        before = telemetry_snapshot()
        started = time.perf_counter()
        table, results = fn(*args, **kwargs)
        elapsed = time.perf_counter() - started
        delta = telemetry_since(before)
        run_wall = delta["wall_seconds"]
        accesses = delta["accesses"]
        table.metadata.update({
            "experiment_wall_seconds": round(elapsed, 3),
            "runs_executed": int(delta["runs"]),
            "cache_hits": int(delta["cache_hits"]),
            "run_wall_seconds": round(run_wall, 3),
            "simulated_accesses": int(accesses),
            "accesses_per_second": (
                int(accesses / run_wall) if run_wall else 0),
            "kernel": resolve_kernel(default_config()),
            "aggregate_accesses_per_second": (
                int(accesses / elapsed) if elapsed else 0),
            "cpu_count": os.cpu_count() or 1,
            "jobs": jobs(),
            "effective_jobs": int(
                telemetry_snapshot()["effective_jobs"]),
            "cache_dropped_puts": int(delta["cache_dropped_puts"]),
            "run_retries": int(delta["run_retries"]),
            "run_failures": int(delta["run_failures"]),
        })
        return table, results
    return wrapper


#: Representative per-suite subsets: always include the applications the
#: paper calls out by name (freqmine, vips, lu_ncb, 330.art, xalancbmk,
#: gcc.ppO2, cam4, ...).
REPRESENTATIVE: Dict[str, List[str]] = {
    "PARSEC": ["blackscholes", "canneal", "freqmine", "streamcluster",
               "vips"],
    "SPLASH2X": ["fft", "lu_ncb", "ocean_cp", "raytrace",
                 "water_nsquared"],
    "SPECOMP": ["312.swim", "330.art"],
    "FFTW": ["fftw"],
    "CPU2017": ["xalancbmk", "mcf", "gcc.ppO2", "leela", "lbm", "cam4",
                "omnetpp", "povray"],
    "SERVER": ["SPECjbb", "SPECWeb-S", "TPC-C", "TPC-H"],
}

MT_SUITES = ("PARSEC", "SPLASH2X", "SPECOMP", "FFTW")


def apps_of(suite: str):
    profiles = suite_profiles(suite)
    if run_full():
        return profiles
    chosen = set(REPRESENTATIVE[suite])
    return [p for p in profiles if p.name in chosen]


def workload_for(profile, suite: str, config: SystemConfig,
                 seed: int = 11) -> Workload:
    n = accesses_per_core()
    if suite == "CPU2017":
        return make_rate_workload(profile, config, n, seed=seed)
    if suite == "SERVER":
        return make_server_workload(profile, config, n, seed=seed)
    return make_multithreaded(profile, config, n, seed=seed)


#: One unit of comparison work: (group, application name, workload). The
#: group names the suite and picks the speedup rule (:func:`speedup_of`).
Work = List[Tuple[str, str, Workload]]


def suite_work(suites: Iterable[str], config: SystemConfig) -> Work:
    """``(group, app, workload)`` for every representative application
    of ``suites``, each workload generated for ``config``."""
    return [(suite, profile.name, workload_for(profile, suite, config))
            for suite in suites for profile in apps_of(suite)]


def run_configs(pairs) -> List[RunResult]:
    """Run a batch of (config, workload) pairs under the figure-level
    parallelism/cache policy; results in request order.

    ``REPRO_RUN_TIMEOUT`` / ``REPRO_RETRIES`` set the batch's per-run
    deadline and retry budget. A run that still fails leaves every
    completed run in the session cache before the batch raises, so a
    re-run resumes from the cache instead of starting over.
    """
    return run_many(pairs, jobs=jobs(), policy=policy_from_env())


def compare(base_config: SystemConfig, configs: Dict[object, SystemConfig],
            work: Work, resume=None
            ) -> Dict[object, List[Tuple[RunResult, RunResult]]]:
    """Run ``base_config`` and every config of ``configs`` over each
    workload of ``work``, as one batch.

    Returns label -> ``[(base run, run)]`` in ``work`` order. The batch
    runs under :func:`run_configs`' policy (``REPRO_JOBS``,
    ``REPRO_RUN_TIMEOUT``, ``REPRO_RETRIES``) and the session cache, so
    a reference shared with another comparison is simulated once.
    ``resume`` names a campaign journal (created if missing): completed
    runs are committed there, and re-running the comparison after an
    interruption replays them instead of simulating them again.
    """
    workloads = [workload for _, _, workload in work]
    specs = [(config, workload)
             for config in (base_config, *configs.values())
             for workload in workloads]
    with (nullcontext() if resume is None
          else CampaignJournal(resume)) as journal:
        runs = run_many(specs, jobs=jobs(), policy=policy_from_env(),
                        journal=journal)
    n = len(workloads)
    base_runs = runs[:n]
    return {label: list(zip(base_runs, runs[n * (index + 1):n * (index + 2)]))
            for index, label in enumerate(configs)}


def speedup_of(base: RunResult, new: RunResult, group: str) -> float:
    """Weighted (per-core) speedup for the multi-programmed groups,
    makespan speedup for the rest."""
    if group in ("CPU2017", "CPU-HET"):
        return weighted_speedup(base.per_core_cycles, new.per_core_cycles)
    return makespan_speedup(base.stats, new.stats)


_AGGREGATE_FIELDS = ("dram_writes", "dram_writes_entry_eviction",
                     "llc_read_misses", "corrupted_block_reads",
                     "dev_invalidations", "wb_de_messages",
                     "get_de_messages", "inclusion_invalidations",
                     "update_pushes", "updates_sent")


def compare_suites(base_config: SystemConfig,
                   configs: Dict[object, SystemConfig], work: Work
                   ) -> Dict[object, Dict[str, Dict[str, float]]]:
    """:func:`compare`, reduced to speedups.

    Returns results[label][group][app] = speedup vs base, plus
    results["_aggregates"][label] = summed counters (the Section
    III-D3 statistics are derived from these).
    """
    results: dict = {}
    aggregates = {}
    for label, pairs in compare(base_config, configs, work).items():
        speedups = results[label] = {group: {} for group, _, _ in work}
        totals = aggregates[label] = dict.fromkeys(_AGGREGATE_FIELDS, 0)
        for (group, app, _), (base, new) in zip(work, pairs):
            speedups[group][app] = speedup_of(base, new, group)
            for field in _AGGREGATE_FIELDS:
                totals[field] += getattr(new.stats, field)
    results["_aggregates"] = aggregates
    return results


def zerodev_config(base: SystemConfig, ratio: Optional[float] = None,
                   policy: DirCachingPolicy = DirCachingPolicy.FPSS,
                   replacement: LLCReplacement = LLCReplacement.DATA_LRU,
                   **overrides) -> SystemConfig:
    return base.with_(protocol=Protocol.ZERODEV,
                      directory=DirectoryConfig(ratio=ratio),
                      dir_caching=policy,
                      llc_replacement=replacement, **overrides)


# ----------------------------------------------------------------------
# Figures 2 and 3: 1x versus unbounded directory
# ----------------------------------------------------------------------
@_instrumented
def fig2_unbounded_rate() -> Tuple[Table, dict]:
    """Figure 2: traffic / core-cache misses / weighted speedup of rate
    workloads with an unbounded directory, normalized to the 1x baseline.
    """
    base_config = default_config()
    unbounded = base_config.with_(
        directory=DirectoryConfig(unbounded=True))
    table = Table("Figure 2: unbounded vs 1x directory (CPU2017 rate), "
                  "normalized to baseline")
    speedups, traffics, misses = [], [], []
    paper = {"xalancbmk": 1.04}
    work = suite_work(["CPU2017"], base_config)
    pairs = compare(base_config, {"unbounded": unbounded}, work)
    for (group, app, _), (base, unbd) in zip(work, pairs["unbounded"]):
        s = speedup_of(base, unbd, group)
        t = unbd.stats.traffic_bytes / max(base.stats.traffic_bytes, 1)
        m = (unbd.stats.core_cache_misses
             / max(base.stats.core_cache_misses, 1))
        speedups.append(s)
        traffics.append(t)
        misses.append(m)
        table.add(f"{app}.speedup", s, paper=paper.get(app))
        table.add(f"{app}.traffic", t)
        table.add(f"{app}.miss", m)
    table.add("AVG speedup", geomean(speedups), paper=1.005,
              note="paper: under 1% average speedup")
    table.add("AVG traffic", sum(traffics) / len(traffics), paper=0.90,
              note="paper: ~10% traffic saved")
    table.add("AVG core-cache miss", sum(misses) / len(misses),
              paper=0.85, note="paper: ~15% misses saved")
    return table, {"speedups": speedups, "traffic": traffics,
                   "misses": misses}


@_instrumented
def fig3_unbounded_multithreaded() -> Tuple[Table, dict]:
    """Figure 3: the same comparison for the multi-threaded suites."""
    base_config = default_config()
    unbounded = base_config.with_(
        directory=DirectoryConfig(unbounded=True))
    table = Table("Figure 3: unbounded vs 1x directory (multi-threaded)")
    paper = {"freqmine": 0.96}   # forwarded reads make unbounded slower
    work = suite_work(MT_SUITES, base_config)
    pairs = compare(base_config, {"unbounded": unbounded}, work)
    all_speedups: Dict[str, List[float]] = {suite: [] for suite in
                                            MT_SUITES}
    for (suite, app, _), (base, unbd) in zip(work, pairs["unbounded"]):
        s = speedup_of(base, unbd, suite)
        all_speedups[suite].append(s)
        if suite == "PARSEC" or app == "fftw":
            table.add(f"{app}.speedup", s, paper=paper.get(app))
    for suite in MT_SUITES:
        table.add(f"{suite}-AVG speedup", geomean(all_speedups[suite]),
                  paper=1.0, note="paper: 1x is adequate")
    return table, all_speedups


@_instrumented
def fig4_directory_sizes() -> Tuple[Table, dict]:
    """Figure 4: baseline speedup versus sparse-directory size."""
    base_config = default_config()
    ratios = [0.5, 0.125, 1 / 32]
    sized = {ratio: base_config.with_(directory=DirectoryConfig(ratio=ratio))
             for ratio in ratios}
    table = Table("Figure 4: speedup vs directory size "
                  "(normalized to 1x)")
    suites = list(MT_SUITES) + ["CPU2017"]
    speedups = compare_suites(base_config, sized,
                              suite_work(suites, base_config))
    results = {}
    for suite in suites:
        per_ratio = [geomean(list(speedups[ratio][suite].values()))
                     for ratio in ratios]
        results[suite] = per_ratio
        for ratio, value in zip(ratios, per_ratio):
            table.add(f"{suite} @ {ratio:.3f}x", value,
                      note="paper: gradual decline below 1x")
    return table, results


# ----------------------------------------------------------------------
# Figures 5 and 6: motivation for directory caching in the LLC
# ----------------------------------------------------------------------
@_instrumented
def fig5_llc_occupancy() -> Tuple[Table, dict]:
    """Figure 5: projected LLC occupancy of spilled directory entries.

    Measured as the peak number of entries an unbounded directory holds
    beyond what the sets of a 1x set-associative directory could keep
    (``SystemStats.dir_overflow_peak``), as a percentage of LLC blocks
    (one entry per block, as the paper projects).  These are the
    unbounded runs of Figures 2 and 3, so in one session they are
    cache hits.
    """
    table = Table("Figure 5: projected LLC occupancy of spilled "
                  "entries (% of LLC blocks)")
    base_config = default_config()
    unbounded = base_config.with_(
        directory=DirectoryConfig(unbounded=True))
    llc_blocks = base_config.llc.blocks
    suites = list(MT_SUITES) + ["CPU2017"]
    work = suite_work(suites, base_config)
    runs = run_configs([(unbounded, workload) for _, _, workload in work])
    results: Dict[str, List[float]] = {suite: [] for suite in suites}
    for (suite, _, _), run in zip(work, runs):
        results[suite].append(
            100.0 * run.stats.dir_overflow_peak / llc_blocks)
    for suite, maxima in results.items():
        table.add(f"{suite} max-of-max", max(maxima), paper=12.0,
                  note="paper: overall max ~12%")
        table.add(f"{suite} avg-of-max", sum(maxima) / len(maxima),
                  paper=10.0, note="paper: average at most 10%")
    return table, results


@_instrumented
def fig6_llc_ways() -> Tuple[Table, dict]:
    """Figure 6: baseline performance with reduced LLC associativity."""
    base_config = default_config()
    table = Table("Figure 6: speedup with 15/14/13/12-way LLC "
                  "(normalized to 16-way)")
    paper_min_12way = {"PARSEC": 0.78, "SPLASH2X": 0.83, "SPECOMP": 0.86,
                      "CPU2017": 0.91}
    all_ways = (15, 14, 13, 12)
    reduced = {ways: base_config.with_(llc=CacheGeometry(
        base_config.llc.size_bytes * ways // 16, ways))
        for ways in all_ways}
    suites = list(MT_SUITES) + ["CPU2017"]
    speedups = compare_suites(base_config, reduced,
                              suite_work(suites, base_config))
    results = {}
    for suite in suites:
        per_ways = {}
        for ways in all_ways:
            values = list(speedups[ways][suite].values())
            per_ways[ways] = (geomean(values), min(values))
        results[suite] = per_ways
        avg14, _ = per_ways[14]
        avg12, min12 = per_ways[12]
        table.add(f"{suite} 14-way avg", avg14, paper=0.97,
                  note="paper: at most 3% loss for 2 ways")
        table.add(f"{suite} 12-way avg", avg12, paper=0.96)
        table.add(f"{suite} 12-way min", min12,
                  paper=paper_min_12way.get(suite))
    return table, results


# ----------------------------------------------------------------------
# Figures 17 and 18: policy selection
# ----------------------------------------------------------------------
@_instrumented
def fig17_policy_selection() -> Tuple[Table, dict]:
    """Figure 17: SpillAll vs FPSS vs FuseAll (no sparse directory,
    dataLRU), normalized to the 1x baseline."""
    base_config = default_config()
    policies = {
        "SpillAll": DirCachingPolicy.SPILL_ALL,
        "FPSS": DirCachingPolicy.FPSS,
        "FuseAll": DirCachingPolicy.FUSE_ALL,
    }
    paper_min = {     # minimum speedup within suite, per Figure 17
        ("PARSEC", "SpillAll"): 0.76, ("PARSEC", "FPSS"): 0.94,
        ("PARSEC", "FuseAll"): 0.91,
        ("SPLASH2X", "SpillAll"): 0.81, ("SPLASH2X", "FPSS"): 0.96,
        ("SPLASH2X", "FuseAll"): 0.90,
        ("SPECOMP", "SpillAll"): 0.84, ("SPECOMP", "FPSS"): 0.98,
        ("SPECOMP", "FuseAll"): 0.98,
        ("CPU2017", "SpillAll"): 0.87, ("CPU2017", "FPSS"): 0.98,
        ("CPU2017", "FuseAll"): 0.99,
    }
    table = Table("Figure 17: directory-entry caching policies "
                  "(ZeroDEV, no directory)")
    configs = {label: zerodev_config(base_config, policy=policy)
               for label, policy in policies.items()}
    suites = list(MT_SUITES) + ["CPU2017"]
    results = compare_suites(base_config, configs,
                             suite_work(suites, base_config))
    for suite in suites:
        for label in policies:
            values = list(results[label][suite].values())
            table.add(f"{suite} {label} avg", geomean(values))
            table.add(f"{suite} {label} min", min(values),
                      paper=paper_min.get((suite, label)))
    return table, results


@_instrumented
def fig18_replacement_selection() -> Tuple[Table, dict]:
    """Figure 18: spLRU vs dataLRU at full and half LLC capacity."""
    base_config = default_config()
    half_llc = CacheGeometry(base_config.llc.size_bytes // 2,
                             base_config.llc.ways)
    configs = {
        "sp-full": zerodev_config(base_config,
                                  replacement=LLCReplacement.SP_LRU),
        "data-full": zerodev_config(base_config),
        "base-half": base_config.with_(llc=half_llc),
        "sp-half": zerodev_config(base_config,
                                  replacement=LLCReplacement.SP_LRU,
                                  llc=half_llc),
        "data-half": zerodev_config(base_config, llc=half_llc),
    }
    suites = list(MT_SUITES) + ["CPU2017"]
    results = compare_suites(base_config, configs,
                             suite_work(suites, base_config))
    table = Table("Figure 18: spLRU vs dataLRU (normalized to full-size "
                  "baseline)")
    for suite in suites:
        for label in configs:
            table.add(f"{suite} {label}",
                      geomean(list(results[label][suite].values())),
                      note="paper: dataLRU higher across the board")
    return table, results


# ----------------------------------------------------------------------
# Figures 19-21: ZeroDEV vs directory size
# ----------------------------------------------------------------------
def zerodev_vs_directory_size(suites: Iterable[str]
                              ) -> Tuple[Table, dict]:
    base_config = default_config()
    configs = {
        "1x": zerodev_config(base_config, ratio=1.0),
        "1/8x": zerodev_config(base_config, ratio=0.125),
        "NoDir": zerodev_config(base_config, ratio=None),
    }
    suites = list(suites)
    results = compare_suites(base_config, configs,
                             suite_work(suites, base_config))
    table = Table("ZeroDEV speedup vs baseline (three directory sizes)")
    for suite in suites:
        for label in configs:
            values = results[label][suite]
            table.add(f"{suite} {label} GEOMEAN",
                      geomean(list(values.values())), paper=0.99,
                      note="paper: within ~1% for all three sizes")
            if label == "NoDir":
                for app, value in values.items():
                    table.add(f"  {suite}/{app} NoDir", value)
    # Section III-D3 statistics, over the NoDir runs.
    agg = results["_aggregates"]["NoDir"]
    entry_write_frac = (agg["dram_writes_entry_eviction"]
                        / max(agg["dram_writes"], 1))
    corrupted_frac = (agg["corrupted_block_reads"]
                      / max(agg["llc_read_misses"], 1))
    table.add("DRAM writes from entry eviction", entry_write_frac,
              paper=0.005, note="paper: below 0.5% (Section III-D3)")
    table.add("LLC read misses to corrupted blocks", corrupted_frac,
              paper=0.0005, note="paper: below 0.05%")
    table.add("DEV invalidations (ZeroDEV, any size)",
              sum(results["_aggregates"][l]["dev_invalidations"]
                  for l in configs), paper=0.0,
              note="zero by construction")
    return table, results


@_instrumented
def fig19_parsec() -> Tuple[Table, dict]:
    """Figure 19: ZeroDEV on PARSEC for 1x, 1/8x, and no directory."""
    return zerodev_vs_directory_size(["PARSEC"])


@_instrumented
def fig20_splash_omp_fftw() -> Tuple[Table, dict]:
    """Figure 20: ZeroDEV on SPLASH2X, SPEC OMP, FFTW."""
    return zerodev_vs_directory_size(["SPLASH2X", "SPECOMP", "FFTW"])


@_instrumented
def fig21_cpu2017_rate() -> Tuple[Table, dict]:
    """Figure 21: ZeroDEV on the SPEC CPU 2017 rate workloads."""
    return zerodev_vs_directory_size(["CPU2017"])


# ----------------------------------------------------------------------
# Figure 22: LLC capacity sensitivity
# ----------------------------------------------------------------------
@_instrumented
def fig22_llc_capacity() -> Tuple[Table, dict]:
    """Figure 22: ZeroDEV with half-size and double-size LLCs."""
    base_config = default_config()
    table = Table("Figure 22: LLC capacity sensitivity (normalized to "
                  "the default-capacity baseline)")
    suites = list(MT_SUITES) + ["CPU2017"]
    sizes = (("half", 0.5), ("double", 2.0))
    designs = ("Base", "ZeroDEV-NoDir", "ZeroDEV-1/4x")
    configs = {}
    for label, factor in sizes:
        llc = CacheGeometry(int(base_config.llc.size_bytes * factor),
                            base_config.llc.ways)
        sized_base = base_config.with_(llc=llc)
        configs[f"Base-{label}"] = sized_base
        configs[f"ZeroDEV-NoDir-{label}"] = zerodev_config(sized_base,
                                                           ratio=None)
        configs[f"ZeroDEV-1/4x-{label}"] = zerodev_config(sized_base,
                                                          ratio=0.25)
    speedups = compare_suites(base_config, configs,
                              suite_work(suites, base_config))
    results = {}
    for label, _ in sizes:
        for suite in suites:
            results[(label, suite)] = tuple(
                geomean(list(speedups[f"{design}-{label}"][suite].values()))
                for design in designs)
            for design, value in zip(designs, results[(label, suite)]):
                table.add(f"{suite} {design}-{label}", value,
                          note=("paper: within 1% of same-size baseline "
                                "(16MB); 4MB may need a 1/4x directory"
                                if design == "ZeroDEV-NoDir" else ""))
    return table, results


# ----------------------------------------------------------------------
# Figure 23: heterogeneous multi-programmed workloads
# ----------------------------------------------------------------------
@_instrumented
def fig23_heterogeneous(n_mixes: int = 6) -> Tuple[Table, dict]:
    """Figure 23: heterogeneous multi-programmed mixes W1..Wn."""
    base_config = default_config()
    if run_full():
        n_mixes = 36
    mixes = make_heterogeneous_mixes(base_config, n_mixes,
                                     accesses_per_core(), seed=17)
    configs = {
        "1x": zerodev_config(base_config, ratio=1.0),
        "1/8x": zerodev_config(base_config, ratio=0.125),
        "NoDir": zerodev_config(base_config, ratio=None),
    }
    table = Table("Figure 23: heterogeneous mixes, weighted speedup vs "
                  "baseline")
    speedups = compare_suites(base_config, configs,
                              [("CPU-HET", mix.name, mix) for mix in mixes])
    results = {label: list(speedups[label]["CPU-HET"].values())
               for label in configs}
    for label, values in results.items():
        table.add(f"{label} GEOMEAN", geomean(values), paper=0.99,
                  note="paper: within 1% on average")
        table.add(f"{label} worst mix", min(values), paper=0.98,
                  note="paper: at most 2% individual slowdown")
    return table, results


# ----------------------------------------------------------------------
# Figure 24: server workloads on a big socket
# ----------------------------------------------------------------------
@_instrumented
def fig24_server(n_cores: int = 32) -> Tuple[Table, dict]:
    """Figure 24 (scaled): the paper's socket has 128 cores with a 32 MB
    LLC and 128 KB L2s; we default to 32 cores for Python runtime, with
    the same per-core L2:LLC proportions. ``REPRO_FULL=1`` uses 128."""
    if run_full():
        n_cores = 128
    scale = capacity_scale()
    config = SystemConfig(
        n_cores=n_cores,
        l1i=CacheGeometry(max(32 * 1024 // scale, 512), 8),
        l1d=CacheGeometry(max(32 * 1024 // scale, 512), 8),
        l2=CacheGeometry(max(128 * 1024 // scale, 4096), 8),
        llc=CacheGeometry(
            max(32 * 1024 * 1024 // scale // (128 // n_cores), 64 * 1024),
            16),
        llc_banks=8,
    )
    configs = {
        "1x": zerodev_config(config, ratio=1.0),
        "1/8x": zerodev_config(config, ratio=0.125),
        "NoDir": zerodev_config(config, ratio=None),
    }
    table = Table(f"Figure 24: server workloads ({n_cores}-core socket)")
    paper = {"SPECWeb-S": 0.986}
    server_accesses = max(accesses_per_core() // 2, 1000)
    work = [("SERVER", profile.name,
             make_server_workload(profile, config, server_accesses,
                                  seed=23))
            for profile in apps_of("SERVER")]
    speedups = compare_suites(config, configs, work)
    results = {label: speedups[label]["SERVER"] for label in configs}
    for app, s in results["NoDir"].items():
        table.add(f"{app} NoDir", s, paper=paper.get(app))
    for label in configs:
        table.add(f"{label} GEOMEAN",
                  geomean(list(results[label].values())), paper=0.99,
                  note="paper: within 1% avg; max slowdown 1.4%")
    return table, results


# ----------------------------------------------------------------------
# Figure 25: EPD and inclusive LLC designs
# ----------------------------------------------------------------------
@_instrumented
def fig25_epd_inclusive() -> Tuple[Table, dict]:
    base_config = default_config()
    epd = base_config.with_(llc_design=LLCDesign.EPD)
    inclusive = base_config.with_(llc_design=LLCDesign.INCLUSIVE)
    configs = {
        "BaseEPD-1x": epd,
        "BaseEPD-1/8x": epd.with_(directory=DirectoryConfig(ratio=0.125)),
        "ZDevEPD-NoDir": zerodev_config(epd, ratio=None),
        "ZDevEPD-1/2x": zerodev_config(epd, ratio=0.5),
        "ZDevEPD-1x": zerodev_config(epd, ratio=1.0),
        "BaseIncl-1x": inclusive,
        "ZDevIncl-NoDir": zerodev_config(inclusive, ratio=None),
    }
    suites = list(MT_SUITES) + ["CPU2017"]
    work = suite_work(suites, base_config)
    results = compare_suites(base_config, configs, work)
    table = Table("Figure 25: EPD and inclusive LLCs (normalized to "
                  "non-inclusive 1x baseline)")
    for suite in suites:
        for label in configs:
            table.add(f"{suite} {label}",
                      geomean(list(results[label][suite].values())))
    # Forced-invalidation elimination in the inclusive design, on the
    # first PARSEC application (the first entry of ``work``).
    [(base_run, zdev_run)] = compare(
        inclusive, {"ZDevIncl-NoDir": configs["ZDevIncl-NoDir"]},
        work[:1])["ZDevIncl-NoDir"]
    base_forced = (base_run.stats.inclusion_invalidations
                   + base_run.stats.dev_invalidations)
    zdev_forced = (zdev_run.stats.inclusion_invalidations
                   + zdev_run.stats.dev_invalidations)
    eliminated = 1.0 - zdev_forced / base_forced if base_forced else 1.0
    table.add("forced invalidations eliminated (inclusive)",
              eliminated, paper=0.95,
              note="paper: ZeroDEV eliminates 95%; the rest is inclusion")
    results["forced_eliminated"] = eliminated
    return table, results


# ----------------------------------------------------------------------
# Figures 26 and 27: comparisons with MgD and SecDir
# ----------------------------------------------------------------------
@_instrumented
def fig26_mgd() -> Tuple[Table, dict]:
    base_config = default_config()
    configs = {
        "MgD-1/8x": base_config.with_(
            protocol=Protocol.MGD, directory=DirectoryConfig(ratio=0.125)),
        "MgD-1/16x": base_config.with_(
            protocol=Protocol.MGD, directory=DirectoryConfig(ratio=1/16)),
        "MgD-1/32x": base_config.with_(
            protocol=Protocol.MGD, directory=DirectoryConfig(ratio=1/32)),
        "Base-1/32x": base_config.with_(
            directory=DirectoryConfig(ratio=1/32)),
        "ZDev-1/8x": zerodev_config(base_config, ratio=0.125),
        "ZDev-NoDir": zerodev_config(base_config, ratio=None),
    }
    suites = list(MT_SUITES) + ["CPU2017"]
    results = compare_suites(base_config, configs,
                             suite_work(suites, base_config))
    table = Table("Figure 26: Multi-grain Directory comparison "
                  "(normalized to 1x baseline)")
    for suite in suites:
        for label in configs:
            table.add(f"{suite} {label}",
                      geomean(list(results[label][suite].values())),
                      note="paper: MgD declines with size; ZeroDEV flat")
    return table, results


@_instrumented
def fig27_secdir() -> Tuple[Table, dict]:
    base_config = default_config()
    configs = {
        "SecDir-1x": base_config.with_(protocol=Protocol.SECDIR),
        "Base-1/8x": base_config.with_(
            directory=DirectoryConfig(ratio=0.125)),
        "SecDir-1/8x": base_config.with_(
            protocol=Protocol.SECDIR,
            directory=DirectoryConfig(ratio=0.125)),
        "ZDev-1x": zerodev_config(base_config, ratio=1.0),
        "ZDev-1/8x": zerodev_config(base_config, ratio=0.125),
        "ZDev-NoDir": zerodev_config(base_config, ratio=None),
    }
    paper_min = {   # minimum speedups atop the Figure 27 bars
        ("PARSEC", "SecDir-1x"): 0.98, ("PARSEC", "SecDir-1/8x"): 0.82,
        ("PARSEC", "ZDev-NoDir"): 0.94,
        ("SPLASH2X", "SecDir-1x"): 0.99,
        ("SPLASH2X", "SecDir-1/8x"): 0.86,
        ("SPLASH2X", "ZDev-NoDir"): 0.96,
        ("SPECOMP", "SecDir-1x"): 0.97,
        ("SPECOMP", "SecDir-1/8x"): 0.95,
        ("SPECOMP", "ZDev-NoDir"): 0.98,
        ("FFTW", "SecDir-1x"): 0.93, ("FFTW", "SecDir-1/8x"): 0.69,
        ("FFTW", "ZDev-NoDir"): 0.98,
        ("CPU2017", "SecDir-1x"): 0.99,
        ("CPU2017", "SecDir-1/8x"): 0.85,
        ("CPU2017", "ZDev-NoDir"): 0.98,
    }
    suites = list(MT_SUITES) + ["CPU2017"]
    results = compare_suites(base_config, configs,
                             suite_work(suites, base_config))
    table = Table("Figure 27: SecDir comparison (normalized to 1x "
                  "baseline)")
    for suite in suites:
        for label in configs:
            values = list(results[label][suite].values())
            table.add(f"{suite} {label} avg", geomean(values))
            table.add(f"{suite} {label} min", min(values),
                      paper=paper_min.get((suite, label)))
    return table, results


# ----------------------------------------------------------------------
# Contender study: DLS and hybrid update/invalidate
# ----------------------------------------------------------------------
@_instrumented
def fig_contenders() -> Tuple[Table, dict]:
    """Contender protocols versus ZeroDEV.

    DLS (arXiv:1206.4753) removes the directory by resolving coherence
    at an inclusive shared LLC -- zero DEVs by construction, but every
    LLC conflict eviction back-invalidates the sharers (inclusion
    victims).  The hybrid update/invalidate protocol (arXiv:1502.00101)
    keeps the sparse directory and converts S-state write hits into
    update pushes -- upgrades (and their invalidation storms) disappear,
    but every shared write pays a data fan-out.  Both fix *a* symptom of
    directory pressure; neither removes the directory-capacity conflict
    itself the way ZeroDEV does, which is the gap this figure measures.
    """
    base_config = default_config()
    # At the default geometry the LLC dwarfs the private caches and
    # inclusion costs nothing; the quarter-size LLC (= aggregate L2
    # capacity) is where DLS's forced invalidations have to show.
    quarter_llc = CacheGeometry(base_config.llc.size_bytes // 4,
                                base_config.llc.ways)
    dls = base_config.with_(
        protocol=Protocol.DLS,
        directory=DirectoryConfig(ratio=None),
        llc_design=LLCDesign.INCLUSIVE)
    configs = {
        "DLS": dls,
        "DLS-1/4LLC": dls.with_(llc=quarter_llc),
        "Hybrid-1x": base_config.with_(protocol=Protocol.HYBRID),
        "Hybrid-1/32x": base_config.with_(
            protocol=Protocol.HYBRID,
            directory=DirectoryConfig(ratio=1 / 32)),
        "Base-1/32x": base_config.with_(
            directory=DirectoryConfig(ratio=1 / 32)),
        "ZDev-NoDir": zerodev_config(base_config, ratio=None),
        "ZDev-1/4LLC": zerodev_config(base_config, ratio=None,
                                      llc=quarter_llc),
    }
    suites = list(MT_SUITES) + ["CPU2017"]
    results = compare_suites(base_config, configs,
                             suite_work(suites, base_config))
    table = Table("Contender study: DLS and hybrid update/invalidate "
                  "(normalized to 1x baseline)")
    for suite in suites:
        for label in configs:
            values = list(results[label][suite].values())
            table.add(f"{suite} {label} avg", geomean(values))
            table.add(f"{suite} {label} min", min(values))
    agg = results["_aggregates"]
    table.add("DLS DEV invalidations", agg["DLS"]["dev_invalidations"],
              paper=0.0, note="zero by construction (no directory)")
    table.add("DLS inclusion invalidations",
              agg["DLS"]["inclusion_invalidations"],
              note="the DLS loss mechanism: conflict victims kill sharers")
    table.add("DLS-1/4LLC inclusion invalidations",
              agg["DLS-1/4LLC"]["inclusion_invalidations"],
              note="under LLC pressure the storms multiply")
    table.add("Hybrid-1x update pushes",
              agg["Hybrid-1x"]["update_pushes"],
              note="S-state write hits served by pushing, not upgrading")
    table.add("Hybrid-1x updates sent", agg["Hybrid-1x"]["updates_sent"],
              note="per-sharer UPDATE data messages (the fan-out cost)")
    table.add("Hybrid-1/32x DEV invalidations",
              agg["Hybrid-1/32x"]["dev_invalidations"],
              note="updates do not shield the undersized directory")
    return table, results


# ----------------------------------------------------------------------
# Section V extras: energy and multi-socket
# ----------------------------------------------------------------------
@_instrumented
def energy_comparison() -> Tuple[Table, dict]:
    """Section V 'Energy Expense': directory+LLC energy of no-directory
    ZeroDEV versus the 1x baseline (paper: ~9% saving)."""
    base_config = default_config()
    znodir = zerodev_config(base_config, ratio=None)
    table = Table("Energy: directory+LLC energy, ZeroDEV-NoDir vs "
                  "baseline")
    work = suite_work(list(MT_SUITES) + ["CPU2017"], base_config)
    ratios = []
    for base, zdev in compare(base_config, {"NoDir": znodir},
                              work)["NoDir"]:
        base_energy = estimate_energy(base_config, base.stats)
        zdev_energy = estimate_energy(znodir, zdev.stats)
        ratios.append(zdev_energy["total_j"] / base_energy["total_j"])
    saving = 1.0 - sum(ratios) / len(ratios)
    table.add("average energy saving", saving, paper=0.09,
              note="paper: ~9% of directory+LLC energy")
    return table, {"saving": saving, "ratios": ratios}


@_instrumented
def multisocket_comparison(n_sockets: int = 4) -> Tuple[Table, dict]:
    """Section V 'Multi-socket Evaluation': four sockets, ZeroDEV with no
    intra-socket directory within 1.6% of the 1x baseline.

    The results also carry the Section III-D traffic of the ZeroDEV
    runs, summed over their sockets: ``wb_de_messages``,
    ``get_de_messages`` and ``denf_nacks``."""
    from repro.workloads.synthetic import generate

    base_config = default_config()
    base = base_config.with_(n_sockets=n_sockets)
    znodir = zerodev_config(base_config, ratio=None, n_sockets=n_sockets)
    total_cores = n_sockets * base_config.n_cores
    table = Table(f"Multi-socket ({n_sockets} sockets x "
                  f"{base_config.n_cores} cores)")
    n = max(accesses_per_core() // 2, 1000)
    work = [(suite, profile.name,
             Workload(profile.name,
                      generate(profile, base_config, n, seed=29,
                               cores=list(range(total_cores)))))
            for suite in ("PARSEC", "SPLASH2X")
            for profile in apps_of(suite)[:3]]
    speedups = []
    flows = dict.fromkeys(
        ("wb_de_messages", "get_de_messages", "denf_nacks"), 0)
    for (_, app, _), (base_run, zdev_run) in zip(
            work, compare(base, {"NoDir": znodir}, work)["NoDir"]):
        s = base_run.cycles / zdev_run.cycles
        speedups.append(s)
        table.add(app, s)
        assert sum(st.dev_invalidations for st in zdev_run.stats) == 0
        for field in flows:
            flows[field] += sum(getattr(st, field) for st in zdev_run.stats)
    table.add("GEOMEAN", geomean(speedups), paper=0.984,
              note="paper: within 1.6% of the 1x baseline")
    return table, {"speedups": speedups, **flows}
