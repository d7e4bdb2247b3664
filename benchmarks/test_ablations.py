"""Ablation benches for the design choices DESIGN.md calls out.

These go beyond the paper's figures: they quantify the claims the paper
makes in prose -- the replacement-disabled sparse directory is the better
ZeroDEV variant (Section III-C4), the E-state eviction-notice bits are a
negligible traffic overhead (Section III-C2), and the two socket-level
directory backing solutions (Section III-D5) trade DRAM overhead for
lookup cost without changing coherence behaviour.
"""

from repro.common.config import DirectoryConfig
from repro.harness import experiments
from repro.harness.parallel import run_live
from repro.harness.reporting import Table, geomean
from repro.common.messages import MessageType, message_bytes
from repro.multisocket import MultiSocketSystem
from repro.workloads.synthetic import generate
from repro.workloads.trace import Workload

from benchmarks.conftest import run_experiment


@experiments._instrumented                  # noqa: SLF001
def ablation_replacement_disabled():
    """Section III-C4: replacement-disabled vs replacement-enabled
    sparse directory under ZeroDEV at 1/8x size."""
    base_config = experiments.default_config()
    disabled = experiments.zerodev_config(base_config, ratio=0.125)
    enabled = disabled.with_(directory=DirectoryConfig(
        ratio=0.125, zerodev_replacement_enabled=True))
    table = Table("Ablation: replacement-disabled vs enabled sparse "
                  "directory (ZeroDEV 1/8x)")
    pairs = experiments.compare(
        enabled, {"disabled": disabled},
        experiments.suite_work(("PARSEC", "SPLASH2X"),
                               base_config))["disabled"]
    speedups = [run_enabled.cycles / run_disabled.cycles
                for run_enabled, run_disabled in pairs]
    disturbances = {
        "disabled": sum(run.stats.dir_evictions for _, run in pairs),
        "enabled": sum(run.stats.dir_evictions for run, _ in pairs)}
    table.add("disabled speedup over enabled", geomean(speedups),
              note="paper: disabling is strictly better (and simpler)")
    table.add("directory evictions (disabled)",
              disturbances["disabled"], paper=0.0)
    table.add("directory evictions (enabled)", disturbances["enabled"])
    return table, {"speedups": speedups, "disturbances": disturbances}


@experiments._instrumented                  # noqa: SLF001
def ablation_notice_bits_overhead():
    """Section III-C2: the 3+log2(N) extra bits on E-state eviction
    notices introduce negligible interconnect traffic."""
    base_config = experiments.default_config()
    zdev = experiments.zerodev_config(base_config, ratio=None)
    table = Table("Ablation: E-state notice reconstruction-bit overhead")
    work = experiments.suite_work(("PARSEC", "CPU2017"), base_config)
    fractions = []
    for run in experiments.run_configs([(zdev, workload)
                                        for _, _, workload in work]):
        notices = run.stats.messages.get(MessageType.EVICT_CLEAN_BITS, 0)
        extra_bytes = notices * (
            message_bytes(MessageType.EVICT_CLEAN_BITS)
            - message_bytes(MessageType.EVICT_CLEAN))
        fractions.append(extra_bytes / max(run.stats.traffic_bytes, 1))
    table.add("extra traffic fraction", max(fractions), paper=0.0,
              note="paper: negligible")
    return table, {"fractions": fractions}


@experiments._instrumented                  # noqa: SLF001
def ablation_socket_directory_solutions():
    """Section III-D5: solution 1 (memory-backed directory) vs solution 2
    (DirEvict bit + in-block partition) on a 2-socket system."""
    base_config = experiments.default_config()
    profile = experiments.apps_of("SPLASH2X")[0]
    n = max(experiments.accesses_per_core() // 2, 1000)
    traces = generate(profile, base_config, n, seed=31,
                      cores=list(range(2 * base_config.n_cores)))
    workload = Workload(profile.name, traces)
    table = Table("Ablation: socket-level directory backing solutions")
    cycles = {}
    for solution in (1, 2):
        system = MultiSocketSystem(base_config, n_sockets=2,
                                   dir_cache_blocks=256,
                                   dir_solution=solution)
        run_live(system, workload)
        cycles[solution] = system.total_cycles()
        table.add(f"solution {solution} cycles", cycles[solution])
    table.add("solution 2 / solution 1", cycles[2] / cycles[1],
              note="paper: sol. 2 trades constant DRAM overhead for "
                   "bit-cache lookups; both DEV-free")
    return table, {"cycles": cycles}


def test_ablation_replacement_disabled(benchmark):
    table, results = run_experiment(benchmark,
                                    ablation_replacement_disabled,
                                    "ablation_replacement")
    assert results["disturbances"]["disabled"] == 0
    # Disabled performs at least as well as enabled (within noise).
    assert geomean(results["speedups"]) < 1.03


def test_ablation_notice_bits(benchmark):
    table, results = run_experiment(benchmark,
                                    ablation_notice_bits_overhead,
                                    "ablation_notice_bits")
    assert max(results["fractions"]) < 0.01     # truly negligible


def test_ablation_socket_dir_solutions(benchmark):
    table, results = run_experiment(
        benchmark, ablation_socket_directory_solutions,
        "ablation_socket_dir")
    ratio = results["cycles"][2] / results["cycles"][1]
    # Solution 2 is never slower: its 8 KB bit cache covers far more
    # blocks than a small entry cache, so most misses avoid the memory
    # read that solution 1 always pays.
    assert 0.7 < ratio < 1.05
