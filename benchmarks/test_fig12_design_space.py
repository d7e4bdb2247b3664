"""Figure 12: the design space of directory-entry caching, quantified.

The paper's Figure 12 is qualitative: SpillAll has the maximum LLC space
overhead and pays an extra data-array latency on shared reads; FPSS has
some space overhead and no critical-path cost; FuseAll has minimal space
overhead but lengthens shared reads by one hop. This bench measures all
three axes directly.
"""

from repro.common.config import DirCachingPolicy
from repro.harness import experiments
from repro.harness.reporting import Table

from benchmarks.conftest import run_experiment


@experiments._instrumented                  # noqa: SLF001
def fig12_design_space():
    base_config = experiments.default_config()
    policies = {
        "SpillAll": DirCachingPolicy.SPILL_ALL,
        "FPSS": DirCachingPolicy.FPSS,
        "FuseAll": DirCachingPolicy.FUSE_ALL,
    }
    table = Table("Figure 12: LLC space overhead vs read critical path")
    measured = {}
    work = experiments.suite_work(("PARSEC", "SPLASH2X"), base_config)
    for label, policy in policies.items():
        config = experiments.zerodev_config(base_config, policy=policy)
        batch = experiments.run_configs([(config, workload)
                                         for _, _, workload in work])
        spilled = sum(run.stats.entries_spilled for run in batch)
        fused = sum(run.stats.entries_fused for run in batch)
        penalties = sum(run.stats.extra_data_array_reads for run in batch)
        forwards = sum(run.stats.fused_read_forwards for run in batch)
        runs = len(batch)
        measured[label] = {
            "spill_frames": spilled / runs,
            "fused": fused / runs,
            "extra_array_reads": penalties / runs,
            "extra_hop_reads": forwards / runs,
        }
        table.add(f"{label} spill frames/run", spilled / runs,
                  note="LLC space overhead axis")
        table.add(f"{label} extra array reads/run", penalties / runs,
                  note="SpillAll critical-path axis")
        table.add(f"{label} 3-hop shared reads/run", forwards / runs,
                  note="FuseAll critical-path axis")
    return table, measured


def test_fig12_design_space(benchmark):
    table, measured = run_experiment(benchmark, fig12_design_space,
                                     "fig12")
    # Space overhead: SpillAll > FPSS > FuseAll (Figure 12's x-axis).
    assert measured["SpillAll"]["spill_frames"] \
        >= measured["FPSS"]["spill_frames"] \
        >= measured["FuseAll"]["spill_frames"]
    # Critical-path: only SpillAll pays data-array reads; only FuseAll
    # pays extra hops on shared reads.
    assert measured["SpillAll"]["extra_array_reads"] > 0
    assert measured["FPSS"]["extra_array_reads"] == 0
    assert measured["FPSS"]["extra_hop_reads"] == 0
    assert measured["FuseAll"]["extra_hop_reads"] > 0
