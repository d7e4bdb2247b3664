#!/usr/bin/env python
"""Four-socket demo: directory entries housed in home memory.

Runs a 32-thread SPLASH2X-like workload across 4 sockets x 8 cores under
baseline and ZeroDEV (no intra-socket directory, deliberately cramped
LLCs) and prints the Section III-D machinery at work: WB_DE writebacks,
corrupted home blocks, GET_DE reads, DENF_NACK re-forwards, and restores
-- all without a single invalidation reaching a core cache because of
directory eviction.

Run:  python examples/multisocket_demo.py
"""

from repro import DirectoryConfig, LLCReplacement, Protocol, scaled_socket
from repro.common.config import CacheGeometry
from repro.harness.runner import run_workload
from repro.multisocket import MultiSocketSystem
from repro.workloads.synthetic import generate
from repro.workloads.trace import Workload
from repro.workloads.suites import find_profile

N_SOCKETS = 4
ACCESSES = 6_000


def main() -> None:
    config = scaled_socket().with_(
        llc=CacheGeometry(128 * 1024, 4))     # cramped: forces WB_DE
    zconfig = config.with_(
        protocol=Protocol.ZERODEV,
        directory=DirectoryConfig(ratio=None),
        llc_replacement=LLCReplacement.DATA_LRU)

    app = find_profile("water_nsquared")
    total_cores = N_SOCKETS * config.n_cores
    traces = generate(app, config, ACCESSES, seed=13,
                      cores=list(range(total_cores)))
    workload = Workload(app.name, traces)

    print(f"{app.name}: {total_cores} threads over {N_SOCKETS} sockets, "
          f"{workload.total_accesses:,} accesses")

    base = MultiSocketSystem(config, n_sockets=N_SOCKETS)
    run_workload(base, workload)
    zdev = MultiSocketSystem(zconfig, n_sockets=N_SOCKETS)
    run_workload(zdev, workload)
    zdev.check_invariants()

    def total(system, field):
        return sum(getattr(s, field) for s in system.stats)

    print()
    print(f"{'':34}{'baseline 1x':>13}{'ZeroDEV NoDir':>15}")
    for label, field in (
        ("cycles (slowest socket)", None),
        ("DEV invalidations", "dev_invalidations"),
        ("entries spilled into LLCs", "entries_spilled"),
        ("entries fused into LLCs", "entries_fused"),
        ("WB_DE (entries written to memory)", "wb_de_messages"),
        ("GET_DE (housed-entry updates)", "get_de_messages"),
        ("corrupted-block demand reads", "corrupted_block_reads"),
        ("corrupted blocks restored", "corrupted_blocks_restored"),
    ):
        if field is None:
            b, z = base.total_cycles(), zdev.total_cycles()
        else:
            b, z = total(base, field), total(zdev, field)
        print(f"{label:34}{b:>13,}{z:>15,}")
    print(f"{'DENF_NACK re-forwards':34}{base.denf_nacks:>13,}"
          f"{zdev.denf_nacks:>15,}")
    print()
    speedup = base.total_cycles() / zdev.total_cycles()
    print(f"ZeroDEV speedup vs baseline: {speedup:.3f} "
          f"(paper: within 1.6% on four sockets)")
    assert total(zdev, "dev_invalidations") == 0


if __name__ == "__main__":
    main()
