"""Cross-product scenarios: policies x LLC designs x directory sizes.

These complement the targeted tests with exhaustive small-matrix checks
that every legal configuration runs a mixed workload invariant-clean,
that the key per-configuration facts hold (DEV freedom, fusion rules,
inclusive never housing entries), and that each configuration's
statistics match their pinned digest.
"""

import hashlib
import json
from collections import Counter

import pytest

from repro.caches.block import LineKind, MESI
from repro.common.addressing import BLOCK_SHIFT
from repro.common.config import (CacheGeometry, DirCachingPolicy,
                                 DirectoryConfig, LLCDesign, LLCReplacement,
                                 Protocol)
from repro.common.messages import MessageType
from repro.common.stats import SystemStats
from repro.harness.system_builder import build_system
from repro.obs import EventBus, EventKind, RingBufferSink, attach

from tests.conftest import OPS, drive, tiny_config, zerodev_config

MIXED_SCRIPT = [(c, "RWI"[(k + c) % 3], (5 * k + 11 * c) % 120)
                for k in range(150) for c in range(4)]

#: An eviction-heavy second phase.  Each core of MIXED_SCRIPT touches
#: only 24 blocks, which fit its L2, so that script sends no eviction
#: notice.  Here odd cores sweep 300 blocks and even cores 200, far past
#: a 32-block L2 and the 128-block LLC: notices free entries, the LLC
#: evicts data, spilled and fused frames, and ZeroDEV entries go to
#: home memory (WB_DE) and are read back by notices (GET_DE).
PRESSURE_SCRIPT = [(c, "RWRI"[(k + 2 * c) % 4],
                    (7 * k + 13 * c) % 300 if c % 2 else (3 * k) % 200)
                   for k in range(300) for c in range(4)]

#: A short notice phase for the baseline-family runs.  Their small
#: directories invalidate every private copy before its L2 evicts it
#: under the two scripts above, so those send no notice.  Here core 0
#: stores to block 0 and reads five more blocks of its L2 set 0, and
#: core 1 reads six blocks of its set 1: both 4-way sets evict (an M
#: writeback and clean notices).  Core 2 then reads five blocks of one
#: LLC set, so the fifth fill evicts block 2 from the LLC while core 2
#: still holds it: an inclusive LLC back-invalidates a live copy.
NOTICE_SCRIPT = ([(0, "W", 0)] + [(0, "R", b) for b in range(8, 41, 8)]
                 + [(1, "R", b) for b in range(1, 42, 8)]
                 + [(2, "R", b) for b in range(2, 131, 32)])


#: The ``SystemStats`` fields a digest covers: every field the stats
#: carried when the pins were taken, in their order then (as
#: perfbench's ``STATS_FIELDS``).  A field added later does not enter
#: the digest; a field removed or changed in value fails it.
STATS_FIELDS = (
    "n_cores", "cycles", "accesses", "l1_hits", "l2_hits",
    "core_cache_misses", "upgrades", "llc_data_hits", "llc_data_misses",
    "llc_read_misses", "llc_evictions", "llc_writebacks_to_dram",
    "forwarded_requests", "invalidations_sent", "dir_allocations",
    "dir_evictions", "dev_invalidations", "dev_events",
    "inclusion_invalidations", "region_demotions", "update_pushes",
    "updates_sent", "entries_spilled", "entries_fused", "spill_to_fuse",
    "fuse_to_spill", "entry_llc_evictions", "wb_de_messages",
    "get_de_messages", "denf_nacks", "corrupted_block_reads",
    "corrupted_blocks_restored", "extra_data_array_reads",
    "fused_read_forwards", "dram_reads", "dram_writes",
    "dram_writes_entry_eviction", "dram_row_hits", "dram_row_misses",
    "traffic_bytes", "messages", "read_latency_buckets",
    "write_latency_buckets",
)


def stats_digest(stats: SystemStats) -> str:
    """Digest of the :data:`STATS_FIELDS` of ``stats``, with the message
    counts sorted by name (as perfbench's ``stats_digest`` does)."""
    payload = []
    for name in STATS_FIELDS:
        value = getattr(stats, name)
        if isinstance(value, dict):
            value = sorted([kind.name, count] for kind, count in value.items())
        payload.append([name, value])
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()[:16]


def drive_pinned(system, key, notice_phase: bool = False) -> None:
    """Run both scripts (then ``NOTICE_SCRIPT``, asserting that it sent
    clean eviction notices and, in an inclusive LLC, back-invalidated a
    live copy), then compare the statistics with their pin."""
    drive(system, MIXED_SCRIPT)
    drive(system, PRESSURE_SCRIPT)
    stats = system.stats
    if notice_phase:
        clean = stats.messages.get(MessageType.EVICT_CLEAN, 0)
        inclusion = stats.inclusion_invalidations
        drive(system, NOTICE_SCRIPT)
        assert stats.messages.get(MessageType.EVICT_CLEAN, 0) > clean, key
        if system.config.llc_design is LLCDesign.INCLUSIVE:
            assert stats.inclusion_invalidations > inclusion, key
    assert stats_digest(stats) == STATS_PINS[key], key


def drive_sockets(system, script) -> None:
    """Issue every step of ``script`` on each socket in turn (same
    core, same block), so every block the script touches is shared
    across sockets; then check the whole system."""
    for core, op, block in script:
        address = block << BLOCK_SHIFT
        for socket in system.sockets:
            socket.access(core, OPS[op], address)
    system.check_invariants()


def traced(system) -> RingBufferSink:
    """Attach a bus to ``system`` with one ring that keeps every event."""
    ring = RingBufferSink(capacity=1 << 20)
    bus = EventBus()
    bus.subscribe(ring)
    attach(system, bus)
    return ring


def check_two_sockets_pinned(policy: DirCachingPolicy) -> None:
    """Drive both scripts on each socket of a 2-socket inclusive
    ZeroDEV system, counting entry-frame evictions and their DRAM
    write-backs by frame kind, and compare each socket's statistics
    with its pin.  This is the one shape where a fused-frame eviction
    writes its dirty block home through the socket layer (SpillAll
    never fuses); a spilled frame is never evicted."""
    system = build_system(zerodev_config(
        dir_caching=policy, llc_design=LLCDesign.INCLUSIVE, n_sockets=2))
    evicted, written_back = Counter(), Counter()
    for socket in system.sockets:
        def counting(bank, victim, socket=socket,
                     evict=socket._entry_frame_evicted):
            before = socket.stats.llc_writebacks_to_dram
            evict(bank, victim)
            evicted[victim.kind] += 1
            written_back[victim.kind] += (
                socket.stats.llc_writebacks_to_dram - before)
        socket._entry_frame_evicted = counting
    drive_sockets(system, MIXED_SCRIPT)
    drive_sockets(system, PRESSURE_SCRIPT)
    assert evicted[LineKind.SPILLED] == 0
    if policy is not DirCachingPolicy.SPILL_ALL:
        assert written_back[LineKind.FUSED] > 0
    digests = tuple(stats_digest(stats) for stats in system.stats)
    assert digests == STATS_PINS[("2-socket", policy.name)]


#: Statistics digests after MIXED_SCRIPT + PRESSURE_SCRIPT (and, for the
#: baseline, SecDir/MgD, DLS and hybrid, NOTICE_SCRIPT), keyed by the
#: parametrization: ZeroDEV (policy, LLC design, directory ratio), the
#: cramped ZeroDEV LLC by replacement, the baseline (LLC design, ratio),
#: SecDir/MgD/DLS by protocol, hybrid (LLC design, ratio), and the
#: 2-socket inclusive ZeroDEV system by policy (one digest per socket,
#: both scripts issued on each socket by ``drive_sockets``).  A change
#: that moves one changed what the protocol does, not only how fast.
#: The hybrid and DLS run in the baseline design rows, the 2-socket
#: system in the inclusive no-directory ZeroDEV rows.
STATS_PINS = {
    ("SPILL_ALL", "NON_INCLUSIVE", None): "895d8bb44aae231f",
    ("SPILL_ALL", "NON_INCLUSIVE", 0.125): "249f116eb53d1369",
    ("SPILL_ALL", "EPD", None): "83079e881c63256e",
    ("SPILL_ALL", "EPD", 0.125): "bcf4fa41c3cded4b",
    ("SPILL_ALL", "INCLUSIVE", None): "e2ce52fc57f56bc9",
    ("SPILL_ALL", "INCLUSIVE", 0.125): "683a35523b177ea7",
    ("FPSS", "NON_INCLUSIVE", None): "8f9020c44c543707",
    ("FPSS", "NON_INCLUSIVE", 0.125): "017da1c43fd2eb1c",
    ("FPSS", "EPD", None): "38d637e4af5ba2f4",
    ("FPSS", "EPD", 0.125): "86b4c034c9e11357",
    ("FPSS", "INCLUSIVE", None): "78d04a0083658830",
    ("FPSS", "INCLUSIVE", 0.125): "f95861350e778ecc",
    ("FUSE_ALL", "NON_INCLUSIVE", None): "fc511bc0d33bc091",
    ("FUSE_ALL", "NON_INCLUSIVE", 0.125): "976c434c21fab3f1",
    ("FUSE_ALL", "EPD", None): "38d637e4af5ba2f4",
    ("FUSE_ALL", "EPD", 0.125): "86b4c034c9e11357",
    ("FUSE_ALL", "INCLUSIVE", None): "8eaea41bc6a5648d",
    ("FUSE_ALL", "INCLUSIVE", 0.125): "404f058d9cd330b2",
    ("cramped", "SP_LRU"): "35eebf1dee55f8a2",
    ("cramped", "DATA_LRU"): "8bcc0681a347b943",
    ("baseline", "NON_INCLUSIVE", 1.0): "74f5e8ccfdac62fc",
    ("baseline", "NON_INCLUSIVE", 0.125): "08691c3b9b6532a2",
    ("baseline", "EPD", 1.0): "bba62a0477001405",
    ("baseline", "EPD", 0.125): "471f343a25c6d355",
    ("baseline", "INCLUSIVE", 1.0): "511bb0a633c5a5eb",
    ("baseline", "INCLUSIVE", 0.125): "1f173f6ba0ad4fd4",
    "SECDIR": "2af294b646637d58",
    "MGD": "6d0378ec180e1dc6",
    "DLS": "511bb0a633c5a5eb",
    ("HYBRID", "NON_INCLUSIVE", 1.0): "d8d0cba35ae9d1ef",
    ("HYBRID", "NON_INCLUSIVE", 0.25): "856bb68d9ce4a634",
    ("HYBRID", "EPD", 1.0): "02c056a08c271525",
    ("HYBRID", "EPD", 0.25): "9d2f1a4870e9369a",
    ("HYBRID", "INCLUSIVE", 1.0): "75f4ef2afcb6b7ea",
    ("HYBRID", "INCLUSIVE", 0.25): "2ac420acdc88e5a8",
    ("2-socket", "SPILL_ALL"): ("bf08bc98b26aea52",
                                "91664c09d54f94ba"),
    ("2-socket", "FPSS"): ("57a3a1a0a4b92da2", "96e1eee6887988e4"),
    ("2-socket", "FUSE_ALL"): ("ecc68998f6ab73b2",
                               "4079aa1a799609a3"),
}

#: The hybrid's directory ratio in each baseline row: on these scripts
#: a hybrid at the baseline's 1/8x directory has exactly the baseline's
#: statistics, so the small row runs it at 1/4x.
HYBRID_RATIO = {1.0: 1.0, 0.125: 0.25}


class TestZeroDevMatrix:
    @pytest.mark.parametrize("policy", list(DirCachingPolicy))
    @pytest.mark.parametrize("design", list(LLCDesign))
    @pytest.mark.parametrize("ratio", [None, 0.125])
    def test_runs_dev_free(self, policy, design, ratio):
        system = build_system(zerodev_config(
            dir_caching=policy, llc_design=design,
            directory=DirectoryConfig(ratio=ratio)))
        ring = traced(system) if design is LLCDesign.INCLUSIVE else None
        drive_pinned(system, (policy.name, design.name, ratio))
        assert system.stats.dev_invalidations == 0
        if design is LLCDesign.INCLUSIVE:
            assert system.stats.wb_de_messages == 0
            # Section III-F: the LLC evicts a fused frame as its block,
            # and its private copies die as inclusion victims.  Their
            # INV and INV_ACK go through the mesh like every other
            # on-chip message, so the traced run emits one MSG event
            # per recorded message.
            assert ring.total_seen < ring.capacity      # every event kept
            sent = Counter(event.cause for event in ring.events
                           if event.kind is EventKind.MSG)
            messages = system.stats.messages
            assert messages[MessageType.INV] > 0
            assert sent == {kind.name: count
                            for kind, count in messages.items()}
            if ratio is None:
                check_two_sockets_pinned(policy)
        if design is LLCDesign.EPD:
            assert system.stats.entries_fused == 0

    @pytest.mark.parametrize("replacement",
                             [LLCReplacement.SP_LRU,
                              LLCReplacement.DATA_LRU])
    def test_cramped_llc_all_replacements(self, replacement):
        system = build_system(zerodev_config(
            llc=CacheGeometry(2048, 2), llc_replacement=replacement))
        drive_pinned(system, ("cramped", replacement.name))
        assert system.stats.dev_invalidations == 0


class TestBaselineMatrix:
    @pytest.mark.parametrize("design", list(LLCDesign))
    @pytest.mark.parametrize("ratio", [1.0, 0.125])
    def test_baseline_designs(self, design, ratio):
        system = build_system(tiny_config(
            llc_design=design, directory=DirectoryConfig(ratio=ratio)))
        drive_pinned(system, ("baseline", design.name, ratio),
                     notice_phase=True)
        hybrid_ratio = HYBRID_RATIO[ratio]
        system = build_system(tiny_config(
            protocol=Protocol.HYBRID, llc_design=design,
            directory=DirectoryConfig(ratio=hybrid_ratio)))
        drive_pinned(system, ("HYBRID", design.name, hybrid_ratio),
                     notice_phase=True)
        if design is LLCDesign.INCLUSIVE and ratio == 1.0:
            # The only DLS shape: no directory, an inclusive LLC.  On
            # these scripts its statistics equal this row's baseline,
            # whose 1x directory makes no DEV: inclusion victims are
            # either design's only loss.
            system = build_system(tiny_config(
                protocol=Protocol.DLS,
                directory=DirectoryConfig(ratio=None),
                llc_design=LLCDesign.INCLUSIVE))
            drive_pinned(system, "DLS", notice_phase=True)

    @pytest.mark.parametrize("protocol",
                             [Protocol.SECDIR, Protocol.MGD])
    def test_comparison_baselines_with_small_directory(self, protocol):
        system = build_system(tiny_config(
            protocol=protocol, directory=DirectoryConfig(ratio=0.25)))
        drive_pinned(system, protocol.name, notice_phase=True)


class TestWriteReadInterleavings:
    """Fine-grained cross-core dataflow patterns on a single block."""

    def patterns(self):
        return [
            # producer/consumer ping-pong
            [(0, "W", 9), (1, "R", 9), (0, "W", 9), (1, "R", 9)],
            # rotating writer
            [(c, "W", 9) for c in range(4)] * 2,
            # broadcast then upgrade
            [(0, "W", 9), (1, "R", 9), (2, "R", 9), (3, "R", 9),
             (2, "W", 9)],
            # read-modify-write storm
            [(c, op, 9) for c in range(4) for op in ("R", "W")],
        ]

    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_single_block_dataflow(self, protocol):
        for pattern in self.patterns():
            if protocol is Protocol.ZERODEV:
                system = build_system(zerodev_config())
            elif protocol is Protocol.DLS:
                system = build_system(tiny_config(
                    protocol=protocol,
                    directory=DirectoryConfig(ratio=None),
                    llc_design=LLCDesign.INCLUSIVE))
            else:
                system = build_system(tiny_config(protocol=protocol))
            drive(system, pattern)   # shadow memory checks every read

    def test_false_sharing_neighbours(self, zerodev):
        script = [(c, "W", 16 + c) for c in range(4)] * 5 \
            + [(c, "R", 16 + (c + 1) % 4) for c in range(4)] * 5
        drive(zerodev, script)
        assert zerodev.stats.dev_invalidations == 0


class TestLatencyOrdering:
    """Latency relationships the timing model must preserve."""

    def test_l1_faster_than_l2_faster_than_uncore(self, baseline):
        miss = drive(baseline, [(0, "R", 33)])[0]
        l1 = drive(baseline, [(0, "R", 33)])[0]      # immediate re-read
        # Evict 33 from the 2-way L1D set (blocks 37, 41 share L1 set 1
        # but land in different L2 sets, so 33 stays in the L2).
        drive(baseline, [(0, "R", 37), (0, "R", 41)])
        l2 = drive(baseline, [(0, "R", 33)])[0]
        assert l1 < l2 < miss

    def test_three_hop_costs_more_than_llc_hit(self, baseline):
        drive(baseline, [(0, "W", 40)])            # owned by core 0
        forwarded = drive(baseline, [(1, "R", 40)])[0]
        drive(baseline, [(2, "I", 41)])            # S block in LLC
        llc_hit = drive(baseline, [(3, "I", 41)])[0]
        assert forwarded > llc_hit

    def test_dram_miss_costs_most(self, baseline):
        dram = drive(baseline, [(0, "R", 48)])[0]
        drive(baseline, [(1, "R", 48)])
        llc = drive(baseline, [(2, "R", 48)])[0]
        assert dram > llc

    def test_spillall_read_penalty_visible(self):
        spill = build_system(zerodev_config(
            dir_caching=DirCachingPolicy.SPILL_ALL))
        fpss = build_system(zerodev_config())
        for system in (spill, fpss):
            drive(system, [(0, "I", 7), (1, "I", 7)])
        lat_spill = drive(spill, [(2, "I", 7)])[0]
        lat_fpss = drive(fpss, [(2, "I", 7)])[0]
        # The extra data-array read is partially hidden by the MLP
        # model, but must remain visible on the critical path.
        delta = lat_spill - lat_fpss
        assert 0 < delta <= spill.config.latency.llc_data
