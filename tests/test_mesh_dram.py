"""Unit tests for the mesh interconnect and the DRAM model."""

import pytest

from repro.common.config import (DramConfig, LatencyConfig, MeshConfig)
from repro.common.errors import ConfigError
from repro.common.messages import MessageType, message_bytes
from repro.common.stats import SystemStats
from repro.dram.model import DramModel
from repro.interconnect.mesh import Mesh
from repro.obs.bus import EventBus
from repro.obs.events import EventKind
from repro.obs.sinks import RingBufferSink


def make_mesh(n_cores=8, n_banks=8, width=4, height=4):
    stats = SystemStats(n_cores)
    mesh = Mesh(MeshConfig(width, height), n_cores, n_banks,
                LatencyConfig(), stats)
    return mesh, stats


class TestMesh:
    def test_hops_are_manhattan(self):
        mesh, _ = make_mesh()
        # cores 0..7 fill rows 0-1, banks 0..7 fill rows 2-3 of a 4x4.
        assert mesh.core_to_core(0, 0) == 0
        assert mesh.core_to_core(0, 1) == 1
        assert mesh.core_to_core(0, 7) == 1 + 3   # (0,0) -> (3,1)
        assert mesh.core_to_bank(0, 0) == 2       # (0,0) -> (0,2)

    def test_send_returns_latency_and_records_traffic(self):
        mesh, stats = make_mesh()
        latency = mesh.send_core_to_bank(MessageType.GETS, 0, 0)
        assert latency == 2 * LatencyConfig().mesh_hop
        assert stats.messages[MessageType.GETS] == 1
        assert stats.traffic_bytes > 0

    def test_zero_hop_send_still_counts_traffic(self):
        mesh, stats = make_mesh()
        assert mesh.send_core_to_core(MessageType.INV_ACK, 2, 2) == 0
        assert stats.messages[MessageType.INV_ACK] == 1

    def test_symmetry(self):
        mesh, _ = make_mesh()
        for core in range(8):
            for bank in range(8):
                assert (mesh.core_to_bank(core, bank)
                        == mesh.hops(("bank", bank), ("core", core)))

    def test_rejects_overfull_mesh(self):
        with pytest.raises(ConfigError):
            make_mesh(n_cores=12, n_banks=8, width=4, height=4)


class TestLatencyTables:
    """The per-(core, bank) and per-(core, core) tables built at
    construction hold exactly ``hops * mesh_hop`` for every pair."""

    SHAPES = {
        "default-4x4": dict(n_cores=8, n_banks=8, width=4, height=4),
        "non-square-5x3": dict(n_cores=6, n_banks=8, width=5, height=3),
    }

    @pytest.mark.parametrize("shape", list(SHAPES))
    def test_tables_equal_hops_times_hop_latency(self, shape):
        dims = self.SHAPES[shape]
        mesh, _ = make_mesh(**dims)
        hop = LatencyConfig().mesh_hop
        n_cores, n_banks = dims["n_cores"], dims["n_banks"]
        assert len(mesh.core_bank_cycles) == n_cores
        assert len(mesh.core_core_cycles) == n_cores
        for core in range(n_cores):
            assert len(mesh.core_bank_cycles[core]) == n_banks
            for bank in range(n_banks):
                assert (mesh.core_bank_cycles[core][bank]
                        == mesh.hops(("core", core), ("bank", bank)) * hop)
            assert len(mesh.core_core_cycles[core]) == n_cores
            for other in range(n_cores):
                assert (mesh.core_core_cycles[core][other]
                        == mesh.hops(("core", core), ("core", other)) * hop)

    def test_tables_follow_the_configured_hop_latency(self):
        stats = SystemStats(2)
        mesh = Mesh(MeshConfig(2, 2), 2, 2, LatencyConfig(mesh_hop=5),
                    stats)
        assert mesh.core_bank_cycles == [[5, 10], [10, 5]]
        assert mesh.core_core_cycles == [[0, 5], [5, 0]]

    @pytest.mark.parametrize("send, args, table", [
        ("send_core_to_bank", (3, 6), lambda m: m.core_bank_cycles[3][6]),
        ("send_bank_to_core", (6, 3), lambda m: m.core_bank_cycles[3][6]),
        ("send_core_to_core", (1, 6), lambda m: m.core_core_cycles[1][6]),
    ])
    def test_each_send_records_one_message_and_one_event(self, send, args,
                                                         table):
        mesh, stats = make_mesh()
        bus = EventBus()
        ring = RingBufferSink()
        bus.subscribe(ring)
        mesh.obs = bus
        latency = getattr(mesh, send)(MessageType.WRITEBACK, *args)
        assert latency == table(mesh)
        assert stats.messages == {MessageType.WRITEBACK: 1}
        assert stats.traffic_bytes == message_bytes(MessageType.WRITEBACK)
        assert [(e.kind, e.cause) for e in ring.events] == [
            (EventKind.MSG, MessageType.WRITEBACK.name)]


class TestDram:
    def make(self, **kw):
        stats = SystemStats(1)
        return DramModel(DramConfig(**kw), stats), stats

    def test_row_miss_then_hit(self):
        dram, stats = self.make()
        config = DramConfig()
        first = dram.read(0)
        second = dram.read(2)    # same channel (even), same row
        assert first == config.row_miss_cycles
        assert second == config.row_hit_cycles
        assert stats.dram_row_misses == 1
        assert stats.dram_row_hits == 1

    def test_channel_interleaving(self):
        dram, stats = self.make()
        dram.read(0)
        dram.read(1)             # odd block -> other channel, own row
        assert stats.dram_row_misses == 2

    def test_write_counts_and_entry_tag(self):
        dram, stats = self.make()
        dram.write(0)
        dram.write(2, from_entry_eviction=True)
        assert stats.dram_writes == 2
        assert stats.dram_writes_entry_eviction == 1

    def test_reads_and_writes_share_row_buffer(self):
        dram, stats = self.make()
        dram.write(0)
        assert dram.read(2) == DramConfig().row_hit_cycles

    def test_far_block_misses_row(self):
        dram, stats = self.make()
        dram.read(0)
        dram.read(1 << 20)
        assert stats.dram_row_misses == 2
