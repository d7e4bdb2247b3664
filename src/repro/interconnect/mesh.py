"""2D mesh interconnect model.

Table I specifies a 2D mesh with 1-cycle routing delay and 1-cycle link
latency. We model latency as ``hops * mesh_hop`` cycles with hop counts
from Manhattan distance between node coordinates, and we account traffic in
*injected bytes* (the quantity normalized in Figures 2 and 3).

Placement: cores and LLC banks are interleaved over the mesh in row-major
order, cores first. For the default 8-core, 8-bank socket on a 4x4 mesh
this gives the familiar arrangement of two rows of cores flanking two rows
of banks.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.common.config import LatencyConfig, MeshConfig
from repro.common.errors import ConfigError
from repro.common.messages import MessageType
from repro.common.stats import SystemStats
from repro.obs.events import EventKind


class Mesh:
    """Hop-count and traffic accounting for one socket's mesh."""

    #: Observability seam (repro.obs): None = tracing disabled.
    obs = None

    def __init__(self, config: MeshConfig, n_cores: int, n_banks: int,
                 latency: LatencyConfig, stats: SystemStats) -> None:
        n_nodes = config.width * config.height
        if n_cores + n_banks > n_nodes:
            raise ConfigError(
                f"mesh {config.width}x{config.height} has {n_nodes} nodes, "
                f"cannot place {n_cores} cores + {n_banks} banks")
        self._latency = latency
        self._stats = stats
        self._coords: Dict[Tuple[str, int], Tuple[int, int]] = {}
        placement = ([("core", i) for i in range(n_cores)]
                     + [("bank", i) for i in range(n_banks)])
        for index, node in enumerate(placement):
            self._coords[node] = (index % config.width,
                                  index // config.width)
        # Message latencies between every (core, bank) and (core, core)
        # pair, built once: a send is then one table read.
        hop = latency.mesh_hop
        self.core_bank_cycles: List[List[int]] = [
            [self.core_to_bank(core, bank) * hop for bank in range(n_banks)]
            for core in range(n_cores)]
        self.core_core_cycles: List[List[int]] = [
            [self.core_to_core(src, dst) * hop for dst in range(n_cores)]
            for src in range(n_cores)]

    # ------------------------------------------------------------------
    def hops(self, src: Tuple[str, int], dst: Tuple[str, int]) -> int:
        """Manhattan hop count between two placed nodes."""
        sx, sy = self._coords[src]
        dx, dy = self._coords[dst]
        return abs(sx - dx) + abs(sy - dy)

    def core_to_bank(self, core: int, bank: int) -> int:
        return self.hops(("core", core), ("bank", bank))

    def core_to_core(self, src: int, dst: int) -> int:
        return self.hops(("core", src), ("core", dst))

    # ------------------------------------------------------------------
    def send(self, kind: MessageType, hops: int) -> int:
        """Send one message; returns its latency and accounts traffic."""
        self._stats.record_message(kind)
        if self.obs is not None:
            self.obs.emit(EventKind.MSG, cause=kind._name_)
        return hops * self._latency.mesh_hop

    # The directed sends below inline ``send``'s accounting (they carry
    # nearly every simulated message) and read the latency tables.
    def send_core_to_bank(self, kind: MessageType, core: int,
                          bank: int) -> int:
        self._stats.record_message(kind)
        if self.obs is not None:
            self.obs.emit(EventKind.MSG, cause=kind._name_)
        return self.core_bank_cycles[core][bank]

    def send_bank_to_core(self, kind: MessageType, bank: int,
                          core: int) -> int:
        self._stats.record_message(kind)
        if self.obs is not None:
            self.obs.emit(EventKind.MSG, cause=kind._name_)
        return self.core_bank_cycles[core][bank]

    def send_core_to_core(self, kind: MessageType, src: int,
                          dst: int) -> int:
        self._stats.record_message(kind)
        if self.obs is not None:
            self.obs.emit(EventKind.MSG, cause=kind._name_)
        return self.core_core_cycles[src][dst]
