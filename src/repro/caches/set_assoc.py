"""Generic set-associative cache with true-LRU replacement.

Used for the private L1 and L2 arrays. Lines are arbitrary objects with a
``block`` attribute; each set is an ordered mapping from block to line in
LRU-to-MRU order (first entry is LRU, last is MRU), giving O(1) hit-path
recency updates -- this sits on the per-access critical path of the
runner, where a per-touch ``list.remove`` (which compares dataclass lines
field-by-field) dominated the profile.

The layout is shared: :class:`~repro.caches.private_cache.PrivateHierarchy`
and the batched kernel work on ``_index`` and ``_sets`` directly, so that
a coherence action is one call (DESIGN.md section 8), and so does the
model checker's canonical signature. The simulator calls ``insert``
(the L1 fills) and ``lines``; ``lookup``, ``peek``, ``remove`` and
``set_lines`` are exercised only by the tests: ``tests/test_set_assoc.py``
checks them, and a core's L2 driven through the hierarchy, against its
own brute-force LRU model.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Generic, List, Optional, TypeVar

from repro.common.config import CacheGeometry
from repro.common.errors import SimulationError

LineT = TypeVar("LineT")


class SetAssocCache(Generic[LineT]):
    """A set-associative array of ``geometry.sets`` x ``geometry.ways``."""

    def __init__(self, geometry: CacheGeometry) -> None:
        self.geometry = geometry
        # Hoisted from the geometry properties (recomputed per call).
        self._n_ways = geometry.ways
        self._set_mask = geometry.sets - 1
        self._sets: List["OrderedDict[int, LineT]"] = [
            OrderedDict() for _ in range(geometry.sets)]
        self._index: Dict[int, LineT] = {}

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, block: int) -> bool:
        return block in self._index

    # ------------------------------------------------------------------
    def set_of(self, block: int) -> int:
        return block & self._set_mask

    def lookup(self, block: int, touch: bool = True) -> Optional[LineT]:
        """Return the line holding ``block``, updating LRU order on hit."""
        line = self._index.get(block)
        if line is not None and touch:
            self._sets[block & self._set_mask].move_to_end(block)
        return line

    def peek(self, block: int) -> Optional[LineT]:
        """Lookup without disturbing LRU order."""
        return self._index.get(block)

    # ------------------------------------------------------------------
    def insert(self, line: LineT) -> Optional[LineT]:
        """Insert ``line`` at MRU; returns the evicted LRU victim, if any.

        The caller is responsible for any writeback/notification the victim
        requires -- this class is pure structure.
        """
        block = line.block  # type: ignore[attr-defined]
        if block in self._index:
            raise SimulationError(f"block {block:#x} already cached")
        lru_set = self._sets[block & self._set_mask]
        victim: Optional[LineT] = None
        if len(lru_set) >= self._n_ways:
            _, victim = lru_set.popitem(last=False)
            del self._index[victim.block]  # type: ignore[attr-defined]
        lru_set[block] = line
        self._index[block] = line
        return victim

    def remove(self, block: int) -> Optional[LineT]:
        """Remove and return the line holding ``block`` (None if absent)."""
        line = self._index.pop(block, None)
        if line is not None:
            del self._sets[block & self._set_mask][block]
        return line

    # ------------------------------------------------------------------
    def lines(self):
        """Iterate over all resident lines (unordered)."""
        return self._index.values()

    def set_lines(self, index: int) -> List[LineT]:
        """The lines of set ``index`` in LRU-to-MRU order (read-only use)."""
        return list(self._sets[index].values())
