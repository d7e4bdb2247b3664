"""Event sinks: JSONL file, bounded ring buffer, time-series aggregator.

A sink is any object with ``handle(event)``; ``close()`` is optional.
The three shipped sinks cover the three consumption patterns:

* :class:`JsonlSink` -- durable, replayable traces (``repro report``).
* :class:`RingBufferSink` -- the last N events, for in-process debugging
  and tests, with no unbounded growth.
* :class:`TimeSeriesAggregator` -- streaming per-epoch reduction: event
  counts per kind (including the message mix) folded by the global access
  step, plus *gauge* snapshots (directory/spill/fuse occupancy, corrupted
  blocks, MPKI) sampled at epoch boundaries by the trace session.
"""

from __future__ import annotations

import json
from collections import Counter, deque
from pathlib import Path
from typing import Dict, List, Optional

from repro.obs.events import Event


class JsonlSink:
    """Appends one JSON object per event to ``path``."""

    def __init__(self, path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = self.path.open("w", encoding="utf-8")
        self.events_written = 0

    def write_meta(self, **meta) -> None:
        """Write a leading metadata record (workload, protocol, epoch)."""
        record = {"kind": "meta"}
        record.update(meta)
        self._handle.write(json.dumps(record) + "\n")

    def handle(self, event: Event) -> None:
        self._handle.write(json.dumps(event.to_record()) + "\n")
        self.events_written += 1

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()


class RingBufferSink:
    """Keeps the most recent ``capacity`` events in memory."""

    def __init__(self, capacity: int = 4096) -> None:
        if capacity <= 0:
            raise ValueError(f"ring capacity must be positive: {capacity}")
        self.capacity = capacity
        self._events: deque = deque(maxlen=capacity)
        self.total_seen = 0

    def handle(self, event: Event) -> None:
        self._events.append(event)
        self.total_seen += 1

    @property
    def events(self) -> List[Event]:
        return list(self._events)

    def counts(self) -> Counter:
        """Aggregation-key counts over the retained window."""
        return Counter(event.key() for event in self._events)

    def __len__(self) -> int:
        return len(self._events)


class TimeSeriesAggregator:
    """Streams events into per-epoch counters and gauge snapshots.

    An *epoch* is ``epoch`` global accesses.  ``handle`` folds each event
    into its epoch's counter; :meth:`sample` (called by the trace session
    every epoch boundary) snapshots instantaneous occupancy gauges and
    per-epoch rates from the live system.
    """

    def __init__(self, epoch: int = 1000) -> None:
        if epoch <= 0:
            raise ValueError(f"epoch length must be positive: {epoch}")
        self.epoch = epoch
        self._event_epochs: Dict[int, Counter] = {}
        self.gauges: List[dict] = []
        self._last_misses = 0
        self._last_accesses = 0

    # ------------------------------------------------------------------
    def handle(self, event: Event) -> None:
        bucket = self._event_epochs.get(event.step // self.epoch)
        if bucket is None:
            bucket = self._event_epochs.setdefault(
                event.step // self.epoch, Counter())
        bucket[event.key()] += 1

    # ------------------------------------------------------------------
    def sample(self, system) -> None:
        """Snapshot occupancy gauges from a live (single-socket) system."""
        stats = system.stats
        accesses = stats.total_accesses
        misses = stats.core_cache_misses
        delta_accesses = accesses - self._last_accesses
        delta_misses = misses - self._last_misses
        self._last_accesses, self._last_misses = accesses, misses
        housing = getattr(system, "_housing", None)
        self.gauges.append({
            "step": accesses,
            "dir_occupancy": (system.directory.occupancy()
                              if system.directory is not None else 0),
            "spilled_entries": sum(bank.spilled_count()
                                   for bank in system.banks),
            "fused_entries": sum(bank.fused_count()
                                 for bank in system.banks),
            "corrupted_blocks": (housing.garbage_count
                                 if housing is not None else 0),
            "mpki": (1000.0 * delta_misses / delta_accesses
                     if delta_accesses else 0.0),
            "traffic_bytes": stats.traffic_bytes,
        })

    # ------------------------------------------------------------------
    def event_series(self) -> List[dict]:
        """Per-epoch event counts, ordered by epoch index."""
        return [{"epoch": index, "step": index * self.epoch,
                 "counts": dict(counts)}
                for index, counts in sorted(self._event_epochs.items())]

    def totals(self) -> Counter:
        total: Counter = Counter()
        for counts in self._event_epochs.values():
            total.update(counts)
        return total

    def to_dict(self) -> dict:
        return {
            "epoch_accesses": self.epoch,
            "events": self.event_series(),
            "gauges": list(self.gauges),
            "totals": dict(self.totals()),
        }

    def series_of(self, key: str) -> List[int]:
        """One event-count series across epochs (missing epochs -> 0)."""
        if not self._event_epochs:
            return []
        last = max(self._event_epochs)
        return [self._event_epochs.get(index, Counter()).get(key, 0)
                for index in range(last + 1)]


def write_timeseries(path, aggregator: TimeSeriesAggregator,
                     **meta) -> Path:
    """Archive an aggregator's series as JSON (atomic publish)."""
    from repro.common.ioutil import atomic_write_text
    payload = dict(meta)
    payload.update(aggregator.to_dict())
    path = Path(path)
    atomic_write_text(path, json.dumps(payload, indent=1) + "\n")
    return path
