"""The batched fast path: classify safe hits, retire them in bulk.

Definitions
-----------

An access is a **safe hit** when the issuing core's L2 holds the block
and the operation needs no permission change that involves the uncore:

* READ / IFETCH of any L2-resident block (M, E, or S), and
* WRITE of an L2-resident block in M or E (the E->M transition is
  silent).

A WRITE to an S copy is an upgrade (uncore round trip) and any L2 miss
leaves the core -- both are *unsafe* and are issued through the scalar
protocol unchanged.

Why bulk retirement is exact
----------------------------

The scalar runner retires accesses in ``(local_clock, slot)`` heap
order.  Reproducing that order literally caps every bulk run at the
next slot's clock -- one or two accesses when clocks interleave finely
-- so this driver relaxes the *order* while preserving every observable
the scalar order determines:

1. **Safe hits commute.**  A safe hit touches only the issuing core's
   private recency state (L1/L2 LRU, L1 fills, silent E->M), the core's
   own clock and counters, and -- for stores -- the shadow memory's
   *per-block* version counter.  None of that is observable by another
   core's safe hit, and SWMR guarantees two cores never hold safe-write
   permission on the same block, so any schedule that keeps each core's
   program order and retires the same *set* of accesses reaches the
   same state.

2. **Horizons bound run-ahead.**  Each slot's classified safe prefix
   yields a provable lower bound on the clock at which its next
   *unsafe* access can issue (its current clock plus the sum of
   per-class minimum latencies over the prefix).  A slot may bulk-run
   past other slots' clocks but never to or past any other slot's
   horizon, so no access that scalar order places *after* another
   slot's next unsafe access is ever retired early.

3. **Unsafe accesses retire at the exact scalar position.**  An unsafe
   access issues only while its ``(clock, slot)`` key is the strict
   heap minimum.  Heap-minimality means every access ordered before it
   has retired; the horizon bound means no access ordered after it has.
   The retired set at that instant is therefore *exactly* the scalar
   prefix, and by (1) the machine state, the statistics, and the
   ``obs.step`` access index are bit-identical to the scalar runner's.
   Since events are only emitted by unsafe accesses, the event stream
   -- order, payloads, and step tags -- is bit-identical too.

During the warm-up region the driver runs in exact scalar order
instead (run-ahead across the statistics reset at the region-of-
interest boundary would retire a different warm-up *set*); gauge
sampling (``sample_fn``) keeps the scalar runner outright, because
gauges observe intermediate states that are schedule-dependent by
nature (see :func:`repro.harness.runner.run_workload`).

Classification staleness is tracked with an epoch counter plus a
**shrink journal** on
:class:`~repro.caches.private_cache.PrivateHierarchy`, which a
hierarchy records only from the moment a :class:`SlotKernel` is built
over it (``shrink_log`` starts as None; the kernel's list switches the
journal on for good): every mutation
that can turn a previously safe hit unsafe (invalidation, downgrade,
re-state to S, the L2 victim of a fill) bumps the epoch and records the
affected block -- including mutations triggered by *other* cores'
scalar accesses or by another socket.  On an epoch mismatch the kernel
*absorbs* the journal instead of rescanning: it truncates its cached
safe prefix at the first occurrence of any journaled block (a C-level
``list.index`` probe per entry) and clears the journal.  Mutations that
only *extend* safety (the fill itself, the upgrade grant to E, the
silent E->M) do not journal, so the cached classification may
under-approximate -- harmless, because an access at the truncated
boundary simply goes through the scalar hit path, which is
observationally identical for a safe hit (same stats, no events).
Epochs only move during unsafe accesses, so a cached classification --
and the horizon derived from it -- stays valid for as long as the
driver relies on it, and every horizon is re-derived from live epochs
before it bounds a run.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional

import numpy as np

from repro.caches.block import MESI
from repro.common.addressing import BLOCK_SHIFT
from repro.common.stats import latency_bucket

#: Accesses classified per scan. The scan stops at the first unsafe
#: access anyway; the window only caps the work per scan in long
#: all-hit stretches, where its cost is amortized over as many
#: bulk-retired accesses.
SCAN_WINDOW = 512

#: Steady-state adaptive-mode evaluation window (accesses).  Every
#: window the driver re-decides between bulk mode (scan + run-ahead
#: retirement) and degraded mode (plain scalar issue in exact heap
#: order): bulk machinery only pays for itself when safe runs amortize
#: it, which miss- and share-heavy phases do not.
ADAPT_WINDOW = 4096

#: First evaluation window.  The window *ramps* (doubling each
#: evaluation) from this up to :data:`ADAPT_WINDOW`, so share-heavy
#: workloads whose bulk runs never get long -- where a full 4096 x
#: streak of bulk overhead used to cost ~10% end-to-end
#: (cpu2017/xalancbmk) -- degrade within the first ~1.5k accesses,
#: while hit-heavy workloads quickly grow the window back to the cheap
#: steady-state cadence.  Ramping is self-calibration, not a tunable:
#: early small windows sample the workload's run-length regime at low
#: commitment.
ADAPT_WINDOW_MIN = 512

#: Degrade when the mean bulk-run length over a window drops below
#: this (measured crossover: runs shorter than ~3 accesses cost more
#: in scan/limit/turn overhead than they save over scalar hits).
DEGRADE_RUN_LENGTH = 3.0

#: Promote back to bulk mode when the windowed private-hit fraction
#: (observable from the stats counters while degraded) exceeds this.
#: Slightly above the degrade crossover for hysteresis.
PROMOTE_HIT_FRACTION = 0.95

#: Consecutive qualifying windows required before switching modes.
#: During the calibration ramp (window still below
#: :data:`ADAPT_WINDOW`) a *single* bad window degrades immediately:
#: the ramp exists to find miss-heavy workloads fast, and every extra
#: bulk window spent confirming the signal costs scan overhead that
#: the 0.95x no-regression floor cannot absorb.
ADAPT_STREAK = 2

_NO_LIMIT = 1 << 62


class SlotKernel:
    """Fast-path state for one scheduling slot (one core of one socket).

    Holds the slot's trace as plain lists for the scan and retirement
    loops, stable references into the private hierarchy and the
    per-socket stats/shadow the slot retires into, and the cached
    classification of the upcoming safe prefix.
    """

    __slots__ = ("core", "hier", "stats", "length", "ops", "blocks",
                 "_hot", "_cls_epoch", "_cls_base", "_cls_safe_end",
                 "_cls_capped", "_cls_cum",
                 "_l1i_sets", "_l1i_mask", "_l1i_ways",
                 "_l1d_sets", "_l1d_mask", "_l1d_ways",
                 "_l2_index", "_l2_sets", "_l2_mask", "_shadow_latest",
                 "_r1_step", "_r2_step", "_w_step",
                 "_r1_bucket", "_r2_bucket", "_w_bucket")

    def __init__(self, core: int, hier, stats, shadow, latency,
                 ops: np.ndarray, addresses: np.ndarray) -> None:
        self.core = core
        self.hier = hier
        self.stats = stats
        # Switch the hierarchy's shrink journal on.  This kernel starts
        # unclassified (``_cls_epoch`` -1), so mutations made before the
        # journal existed cannot leave a stale prefix behind.
        if hier.shrink_log is None:
            hier.shrink_log = []
        self.ops = np.asarray(ops, dtype=np.int8).tolist()
        self.blocks = (np.asarray(addresses, dtype=np.int64)
                       >> BLOCK_SHIFT).tolist()
        self.length = len(self.ops)
        self._cls_epoch = -1
        self._cls_base = 0
        self._cls_safe_end = 0
        self._cls_capped = True
        self._cls_cum: List[int] = []
        # The hierarchy's dicts and set lists are created once and
        # mutated in place, so the references stay valid across the
        # whole run (stats.cycles does NOT: reset() replaces it, so it
        # is re-fetched at every flush).
        self._l1i_sets = hier.l1i_sets
        self._l1i_mask = hier.l1i_mask
        self._l1i_ways = hier.l1i_ways
        self._l1d_sets = hier.l1d_sets
        self._l1d_mask = hier.l1d_mask
        self._l1d_ways = hier.l1d_ways
        self._l2_index = hier.l2_index
        self._l2_sets = hier.l2_sets
        self._l2_mask = hier.l2_mask
        self._shadow_latest = shadow._latest           # noqa: SLF001
        # Latency constants of the three hit classes (see
        # CMPSystem.access): exactly what the scalar path records.
        r1_lat = latency.l1_hit
        r2_lat = latency.l1_hit + latency.l2_hit
        w_lat = max(1, int(latency.l1_hit
                           * latency.store_visibility_fraction))
        compute = latency.compute_per_access
        self._r1_step = r1_lat + compute
        self._r2_step = r2_lat + compute
        self._w_step = w_lat + compute
        self._r1_bucket = latency_bucket(r1_lat)
        self._r2_bucket = latency_bucket(r2_lat)
        self._w_bucket = latency_bucket(w_lat)
        # One-shot binding tuple for retire_run: a single unpack
        # replaces ~20 attribute loads per call, which matters when
        # tight horizons keep bulk runs short.
        self._hot = (self.ops, self.blocks,
                     self._l1i_sets, self._l1i_mask, self._l1i_ways,
                     self._l1d_sets, self._l1d_mask, self._l1d_ways,
                     self._l2_index, self._l2_sets, self._l2_mask,
                     self._shadow_latest,
                     self._r1_step, self._r2_step, self._w_step)

    # ------------------------------------------------------------------
    # Classification
    # ------------------------------------------------------------------
    def _absorb(self, pos: int) -> None:
        """Reconcile the cached classification with the hierarchy's
        shrink journal.

        Cheaper than a rescan: each journaled block costs one C-level
        ``list.index`` probe over the remaining cached window, and the
        common case (the mutated block is not in this slot's upcoming
        prefix) costs nothing else.  Truncation clears ``_cls_capped``
        so an access at the truncated boundary is treated as unsafe and
        issued through the scalar path -- observationally identical
        whether it is still a hit or not.  The cumulative-gain list
        stays valid under truncation (it is only read up to the prefix
        end).
        """
        hier = self.hier
        log = hier.shrink_log
        if log:
            end = self._cls_safe_end
            if end > pos:
                index = self.blocks.index
                for block in log:
                    try:
                        hit = index(block, pos, end)
                    except ValueError:
                        continue
                    end = hit
                if end < self._cls_safe_end:
                    self._cls_safe_end = end
                    self._cls_capped = False
            del log[:]
        self._cls_epoch = hier.epoch

    def safe_end(self, pos: int) -> int:
        """End of the classified safe prefix starting at ``pos``.

        ``safe_end == pos`` means the next access is unsafe.
        """
        if self._cls_epoch != self.hier.epoch:
            self._absorb(pos)
        if (pos > self._cls_safe_end
                or (pos == self._cls_safe_end and self._cls_capped)):
            self._scan(pos)
        return self._cls_safe_end

    def horizon(self, clock: int, pos: int) -> int:
        """Provable lower bound on the clock of the next unsafe issue.

        Every access in the safe prefix advances the clock by at least
        its class minimum (L1-hit latency for loads, store-visibility
        latency for stores), so the next unsafe access -- at or beyond
        the prefix end -- cannot issue before ``clock`` plus that sum.
        """
        if self._cls_epoch != self.hier.epoch:
            self._absorb(pos)
        if (pos > self._cls_safe_end
                or (pos == self._cls_safe_end and self._cls_capped)):
            self._scan(pos)
        end = self._cls_safe_end
        if pos >= end:
            return clock
        cum = self._cls_cum
        base = self._cls_base
        gain = cum[end - base - 1]
        if pos > base:
            gain -= cum[pos - base - 1]
        return clock + gain

    def _scan(self, pos: int) -> None:
        """Walk the next window of the trace until the first access the
        current L2 state cannot service silently, accumulating per-
        access minimum clock gains for :meth:`horizon`."""
        l2_get = self._l2_index.get
        shared = MESI.S
        r_min = self._r1_step
        w_min = self._w_step
        end = min(pos + SCAN_WINDOW, self.length)
        cum: List[int] = []
        cum_append = cum.append
        gain = 0
        for op, block in zip(self.ops[pos:end], self.blocks[pos:end]):
            line = l2_get(block)
            if line is None:
                break
            if op == 1:
                if line.state is shared:
                    break
                gain += w_min
            else:
                gain += r_min
            cum_append(gain)
        i = pos + len(cum)
        # The scan read live L2 state, so any pending journal entries
        # are already reflected; drop them and sync the epoch.
        hier = self.hier
        del hier.shrink_log[:]
        self._cls_epoch = hier.epoch
        self._cls_base = pos
        self._cls_safe_end = i
        self._cls_capped = i == end
        self._cls_cum = cum

    def reset_classification(self) -> None:
        """Invalidate the cached classification and drop the journal.

        Used by the driver while degraded: nothing consumes the journal
        in that mode, so it is flushed periodically and the cached
        prefix marked for a full rescan on the next consultation.
        """
        hier = self.hier
        del hier.shrink_log[:]
        self._cls_epoch = hier.epoch
        self._cls_base = 0
        self._cls_safe_end = 0
        self._cls_capped = True
        self._cls_cum = []

    # ------------------------------------------------------------------
    # Bulk retirement
    # ------------------------------------------------------------------
    def retire_run(self, pos: int, end: int, clock: int,
                   limit: int) -> tuple:
        """Retire classified safe hits ``[pos, end)`` while the slot's
        clock stays under ``limit``; returns ``(new_pos, new_clock)``.

        Replays exactly what the scalar hit paths do: L2/L1 recency
        touches, L1 fills (L1 victims need no action), shadow commits
        and the silent E->M on stores, per-class latencies, latency
        buckets, and per-core counters.
        """
        (ops, blocks, l1i_sets, l1i_mask, l1i_ways, l1d_sets, l1d_mask,
         l1d_ways, l2_index, l2_sets, l2_mask, latest, r1_step, r2_step,
         w_step) = self._hot
        latest_get = latest.get
        mesi_m = MESI.M
        n_l1 = n_l2 = n_writes = 0
        # Every retired access advances the clock by at least the
        # smallest per-class step, which bounds how much of the run the
        # limit can admit -- slicing to that bound keeps the zip cheap
        # when the limit binds early.
        min_step = w_step if w_step < r1_step else r1_step
        cap = pos + (limit - clock) // min_step + 1
        if cap < end:
            end = cap
        for opc, block in zip(ops[pos:end], blocks[pos:end]):
            if clock >= limit:
                break
            if opc == 0:                              # READ
                lru = l1d_sets[block & l1d_mask]
                if block in lru:
                    lru.move_to_end(block)
                    l2_sets[block & l2_mask].move_to_end(block)
                    n_l1 += 1
                    clock += r1_step
                else:
                    l2_sets[block & l2_mask].move_to_end(block)
                    if len(lru) >= l1d_ways:
                        lru.popitem(last=False)
                    lru[block] = None
                    n_l2 += 1
                    clock += r2_step
            elif opc == 1:                            # WRITE (M/E hit)
                l2_sets[block & l2_mask].move_to_end(block)
                lru = l1d_sets[block & l1d_mask]
                if block in lru:
                    lru.move_to_end(block)
                else:
                    if len(lru) >= l1d_ways:
                        lru.popitem(last=False)
                    lru[block] = None
                version = latest_get(block, 0) + 1
                latest[block] = version
                l2_line = l2_index[block]
                l2_line.state = mesi_m
                l2_line.dirty = True
                l2_line.version = version
                n_writes += 1
                clock += w_step
            else:                                     # IFETCH
                lru = l1i_sets[block & l1i_mask]
                if block in lru:
                    lru.move_to_end(block)
                    l2_sets[block & l2_mask].move_to_end(block)
                    n_l1 += 1
                    clock += r1_step
                else:
                    l2_sets[block & l2_mask].move_to_end(block)
                    if len(lru) >= l1i_ways:
                        lru.popitem(last=False)
                    lru[block] = None
                    n_l2 += 1
                    clock += r2_step
        # Each retired access bumped exactly one of the three counters.
        retired = n_l1 + n_l2 + n_writes
        if retired:
            stats = self.stats
            core = self.core
            # The entry clock came from stats.cycles[core] (single
            # writer), so the absolute assignment equals the scalar
            # sequence of advance_core() calls.
            stats.cycles[core] = clock
            stats.accesses[core] += retired
            stats.l1_hits += n_l1
            stats.l2_hits += n_l2
            if n_l1 or n_l2:
                read_buckets = stats.read_latency_buckets
                read_buckets[self._r1_bucket] += n_l1
                read_buckets[self._r2_bucket] += n_l2
            if n_writes:
                stats.write_latency_buckets[self._w_bucket] += n_writes
        return pos + retired, clock


def drive_batched(slots: List[SlotKernel],
                  issue: Callable[[int, int], int],
                  check: Optional[Callable[[], None]] = None,
                  check_every: int = 0,
                  warmup: int = 0,
                  on_warmup: Optional[Callable[[], None]] = None,
                  obs=None) -> int:
    """Drive every slot to completion; see the module docstring for the
    exactness argument.

    ``issue(slot, index)`` is the runner's scalar closure (including
    its obs step-advance wrapper when tracing); ``obs`` is the event
    bus whose ``step`` must advance once per bulk-retired access.
    Returns the number of accesses issued.

    The driver is adaptive: at every evaluation window -- ramping from
    :data:`ADAPT_WINDOW_MIN` up to :data:`ADAPT_WINDOW` so the first
    decisions come early -- it re-decides between *bulk* mode
    (classify + run-ahead retirement) and *degraded* mode (plain
    scalar issue in exact heap order, identical to the scalar runner's
    schedule).  Miss- and share-heavy phases produce bulk runs too
    short to amortize the scan and scheduling overhead, so the driver
    watches the windowed mean run length to degrade and the windowed
    private-hit fraction (readable from the stats counters) to promote
    back.  Both signals are deterministic functions of the simulation,
    so runs stay reproducible, and both modes are exact, so switching
    at any boundary preserves bit identity.
    """
    n = len(slots)
    lengths = [slot.length for slot in slots]
    positions = [0] * n
    clocks = [0] * n
    # horizons[i] caches slots[i].horizon(...) for slots waiting in the
    # heap; _NO_LIMIT marks the running slot, finished slots, and empty
    # slots (none of which may bound a run).  Entries are kept fresh
    # eagerly: recomputed when a slot's turn ends and -- because scalar
    # issues are the only events that move epochs -- re-derived for
    # every epoch-bumped slot right after each scalar issue.
    horizons = [_NO_LIMIT] * n
    heap = [(0, index) for index in range(n) if lengths[index]]
    heapq.heapify(heap)
    heappush = heapq.heappush
    heappop = heapq.heappop
    heapreplace = heapq.heapreplace
    step = 0
    # Adaptive-mode state.  The windowed hit fraction is read from the
    # stats objects the slots retire into (>1 of them on multi-socket
    # systems); the write bucket at index _w_bucket counts exactly the
    # store hits the scalar path served silently.
    stats_list = list({id(s.stats): s.stats for s in slots}.values())
    w_bucket = slots[0]._w_bucket if slots else 0   # noqa: SLF001

    def count_hits() -> int:
        total = 0
        for st in stats_list:
            total += (st.l1_hits + st.l2_hits
                      + st.write_latency_buckets[w_bucket])
        return total

    degraded = False
    streak = 0
    # The evaluation window ramps from ADAPT_WINDOW_MIN to ADAPT_WINDOW
    # (doubling per evaluation) so the first mode decisions come early;
    # a monkeypatched ADAPT_WINDOW below the ramp floor pins the window
    # (tests shrink it to force frequent evaluations).
    window = min(ADAPT_WINDOW_MIN, ADAPT_WINDOW)
    next_eval = window
    window_base = 0
    window_bulk = 0
    window_runs = 0
    hits_base = 0

    def evaluate() -> None:
        """Window boundary: re-decide the mode (see docstring)."""
        nonlocal degraded, streak, next_eval, window
        nonlocal window_base, window_bulk, window_runs, hits_base
        if degraded:
            frac = (count_hits() - hits_base) / (step - window_base)
            streak = streak + 1 if frac > PROMOTE_HIT_FRACTION else 0
            # While degraded nothing consumes the shrink journals;
            # flush them and invalidate the cached prefixes.
            for index in range(n):
                slots[index].reset_classification()
            if streak >= ADAPT_STREAK:
                degraded = False
                streak = 0
                if not warmup:
                    for index in range(n):
                        horizons[index] = (
                            slots[index].horizon(clocks[index],
                                                 positions[index])
                            if positions[index] < lengths[index]
                            else _NO_LIMIT)
        else:
            mean_run = window_bulk / window_runs if window_runs else 0.0
            streak = streak + 1 if mean_run < DEGRADE_RUN_LENGTH else 0
            if streak >= ADAPT_STREAK or (streak
                                          and window < ADAPT_WINDOW):
                degraded = True
                streak = 0
        window_base = step
        window_bulk = window_runs = 0
        hits_base = count_hits() if degraded else 0
        if window < ADAPT_WINDOW:
            window = min(window * 2, ADAPT_WINDOW)
        next_eval = step + window

    if not warmup:
        for index in range(n):
            if lengths[index]:
                horizons[index] = slots[index].horizon(0, 0)
    while heap:
        if warmup and step == warmup:
            if on_warmup is not None:
                on_warmup()
            # All local clocks restart at zero after the ROI boundary.
            # The boundary fires exactly once; clearing ``warmup`` also
            # switches the driver from exact scalar order (required for
            # the warm-up *set* to match the scalar runner's) to
            # horizon-bounded run-ahead.
            warmup = 0
            heap = []
            for index in range(n):
                if positions[index] < lengths[index]:
                    heap.append((0, index))
                    clocks[index] = 0
                    if not degraded:
                        horizons[index] = slots[index].horizon(
                            0, positions[index])
            heapq.heapify(heap)
            # The reset zeroed the counters the hit fraction is read
            # from; start a fresh window, restarting the calibration
            # ramp at the region-of-interest boundary.
            window_base = step
            window_bulk = window_runs = 0
            hits_base = count_hits()
            window = min(ADAPT_WINDOW_MIN, ADAPT_WINDOW)
            next_eval = step + window
        if degraded:
            # Degraded fast loop: issue everything through the scalar
            # protocol in exact heap order -- byte-for-byte the scalar
            # runner's schedule and cost (heapreplace pattern) -- until
            # the next window or warm-up boundary.
            stop = next_eval
            if warmup and warmup < stop:
                stop = warmup
            while heap and step < stop:
                slot = heap[0][1]
                index = positions[slot]
                clock = issue(slot, index)
                positions[slot] = index + 1
                step += 1
                if index + 1 < lengths[slot]:
                    heapreplace(heap, (clock, slot))
                    clocks[slot] = clock
                else:
                    heappop(heap)
                if check_every and step % check_every == 0:
                    check()
            if heap and step >= next_eval:
                evaluate()
            continue
        clock, slot = heappop(heap)
        kernel = slots[slot]
        khier = kernel.hier
        length = lengths[slot]
        pos = positions[slot]
        horizons[slot] = _NO_LIMIT
        done = False
        while True:
            if pos >= length:
                done = True
                break
            # Inline classification-staleness check (SlotKernel.safe_end
            # unrolled: this is the hottest branch of the driver).
            if kernel._cls_epoch != khier.epoch:    # noqa: SLF001
                kernel._absorb(pos)                 # noqa: SLF001
            run_end = kernel._cls_safe_end          # noqa: SLF001
            if (pos > run_end
                    or (pos == run_end
                        and kernel._cls_capped)):   # noqa: SLF001
                kernel._scan(pos)                   # noqa: SLF001
                run_end = kernel._cls_safe_end      # noqa: SLF001
            if run_end == pos:
                # Next access is unsafe: it may only issue while its
                # (clock, slot) key is the strict heap minimum -- the
                # exact position the scalar runner would issue it at.
                if heap:
                    head_clock, head_slot = heap[0]
                    if (clock > head_clock
                            or (clock == head_clock
                                and slot > head_slot)):
                        break
                clock = issue(slot, pos)
                pos += 1
                step += 1
                if not warmup:
                    # The transaction may have invalidated or
                    # downgraded lines in other cores: refresh the
                    # horizon of every slot whose epoch moved.
                    for index in range(n):
                        if horizons[index] != _NO_LIMIT:
                            other = slots[index]
                            if (other._cls_epoch    # noqa: SLF001
                                    != other.hier.epoch):
                                horizons[index] = other.horizon(
                                    clocks[index], positions[index])
                if check_every and step % check_every == 0:
                    check()
                if warmup and step == warmup:
                    break                # outer loop performs the reset
                continue
            if warmup:
                # Exact mode: never run past the next slot's clock.
                if heap:
                    head_clock, head_slot = heap[0]
                    limit = (head_clock + 1 if slot < head_slot
                             else head_clock)
                else:
                    limit = _NO_LIMIT
            else:
                # Run-ahead mode: never run to or past any other
                # slot's next-unsafe horizon.  min() finds the
                # smallest-index minimum, matching the scalar
                # tiebreak.
                limit = min(horizons)
                if limit != _NO_LIMIT and slot < horizons.index(limit):
                    limit += 1
            if clock >= limit:
                break
            if check_every:
                run_end = min(run_end, pos + check_every
                              - step % check_every)
            if warmup:
                run_end = min(run_end, pos + warmup - step)
            new_pos, clock = kernel.retire_run(pos, run_end, clock,
                                               limit)
            retired = new_pos - pos
            if not retired:
                break
            pos = new_pos
            step += retired
            window_bulk += retired
            window_runs += 1
            if obs is not None:
                obs.step += retired
            if check_every and step % check_every == 0:
                check()
            if warmup and step == warmup:
                break                    # outer loop performs the reset
        positions[slot] = pos
        if not done:
            heappush(heap, (clock, slot))
            clocks[slot] = clock
            if not warmup and not degraded:
                horizons[slot] = kernel.horizon(clock, pos)
        if step >= next_eval:
            evaluate()
    return step
