"""The pinned correctness reference and the digests compared against it.

``reference.json`` beside this file holds, for every pinned seed, one
digest of the simulated ``SystemStats`` per (workload, config, app)
run, the ``ModelCheckReport.identity_bytes()`` digest of each
exploration, and the summary of a clean fuzz campaign.  Regenerate it
with ``python3 perfbench/pin_reference.py`` only when a change is
*meant* to alter simulated behaviour.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

#: The ``SystemStats`` fields a digest covers: every field the stats
#: carried when the reference was pinned.  A field added later does not
#: enter the digest; a field removed or changed in value fails it.
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


def _sha(payload) -> str:
    raw = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(raw.encode("utf-8")).hexdigest()[:32]


def stats_digest(stats) -> str:
    """Digest of one run's simulated statistics."""
    payload = []
    for name in STATS_FIELDS:
        value = getattr(stats, name)
        if isinstance(value, dict):
            value = sorted([getattr(key, "name", str(key)), count]
                           for key, count in value.items())
        payload.append([name, value])
    return _sha(payload)


def explore_digest(report) -> str:
    """Digest of one exploration's worker-count-independent identity."""
    return hashlib.sha256(report.identity_bytes()).hexdigest()[:32]


def fuzz_summary(report) -> dict:
    """The deterministic verdict of one fuzz campaign."""
    return {
        "models": list(report.models),
        "budget": report.budget,
        "runs": report.runs,
        "traces_run": report.traces_run,
        "divergences": len(report.divergences),
        "digest_mismatches": len(report.digest_mismatches),
        "harness_failures": len(report.harness_failures),
    }


def load(path=None) -> dict:
    with open(path or REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle)
