"""Shadow memory: the data-correctness oracle.

Block contents are modeled as versions (see ``caches.block``). The shadow
records, outside the protocol, the latest committed version of every block.
The protocol asserts, always, that every GETS and GETX response serves
the latest version (a private hit reads a copy such a response filled,
kept current by SWMR) -- a full end-to-end data-correctness check of
whatever coherence scheme is running.

Versions are **per block**: the n-th store to a block commits version n,
regardless of stores to other blocks. This keeps the oracle exactly as
strong (a stale read still observes a version smaller than the latest)
while making version assignment independent of how stores to *different*
blocks interleave.  That independence is load-bearing twice over: the
differential harness compares final ``(block, version)`` digests across
models whose timing -- and therefore cross-block store order -- differs,
and the batched kernel (:mod:`repro.kernel`) retires safe store hits of
different cores out of global order, which is only legal because commits
to distinct blocks commute.  (Same-block stores never commute, but SWMR
already serializes them: a store hit requires M/E, which is exclusive.)
"""

from __future__ import annotations

from typing import Dict

from repro.common.errors import ProtocolInvariantError


class ShadowMemory:
    """Latest-committed-version oracle, independent of the protocol."""

    def __init__(self) -> None:
        self._latest: Dict[int, int] = {}

    def commit_write(self, block: int) -> int:
        """Record a store to ``block``; returns the new version number."""
        version = self._latest.get(block, 0) + 1
        self._latest[block] = version
        return version

    def latest(self, block: int) -> int:
        """Latest committed version of ``block`` (0 if never written)."""
        return self._latest.get(block, 0)

    def check_read(self, block: int, served_version: int,
                   where: str) -> None:
        """Assert a load observed the latest version of ``block``."""
        expected = self._latest.get(block, 0)
        if served_version != expected:
            raise ProtocolInvariantError(
                f"stale data: block {block:#x} read from {where} returned "
                f"version {served_version}, latest is {expected}")
