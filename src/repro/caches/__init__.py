"""Cache structures: private hierarchy, shared LLC, replacement policies."""

from repro.caches.block import L2Line, LLCLine, LineKind, MESI
from repro.caches.llc import LLCBank
from repro.caches.private_cache import PrivateHierarchy

__all__ = [
    "L2Line",
    "LLCBank",
    "LLCLine",
    "LineKind",
    "MESI",
    "PrivateHierarchy",
]
