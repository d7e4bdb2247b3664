"""Catalogue of coherence messages and their interconnect byte costs.

Interconnect traffic in the paper's figures is "total bytes communicated";
we account every protocol message with a type from this catalogue so
traffic numbers are comparable across baseline and ZeroDEV runs.

Sizes follow the usual convention: a control message is one 8-byte flit
(address + opcode), a data-carrying message adds the 64-byte block. The
ZeroDEV-specific extras the paper calls out as "negligible" are modeled
explicitly: the E-state eviction notice carries the low-order
``3 + ceil(log2 N)`` bits used to reconstruct a fused block, which we round
up to one extra byte.
"""

from __future__ import annotations

import enum

from repro.common.addressing import BLOCK_BYTES

CTRL_BYTES = 8
DATA_BYTES = CTRL_BYTES + BLOCK_BYTES


class MessageType(enum.Enum):
    """Every message type exchanged in the modeled protocols.

    Members hash by identity: ``Enum.__hash__`` is a Python-level
    function (``hash(self._name_)``) on Python 3.11/3.12, and every
    simulated message is a dict lookup keyed by its type. Members are
    singletons (pickling restores them by name), so identity hashing
    keeps every mapping keyed by them -- ``SystemStats.messages``
    included -- intact across processes.
    """

    __hash__ = object.__hash__

    # Requests from cores to the home LLC bank / directory slice.
    GETS = enum.auto()             # read (data or code)
    GETX = enum.auto()             # read-exclusive
    UPGRADE = enum.auto()          # S -> M permission-only request

    # Responses.
    DATA = enum.auto()             # data response (LLC, owner, or memory)
    DATA_EXCLUSIVE = enum.auto()   # data granted in E/M
    ACK = enum.auto()              # dataless response (upgrade grant)
    INV_ACK = enum.auto()          # invalidation acknowledgment

    # Forwarding and coherence actions.
    FWD_GETS = enum.auto()         # forwarded read to owner/sharer
    FWD_GETX = enum.auto()         # forwarded read-exclusive to owner
    INV = enum.auto()              # invalidation to a sharer
    BUSY_CLEAR = enum.auto()       # owner -> home after a 3-hop transfer

    # Private-cache eviction notifications (all notified to the directory
    # to keep it up-to-date, per Section III-A).
    EVICT_CLEAN = enum.auto()      # E/S eviction notice, no data
    EVICT_CLEAN_BITS = enum.auto() # ZeroDEV E-state notice + low-order bits
    WRITEBACK = enum.auto()        # M eviction, carries data

    # ZeroDEV memory-housing flows (Section III-D).
    WB_DE = enum.auto()            # directory-entry writeback to home memory
    GET_DE = enum.auto()           # directory-entry read from home memory
    DE_DATA = enum.auto()          # corrupted block returned for extraction
    DENF_NACK = enum.auto()        # "directory entry not found" NACK
    FWD_WITH_DE = enum.auto()      # re-forward carrying the extracted entry
    EVICT_ACK = enum.auto()        # ack retrieving low bits from last sharer

    # Hybrid update/invalidate contender (arXiv:1502.00101): a write to a
    # shared line pushes the new data to every other sharer instead of
    # invalidating it.
    UPDATE = enum.auto()           # data push to a sharer on an S write
    UPDATE_ACK = enum.auto()       # sharer -> writer, update applied

    # Inter-socket messages (Section III-D3..D5).
    SOCKET_GETS = enum.auto()
    SOCKET_GETX = enum.auto()
    SOCKET_DATA = enum.auto()
    SOCKET_DATA_CORRUPTED = enum.auto()  # special response, corrupted block
    SOCKET_EVICT = enum.auto()     # last in-socket copy evicted notice
    SOCKET_RESTORE = enum.auto()   # block retrieved to heal corrupted memory


_DATA_CARRYING = {
    MessageType.DATA,
    MessageType.DATA_EXCLUSIVE,
    MessageType.WRITEBACK,
    MessageType.UPDATE,
    MessageType.WB_DE,
    MessageType.DE_DATA,
    MessageType.FWD_WITH_DE,
    MessageType.SOCKET_DATA,
    MessageType.SOCKET_DATA_CORRUPTED,
    MessageType.SOCKET_RESTORE,
}

_CTRL_PLUS_ONE = {
    # E-state eviction notice carrying 3 + ceil(log2 N) reconstruction bits
    # (Section III-C2) -- rounded up to one byte.
    MessageType.EVICT_CLEAN_BITS,
}


def message_bytes(kind: MessageType) -> int:
    """Interconnect payload size of one message of type ``kind``."""
    if kind in _DATA_CARRYING:
        return DATA_BYTES
    if kind in _CTRL_PLUS_ONE:
        return CTRL_BYTES + 1
    return CTRL_BYTES


#: ``message_bytes`` of every type, built once: the per-message
#: accounting in ``SystemStats.record_message`` is one lookup here.
MESSAGE_BYTES = {kind: message_bytes(kind) for kind in MessageType}
