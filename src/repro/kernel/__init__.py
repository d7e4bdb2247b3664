"""Batched access kernel for the simulation hot path.

The overwhelming majority of accesses in every figure workload are
private-cache hits: the block is already in the issuing core's L2 in a
state that can service the request without any uncore message. The
scalar path still walks ``CMPSystem.access -> _read/_write ->
PrivateHierarchy`` one reference at a time; this package pre-classifies
each core's upcoming access window with a Python scan over the core's
L2 index and retires the safe-hit prefix in bulk, falling back to the
unmodified scalar protocol for anything that could touch directory
state (misses, upgrades, DEV paths, fuse/unfuse, corrupted-home,
cross-socket flows).

The contract is **bit identity**: identical final stats, identical
shadow memory, and identical event streams (order, payloads, and step
tags).  Safe hits of different cores are retired out of global order --
legal because they commute -- but every unsafe access still executes at
its exact scalar position with the exact scalar machine state; see
:mod:`repro.kernel.batched` for the argument.  The contract is enforced
by ``repro verify --kernel-diff`` (see :mod:`repro.kernel.diff`) and
documented in DESIGN.md Section 11.
"""

from repro.kernel.batched import (ADAPT_WINDOW, SCAN_WINDOW, SlotKernel,
                                  drive_batched)

__all__ = ["ADAPT_WINDOW", "SCAN_WINDOW", "SlotKernel", "drive_batched"]
