"""Batched access kernel: the opt-in second hit path.

Most accesses in every figure workload are private-cache hits: the
block is already in the issuing core's L2 in a state that can service
the request without any uncore message.  The default ``scalar`` kernel
retires those inside ``CMPSystem.access``, one reference at a time.
This package (``kernel="batched"`` or ``REPRO_KERNEL=batched``)
pre-classifies each core's upcoming access window with a Python scan
over the core's L2 index and retires the safe-hit prefix in bulk,
issuing anything that could touch directory state (misses, upgrades,
DEV paths, fuse/unfuse, corrupted-home, cross-socket flows) through
``access``.  It no longer beats the scalar kernel (DESIGN.md section
11) and stays as the independent hit path ``repro verify
--kernel-diff`` diffs the scalar one against.

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
