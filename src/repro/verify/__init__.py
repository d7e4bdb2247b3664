"""Differential verification and fault injection (``repro fuzz``).

The paper's claim is an *equivalence*: a ZeroDEV socket must behave like
a plain MESI CMP -- same load values, same final memory -- while never
issuing a DEV-caused private-cache invalidation. This package checks
that claim adversarially:

* :mod:`repro.verify.tracegen` -- seeded random traces biased toward the
  patterns where these protocols break (set-conflict storms, fuse/spill
  flapping, migratory sharing).
* :mod:`repro.verify.models` -- the model matrix: every ZeroDEV policy x
  LLC design, the 1x sparse baseline, SecDir, MgD, and two-socket
  compositions, all on one micro geometry.
* :mod:`repro.verify.oracle` -- drives a trace through one model with
  per-step invariant checking (shadow-memory reads, LRU well-formedness,
  occupancy bounds, zero ``priv_inv:dev`` events, corrupted-bitmap
  consistency) and a final-memory resolution check.
* :mod:`repro.verify.differential` -- the fuzz campaign: every trace
  through every model, any failure is a divergence.
* :mod:`repro.verify.shrink` -- ddmin reduction of failing traces to
  minimal reproducers, emitted as replayable ``.npz`` + pytest stubs.
* :mod:`repro.verify.faults` -- protocol fault injection (drop/duplicate
  ``WB_DE``, drop ``GET_DE``, force ``DENF_NACK``) asserting detection
  or graceful degradation, never silent divergence.
* :mod:`repro.verify.checks` -- the per-step structural invariant suite
  (shared by the fuzz oracle and the model checker).
* :mod:`repro.verify.modelcheck` -- bounded-exhaustive exploration
  (``repro modelcheck``, the only one): a memoized snapshot frontier
  with canonical state dedup, counterexample prefixes replayable
  through the shrinker.
* :mod:`repro.verify.mutations` -- seeded protocol bugs proving the
  checkers catch what they claim to catch.
"""

from repro.verify.checks import check_step, dev_count
from repro.verify.differential import FuzzReport, run_campaign
from repro.verify.faults import FaultKind, FaultPlan, arm_fault
from repro.verify.modelcheck import (ModelCheckReport, check_matrix,
                                     explore_model, mutation_gate)
from repro.verify.models import ModelSpec, model_by_name, model_matrix
from repro.verify.mutations import (MUTATIONS, arm_mutation,
                                    mutant_spec, mutation_names)
from repro.verify.oracle import Outcome, run_trace
from repro.verify.shrink import emit_regression, shrink_trace
from repro.verify.tracegen import FuzzTrace, TraceGenerator

__all__ = [
    "FaultKind", "FaultPlan", "FuzzReport", "FuzzTrace",
    "MUTATIONS", "ModelCheckReport", "ModelSpec", "Outcome",
    "TraceGenerator", "arm_fault", "arm_mutation", "check_matrix",
    "check_step", "dev_count", "emit_regression", "explore_model",
    "model_by_name", "model_matrix",
    "mutant_spec", "mutation_gate", "mutation_names", "run_campaign",
    "run_trace", "shrink_trace",
]
