"""Scalar-vs-batched differential verification (``repro verify
--kernel-diff``).

The batched kernel's contract is *bit identity* (see
:mod:`repro.kernel`): for any workload on any model, the final
statistics, the final shadow memory, and the recorded event stream --
order, payloads, and step tags -- must equal the scalar runner's. This
module enforces the contract mechanically: it draws adversarial traces
from the differential fuzzer's generator (:mod:`repro.verify.tracegen`),
converts each into a per-core :class:`~repro.workloads.trace.Workload`,
and runs it twice on every model of the fuzz matrix
(:func:`repro.verify.models.model_matrix`) -- once under the scalar
reference and once under ``batched`` -- under full event recording,
diffing all three observables.

The fuzz patterns are exactly the right adversary here: they drive the
protocol through the directory-pressure regimes (WB_DE, fuse/spill,
DEV storms, corrupted-home forwarding) where the batched kernel must
*fall back* to the scalar path, so a classification bug that retires an
access it should not have surfaces as a stats or event diff within a few
dozen accesses.

A divergence is reported per (model, trace, observable); the trace
index and seed reproduce it exactly (``generator.trace(index)`` is a
pure function of ``(seed, index)``).
"""

from __future__ import annotations

import dataclasses
from copy import deepcopy
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.addressing import BLOCK_SHIFT
from repro.obs import EventBus, attach
from repro.verify.models import (ModelSpec, TRACE_CORES, micro_config,
                                 model_matrix)
from repro.verify.tracegen import FuzzTrace, TraceGenerator, TraceGeometry
from repro.workloads.trace import CoreTrace, Workload


class RecordingSink:
    """Obs sink keeping every event (the ring buffer caps capacity)."""

    def __init__(self) -> None:
        self.events: List = []

    def handle(self, event) -> None:
        self.events.append(event)


def workload_of(trace: FuzzTrace) -> Workload:
    """Split an interleaved fuzz trace into per-core runner streams.

    The fuzzer's global step order dissolves -- the runner re-interleaves
    the per-core streams by simulated time -- but both kernels see the
    *same* per-core streams, which is all the differential needs, and
    the per-core suffix of each adversarial pattern keeps its character
    (same blocks, same op mix, same set targets).
    """
    per_core: List[List[Tuple[int, int]]] = [[] for _ in
                                             range(trace.n_cores)]
    for core, op, block in trace.steps:
        per_core[core].append((op, block << BLOCK_SHIFT))
    traces = [CoreTrace(core,
                        np.array([s[0] for s in steps], dtype=np.int8),
                        np.array([s[1] for s in steps], dtype=np.int64))
              for core, steps in enumerate(per_core)]
    return Workload(trace.name, traces)


@dataclass
class KernelRun:
    """The three observables of one (model, trace, kernel) run."""

    stats: List[dict]                  # vars() snapshot per socket
    shadows: List[Dict[int, int]]      # committed versions per socket
    events: List                       # recorded Event stream


def capture(spec: ModelSpec, workload: Workload, kernel: str,
            check_every: int = 0) -> KernelRun:
    """Run ``workload`` on a fresh ``spec`` system under ``kernel``."""
    from repro.harness.runner import run_workload

    spec = dataclasses.replace(spec,
                               config=spec.config.with_(kernel=kernel))
    system = spec.build()
    bus = EventBus()
    recorder = RecordingSink()
    bus.subscribe(recorder)
    attach(system, bus)
    run_workload(system, workload, check_invariants_every=check_every)
    return KernelRun(
        [deepcopy(vars(socket.stats)) for socket in system.sockets],
        [dict(socket.shadow._latest)                 # noqa: SLF001
         for socket in system.sockets],
        recorder.events)


def diff_runs(scalar: KernelRun, batched: KernelRun) -> List[str]:
    """Human-readable field-level diffs (empty = bit-identical)."""
    diffs: List[str] = []
    for socket, (s, b) in enumerate(zip(scalar.stats, batched.stats)):
        for key in s:
            if s[key] != b[key]:
                diffs.append(f"stats[{socket}].{key}: "
                             f"scalar={s[key]!r} batched={b[key]!r}")
    for socket, (s, b) in enumerate(zip(scalar.shadows,
                                        batched.shadows)):
        if s != b:
            delta = {k for k in set(s) | set(b)
                     if s.get(k) != b.get(k)}
            diffs.append(f"shadow[{socket}]: {len(delta)} blocks "
                         f"disagree (e.g. {sorted(delta)[:4]})")
    if scalar.events != batched.events:
        limit = min(len(scalar.events), len(batched.events))
        at = next((i for i in range(limit)
                   if scalar.events[i] != batched.events[i]), limit)
        detail = (f"first mismatch at event {at}: "
                  f"scalar={scalar.events[at]!r} "
                  f"batched={batched.events[at]!r}"
                  if at < limit else
                  f"lengths differ: scalar={len(scalar.events)} "
                  f"batched={len(batched.events)}")
        diffs.append(f"events: {detail}")
    return diffs


@dataclass
class KernelDivergence:
    """One (model, trace) pair where the kernels disagreed."""

    model: str
    trace: FuzzTrace
    trace_index: int
    diffs: List[str]
    npz_path: Optional[str] = None

    def __str__(self) -> str:
        text = (f"{self.model} x {self.trace.name}: "
                + "; ".join(self.diffs))
        if self.npz_path:
            text += f" -> {self.npz_path}"
        return text


@dataclass
class KernelDiffReport:
    """Outcome of one kernel-diff campaign."""

    seed: int
    budget: int
    models: Tuple[str, ...]
    runs: int = 0
    divergences: List[KernelDivergence] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def summary(self) -> str:
        lines = [f"kernel-diff seed={self.seed} budget={self.budget}: "
                 f"{self.budget} traces x {len(self.models)} models, "
                 f"{self.runs} kernel pairs"]
        for divergence in self.divergences:
            lines.append(f"  DIVERGENCE: {divergence}")
        if self.ok:
            lines.append("  scalar and batched kernels are bit-identical")
        return "\n".join(lines)


def run_kernel_diff(seed: int, budget: int,
                    models: Optional[Sequence[ModelSpec]] = None,
                    check_every: int = 0,
                    steps_per_trace: int = 48,
                    out_dir=None) -> KernelDiffReport:
    """Run a ``budget``-trace scalar-vs-batched campaign.

    Reproducible: traces are pure functions of ``(seed, index)``.
    ``out_dir`` receives a replayable ``.npz`` per divergent trace.
    """
    specs = list(models) if models is not None else model_matrix()
    geometry = TraceGeometry.of(micro_config())
    generator = TraceGenerator(geometry, seed,
                               steps_per_trace=steps_per_trace)
    report = KernelDiffReport(seed, budget,
                              tuple(spec.name for spec in specs))
    for index in range(budget):
        trace = generator.trace(index)
        workload = workload_of(trace)
        for spec in specs:
            scalar = capture(spec, workload, "scalar", check_every)
            batched = capture(spec, workload, "batched", check_every)
            report.runs += 1
            diffs = diff_runs(scalar, batched)
            if not diffs:
                continue
            divergence = KernelDivergence(spec.name, trace, index,
                                          diffs)
            if out_dir is not None:
                from pathlib import Path
                out = Path(out_dir)
                out.mkdir(parents=True, exist_ok=True)
                npz = out / f"kerneldiff-{spec.name}-{trace.name}.npz"
                trace.save(npz)
                divergence.npz_path = str(npz)
            report.divergences.append(divergence)
    return report


__all__ = ["KernelDiffReport", "KernelDivergence", "KernelRun",
           "RecordingSink", "capture", "diff_runs", "run_kernel_diff",
           "workload_of", "TRACE_CORES"]
