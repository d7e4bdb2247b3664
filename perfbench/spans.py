"""Per-layer spans recorded from outside the program.

The traced run wraps the public calls of each ``repro`` sub-package (a
*layer*) and aggregates every span in memory per (run, span name) as a
call count, a total and a child time.  A span's self time is its
duration minus the time its child spans cover, so the self times of
all spans opened inside a window sum to the part of the window that
some top-level span covers; the rest is ``other``.

Fuzz campaigns run each (trace, model) item in a forked worker.  The
wrapped oracle call resets the inherited copy of the log in the worker
and ships that item's spans back on the returned ``Outcome``; the
wrapped ``campaign_map`` merges them.  With ``jobs`` workers running
side by side, a worker span occupies ``1/jobs`` of the parent's
wall-clock, so merged spans count at ``1/jobs`` of their duration: the
self times stay shares of the parent's wall, and what remains as
fan-out self time is the wall-clock that fork, IPC and idle worker
slots add.

Nothing here changes what the program computes: wrappers call the
original function with the original arguments and return its result.
"""

from __future__ import annotations

import functools
import inspect
import os
from time import perf_counter

#: Attribute carrying a worker's spans back on a fuzz ``Outcome``.
WORKER_SPANS = "perfbench_spans"


class SpanLog:
    """In-memory span aggregates, keyed by run id and span name."""

    def __init__(self) -> None:
        self.main_pid = os.getpid()
        self.runs = {}
        self.stack = []
        self.current = self.run("setup")
        #: Wall-clock covered by top-level spans since the last reset.
        self.covered = 0.0

    def run(self, run_id: str) -> dict:
        """The aggregate table of one run (created on first use)."""
        return self.runs.setdefault(run_id, {})

    def add(self, name: str, count: int, total: float = 0.0,
            child: float = 0.0) -> None:
        record = self.current.get(name)
        if record is None:
            record = self.current[name] = [0, 0.0, 0.0]
        record[0] += count
        record[1] += total
        record[2] += child

    def reset_worker(self) -> None:
        """Forget what a forked worker inherited from its parent."""
        self.runs = {}
        self.stack = []
        self.current = self.run("worker")
        self.covered = 0.0

    # ------------------------------------------------------------------
    # Read-out
    # ------------------------------------------------------------------
    def totals(self) -> dict:
        """name -> [count, total, child] summed over every run but the
        set-up."""
        merged = {}
        for run_id, table in self.runs.items():
            if run_id == "setup":
                continue
            for name, (count, total, child) in table.items():
                record = merged.setdefault(name, [0, 0.0, 0.0])
                record[0] += count
                record[1] += total
                record[2] += child
        return merged


def _record(log: SpanLog, name: str, elapsed: float, child: float) -> None:
    record = log.current.get(name)
    if record is None:
        record = log.current[name] = [0, 0.0, 0.0]
    record[0] += 1
    record[1] += elapsed
    record[2] += child
    if log.stack:
        log.stack[-1] += elapsed
    else:
        log.covered += elapsed


def span(log: SpanLog, name: str, fn):
    """Wrap ``fn`` so each call is one ``name`` span."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = log.stack
        stack.append(0.0)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            _record(log, name, elapsed, stack.pop())
    return wrapper


def retire_span(log: SpanLog, name: str, fn):
    """``SlotKernel.retire_run``: a span that also counts the accesses
    each call retires in bulk (``new_pos - pos``)."""
    @functools.wraps(fn)
    def wrapper(self, pos, *args, **kwargs):
        stack = log.stack
        stack.append(0.0)
        start = perf_counter()
        try:
            result = fn(self, pos, *args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            _record(log, name, elapsed, stack.pop())
        log.add("kernel.retired", result[0] - pos)
        return result
    return wrapper


def scoped_span(log: SpanLog, name, fn, label):
    """A span that also opens a run: spans closing inside it aggregate
    under the run id ``label(*args, **kwargs)``.  With ``name=None`` no
    span is recorded and the caller's span keeps the time."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        run_id = label(*args, **kwargs)
        outer = log.current
        log.current = log.run(run_id)
        try:
            if name is None:
                return fn(*args, **kwargs)
            stack = log.stack
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                _record(log, name, elapsed, stack.pop())
        finally:
            log.current = outer
    return wrapper


def worker_span(log: SpanLog, name: str, fn):
    """The fuzz oracle: in a forked worker, record the item's spans on
    a fresh log and attach them to the returned ``Outcome``."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        in_worker = os.getpid() != log.main_pid
        if in_worker:
            log.reset_worker()
        stack = log.stack
        stack.append(0.0)
        start = perf_counter()
        try:
            outcome = fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            _record(log, name, elapsed, stack.pop())
        if in_worker:
            setattr(outcome, WORKER_SPANS,
                    {"covered": log.covered, "spans": log.current})
        return outcome
    return wrapper


def fanout_span(log: SpanLog, name: str, fn):
    """``campaign_map``: merge the spans workers shipped back, at
    ``1/jobs`` of their duration (see the module docstring)."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = log.stack
        stack.append(0.0)
        start = perf_counter()
        try:
            outcomes = fn(*args, **kwargs)
            share = 1.0 / max(1, min(kwargs.get("jobs", 1), len(outcomes)))
            shipped = 0
            for outcome in outcomes:
                value = getattr(outcome, "value", None)
                payload = getattr(value, WORKER_SPANS, None)
                if payload is None:
                    continue
                delattr(value, WORKER_SPANS)
                shipped += 1
                stack[-1] += payload["covered"] * share
                for span_name, (count, total, child) in \
                        payload["spans"].items():
                    log.add(span_name, count, total * share, child * share)
            log.add("harness.fanout_items", len(outcomes))
            log.add("harness.fanout_items_traced", shipped)
            return outcomes
        finally:
            elapsed = perf_counter() - start
            _record(log, name, elapsed, stack.pop())
    return wrapper


def public_methods(cls, exclude=("check_invariants",)):
    """Names of the plain functions ``cls`` itself defines publicly."""
    return [attr for attr, value in vars(cls).items()
            if not attr.startswith("_") and attr not in exclude
            and inspect.isfunction(value)]


class Patches:
    """A reversible set of attribute replacements."""

    def __init__(self) -> None:
        self._plan = []
        self._saved = []

    def add(self, owner, attr: str, wrapped) -> None:
        self._plan.append((owner, attr, wrapped))

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("patches already installed")
        for owner, attr, wrapped in self._plan:
            self._saved.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
