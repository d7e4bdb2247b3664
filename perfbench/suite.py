"""The benchmark's workloads: what one batch runs and how it is checked.

Every workload is a closed loop: one process issues batches back to
back.  A simulation batch is one ``run_many(specs, jobs=1, cache=None)``
call -- the call the figures make, with the result cache bypassed so a
repeated spec is simulated again -- over freshly built systems, so the
modelled caches start empty in every run, as in the figures.  A verify
batch is two ``explore_model`` calls and one ``run_campaign``.  README.md
says why each workload exists.

Program entry points are looked up on their modules at call time, so
the traced run's wrappers (``layers.py``) see every call.
"""

from __future__ import annotations

from statistics import median
from time import perf_counter

from repro.common.config import CacheGeometry, DirectoryConfig
from repro.harness import experiments, parallel
from repro.verify import differential, modelcheck
from repro.verify.models import model_by_name, model_matrix
from repro.workloads.suites import suite_profiles

import reference

#: Figure configurations by the labels fig4/fig19/fig21/fig_contenders
#: give them.  ``base`` is ``default_config()`` = ``scaled_socket(16)``.
SIM_CONFIGS = {
    "Base-1/32x": lambda base: base.with_(
        directory=DirectoryConfig(ratio=1 / 32)),
    "Base-1x": lambda base: base,
    "ZDev-NoDir": lambda base: experiments.zerodev_config(base, ratio=None),
    "ZDev-1/4LLC": lambda base: experiments.zerodev_config(
        base, ratio=None,
        llc=CacheGeometry(base.llc.size_bytes // 4, base.llc.ways)),
}

#: workload -> (config labels, (suite, app) pairs); every config runs
#: every app.
SIM_WORKLOADS = {
    "starved": (("Base-1/32x",),
                (("PARSEC", "canneal"), ("PARSEC", "streamcluster"),
                 ("CPU2017", "xalancbmk"))),
    "resident": (("Base-1x", "ZDev-NoDir"),
                 (("PARSEC", "blackscholes"), ("PARSEC", "swaptions"),
                  ("CPU2017", "leela"), ("CPU2017", "povray"))),
    "zdev-pressure": (("ZDev-1/4LLC",),
                      (("SPLASH2X", "lu_ncb"), ("SPLASH2X", "ocean_cp"),
                       ("PARSEC", "freqmine"))),
}

#: The verify workload: two explorations at a fixed depth (one of them
#: the only path that runs the multisocket layer) and a 16-model fuzz
#: campaign at the CI fuzz-smoke worker count, without shrinking.
VERIFY_MODELS = ("zerodev-fuse-private-spill-shared", "zerodev-2socket-sol1")
VERIFY_DEPTH = 4
FUZZ_BUDGET = 12
FUZZ_JOBS = 2

WORKLOADS = tuple(SIM_WORKLOADS) + ("verify",)


class Batch:
    """One timed batch: its host wall-clock, the same at the reference
    interpreter speed (``seconds``, summed over its timed parts; see
    ``speed.py``), and what the program returned."""

    def __init__(self, wall: float, seconds: float, **parts) -> None:
        self.wall = wall
        self.seconds = seconds
        self.parts = parts

    @property
    def scale(self) -> float:
        return self.seconds / self.wall


def timed(meter, call):
    """``(result, wall, seconds at the reference speed)`` of ``call()``."""
    mark = meter.mark()
    started = perf_counter()
    result = call()
    wall = perf_counter() - started
    return result, wall, meter.rescale(wall, mark)


class SimWorkload:
    """A figure-scale simulation workload."""

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.seed = seed
        self.specs = []

    def setup(self) -> None:
        base = experiments.default_config()
        labels, apps = SIM_WORKLOADS[self.name]
        profiles = {}
        for suite, app in apps:
            profiles[app] = next(p for p in suite_profiles(suite)
                                 if p.name == app)
        workloads = {app: experiments.workload_for(profiles[app], suite,
                                                   base, self.seed)
                     for suite, app in apps}
        self.specs = [(f"{label}/{app}", SIM_CONFIGS[label](base),
                       workloads[app])
                      for label in labels for _suite, app in apps]

    @property
    def labels(self):
        return [label for label, _config, _workload in self.specs]

    def label_of(self, config, workload) -> str:
        """The label of one (config, workload) run of this workload."""
        for label, our_config, our_workload in self.specs:
            if config is our_config and workload is our_workload:
                return label
        return workload.name

    @property
    def ops_per_batch(self) -> int:
        return len(self.specs)

    def run_batch(self, meter) -> Batch:
        pairs = [(config, workload) for _l, config, workload in self.specs]
        results, wall, seconds = timed(
            meter, lambda: parallel.run_many(pairs, jobs=1, cache=None))
        return Batch(wall, seconds, results=results)

    def expected_accesses(self):
        return [sum(len(trace) for trace in workload.traces)
                for _l, _c, workload in self.specs]

    def digests(self, batch: Batch) -> dict:
        return {label: reference.stats_digest(result.stats)
                for (label, _c, _w), result
                in zip(self.specs, batch.parts["results"])}

    def check(self, batch: Batch, want: dict):
        """``(failed runs, messages)``: every access must have been
        simulated and each run's stats digest must equal ``want``'s
        (label -> digest)."""
        failures = []
        digests = self.digests(batch)
        for (label, _c, _w), result, expected in zip(
                self.specs, batch.parts["results"],
                self.expected_accesses()):
            if result.stats.total_accesses != expected:
                failures.append(f"{label}: simulated "
                                f"{result.stats.total_accesses} of "
                                f"{expected} accesses")
            elif digests[label] != want.get(label):
                failures.append(f"{label}: stats digest {digests[label]} "
                                f"!= reference {want.get(label)}")
        return len(failures), failures

    def info(self, batches) -> dict:
        """End-to-end figures in the simulator's own units, from the
        median batch at the reference speed."""
        results = batches[0].parts["results"]
        accesses = sum(r.stats.total_accesses for r in results)
        cycles = sum(sum(r.stats.cycles) for r in results)
        seconds = median(b.seconds for b in batches)
        return {"sim_accesses_per_s": (accesses / seconds, "accesses/s"),
                "sim_cycles_per_access": (cycles / accesses,
                                          "cycles/access")}


class VerifyWorkload:
    """Model checking and differential fuzzing."""

    name = "verify"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.specs = []
        self.matrix = []

    def setup(self) -> None:
        self.specs = [model_by_name(name) for name in VERIFY_MODELS]
        self.matrix = model_matrix()
        for spec in self.matrix:
            spec.build()

    @property
    def labels(self):
        return []

    def label_of(self, _config, workload) -> str:
        return workload.name

    @property
    def ops_per_batch(self) -> int:
        return len(self.specs) + FUZZ_BUDGET * len(self.matrix)

    def run_batch(self, meter) -> Batch:
        """Each part is rescaled by the probes taken during it: the
        campaign's come mostly from its forked workers."""
        reports, explore_wall, explore_s = timed(meter, lambda: [
            modelcheck.explore_model(spec, VERIFY_DEPTH, jobs=1)
            for spec in self.specs])
        fuzz, fuzz_wall, fuzz_s = timed(
            meter, lambda: differential.run_campaign(
                self.seed, FUZZ_BUDGET, jobs=FUZZ_JOBS, shrink=False))
        return Batch(explore_wall + fuzz_wall, explore_s + fuzz_s,
                     reports=reports, fuzz=fuzz, explore_s=explore_s,
                     fuzz_s=fuzz_s)

    def check(self, batch: Batch, pinned_explore: dict, pinned_fuzz):
        """``(failed operations, messages)``.  An exploration fails on a
        counterexample or an identity that differs from the pinned one;
        a fuzz run fails if it diverges, disagrees on final memory, or
        is lost.  A clean campaign whose summary differs from a pinned
        one counts as one failure."""
        failures = []
        failed = 0
        for report in batch.parts["reports"]:
            key = f"{report.model}@{report.depth}"
            digest = reference.explore_digest(report)
            pinned = pinned_explore.get(key, {}).get("digest")
            if not report.ok:
                failures.append(f"{key}: {report.summary()}")
                failed += 1
            elif digest != pinned:
                failures.append(f"{key}: identity digest {digest} != "
                                f"pinned {pinned}")
                failed += 1
        fuzz = batch.parts["fuzz"]
        runs = FUZZ_BUDGET * len(self.matrix)
        lost = max(0, runs - fuzz.runs)
        failures += [f"fuzz: {divergence}"
                     for divergence in fuzz.divergences]
        failures += [f"fuzz: {text}" for text in
                     fuzz.digest_mismatches + fuzz.harness_failures]
        bad = len(fuzz.divergences) + len(fuzz.digest_mismatches) + lost
        summary = reference.fuzz_summary(fuzz)
        if not bad and pinned_fuzz is not None and summary != pinned_fuzz:
            failures.append(f"fuzz: report {summary} != pinned "
                            f"{pinned_fuzz}")
            bad = 1
        return failed + min(bad, runs), failures

    def info(self, batches) -> dict:
        """Throughput of each part, from its median at the reference
        speed."""
        states = sum(r.unique_states for r in batches[0].parts["reports"])
        explore = median(b.parts["explore_s"] for b in batches)
        fuzz = median(b.parts["fuzz_s"] for b in batches)
        return {"mc_states_per_s": (states / explore, "states/s"),
                "fuzz_traces_per_s": (FUZZ_BUDGET / fuzz, "traces/s")}


def make(name: str, seed: int):
    if name == "verify":
        return VerifyWorkload(seed)
    if name in SIM_WORKLOADS:
        return SimWorkload(name, seed)
    raise KeyError(name)

