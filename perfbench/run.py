"""Figure-scale benchmark of the repro simulator and verifier.

Run from the repository root::

    python3 perfbench/run.py --workload starved --seed 11 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` alternates untraced and traced batches and reports the
per-layer metrics of the traced ones.  Every line but the last is for
people; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Span aggregates and the
recorded environment land in ``perfbench/out/``.  README.md describes
the workloads and metrics.
"""

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

from speed import SpeedMeter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Every REPRO_* variable the program reads, pinned to the figures'
#: defaults rather than inherited; ``None`` means unset (the program's
#: own default: the config's kernel, no persistent result store, no
#: campaign timeout or retry override).
PINNED_ENV = {
    "REPRO_KERNEL": None,
    "REPRO_JOBS": "1",
    "REPRO_CACHE_DIR": None,
    "REPRO_STORE": None,
    "REPRO_ACCESSES": "6000",
    "REPRO_SCALE": "16",
    "REPRO_FULL": "0",
    "REPRO_RUN_TIMEOUT": None,
    "REPRO_RETRIES": None,
}

#: Extra set-ups, each in a fresh process, that join this process's own
#: in the median ``setup_s``.  They run between batches, spread over
#: the run, so they sample the same machine phases the batches do.
SETUP_PROBES = 6

UNITS = {"setup_s": "s", "batch_s": "s", "peak_rss_mb": "MB"}


def pin_environment() -> None:
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    for name, value in PINNED_ENV.items():
        if value is not None:
            os.environ[name] = value


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=11,
                        help="workload seed (default 11, the figures')")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", default=None,
                        help="pinned reference file (default: "
                             "perfbench/reference.json)")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def environment_record(kernel: str) -> dict:
    return {"kernel": kernel, "cpu_count": os.cpu_count(),
            "affinity": sorted(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "pinned_env": PINNED_ENV}


def probe_setup(args) -> float:
    """Set-up time of a fresh process running the same workload."""
    command = [sys.executable, str(HERE / "run.py"), "--workload",
               args.workload, "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True,
                          text=True, timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def measure(workload, meter, seconds: float, before=None, after=None,
            between=None):
    """Run batches back to back for about ``seconds``.  ``before`` and
    ``after`` bracket every other batch (the traced ones);
    ``between(progress)`` runs after each round, outside the batches.
    Returns the plain batches, the bracketed ones, and whether a batch
    raised (which ends the measurement)."""
    plain, bracketed = [], []
    started = time.perf_counter()
    try:
        while True:
            plain.append(workload.run_batch(meter))
            if before is not None:
                before()
                try:
                    bracketed.append(workload.run_batch(meter))
                finally:
                    after()
            if between is not None:
                between((time.perf_counter() - started) / seconds)
            spent = time.perf_counter() - started
            per_round = median(b.wall for b in plain) + (
                median(b.wall for b in bracketed) if bracketed else 0.0)
            if spent + per_round > seconds:
                return plain, bracketed, False
    except Exception:                  # noqa: BLE001 - counted as failed
        traceback.print_exc()
        return plain, bracketed, True


def check(workload, batches, pinned: dict, seed: int):
    """``(attempted, failed, messages, reference kind)`` over batches."""
    failed, messages = 0, []
    if workload.name == "verify":
        fuzz = pinned.get("fuzz", {}).get(str(seed))
        for batch in batches:
            bad, text = workload.check(batch, pinned.get("explore", {}),
                                       fuzz)
            failed += bad
            messages += text
        kind = "pinned" if fuzz is not None else "pinned explorations"
    else:
        want = pinned.get("sim", {}).get(workload.name, {}).get(str(seed))
        kind = "pinned"
        if want is None:
            # No pinned reference for this seed: every batch must repeat
            # the first one exactly.
            want, kind = workload.digests(batches[0]), "first batch"
        for batch in batches:
            bad, text = workload.check(batch, want)
            failed += bad
            messages += text
    return len(batches) * workload.ops_per_batch, failed, messages, kind


def main(argv=None) -> int:
    meter = SpeedMeter()
    meter.start()
    try:
        return run(parse_args(argv), meter)
    finally:
        meter.stop()


def run(args, meter) -> int:
    pin_environment()
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import suite
    from repro.common.config import resolve_kernel
    from repro.harness.experiments import default_config

    if args.workload not in suite.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(suite.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = suite.make(args.workload, args.seed)
    env = environment_record(resolve_kernel(default_config()))

    log = patches = None
    if args.trace:
        import layers
        from spans import SpanLog
        log = SpanLog()
        patches = layers.build_patches(log, workload.label_of)
        patches.install()
    workload.setup()
    setup_wall = time.perf_counter() - _PROCESS_START
    setup_s = meter.rescale(setup_wall, 0)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    setups = [setup_s]

    def probe(progress: float) -> None:
        if (len(setups) <= SETUP_PROBES
                and progress >= len(setups) / (SETUP_PROBES + 1)):
            setups.append(probe_setup(args))

    if patches is not None:
        patches.uninstall()
        # Spans outside any run now belong to the batches.
        log.current = log.run("batch")
        log.covered = 0.0

    import reference
    pinned = reference.load(args.reference)
    if patches is None:
        plain, traced, raised = measure(workload, meter, args.seconds,
                                        between=probe)
        while len(setups) <= SETUP_PROBES:
            setups.append(probe_setup(args))
    else:
        plain, traced, raised = measure(workload, meter, args.seconds,
                                        before=patches.install,
                                        after=patches.uninstall)
    if not plain or (patches is not None and not traced):
        print("perfbench: no batch completed", file=sys.stderr)
        return 1
    attempted, failed, messages, kind = check(workload, plain + traced,
                                              pinned, args.seed)
    if raised:
        attempted += workload.ops_per_batch
        failed += workload.ops_per_batch
    for text in messages[:20]:
        print(f"FAILED {text}", file=sys.stderr)

    info = workload.info(plain)
    info["batch_wall_s"] = (median(b.wall for b in plain), "s")
    info["host_speed"] = (median(b.scale for b in plain), "ratio")
    info["failed_frac"] = (failed / attempted, "fraction")
    if patches is None:
        metrics = {
            "setup_s": median(setups),
            "batch_s": median(b.seconds for b in plain),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = UNITS
        problems = []
    else:
        metrics, problems = layers.derive(log, traced, plain, workload,
                                          setup_s / setup_wall)
        units = layers.UNITS
        for text in problems:
            print(f"TRACE {text}", file=sys.stderr)

    print(f"# workload {workload.name} seed {args.seed}: "
          f"{len(plain)} batches"
          + (f" + {len(traced)} traced" if traced else "")
          + f", reference: {kind}")
    print("# environment " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in info.items():
        print(f"{name} {value:.6g} {unit}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")

    OUT.mkdir(exist_ok=True)
    record = {"workload": workload.name, "seed": args.seed,
              "trace": args.trace, "environment": env,
              "batch_walls": [b.wall for b in plain],
              "batch_scales": [b.scale for b in plain],
              "traced_walls": [b.wall for b in traced],
              "traced_scales": [b.scale for b in traced],
              "info": {k: v[0] for k, v in info.items()},
              "metrics": metrics, "failures": messages,
              "trace_problems": problems,
              "spans": None if log is None else log.runs}
    target = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    target.write_text(json.dumps(record, indent=1, sort_keys=True))

    result = {"correct": failed == 0 and not problems,
              "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
