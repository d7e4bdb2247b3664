"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``
    Show the available figure experiments and workload suites.
``run FIGURE``
    Run one figure experiment (e.g. ``fig19``, ``energy``) and print its
    paper-versus-measured table plus a bar chart of the headline series.
``demo``
    The quickstart comparison: baseline 1x versus ZeroDEV with no
    directory on one workload.
``trace APP PATH``
    Generate a workload for a named application and save it as ``.npz``
    -- or, when ``PATH`` ends in ``.jsonl`` (or ``--events`` is given),
    run the workload with structured event tracing enabled: the JSONL
    event stream and its ``*.timeseries.json`` sibling are written to
    ``PATH`` and a terminal report is printed (see ``repro report``).
``report [TRACE.jsonl]``
    With a path: render the observability report for that event trace
    or campaign journal (``--html``: as one self-contained HTML file).
    Without: rebuild EXPERIMENTS.md from the archived benchmark tables.
``simulate PATH``
    Run a saved trace bundle under a chosen protocol and print stats.
``verify --kernel-diff``
    The scalar-vs-batched kernel differential: seeded fuzz traces through
    the whole model matrix under both access kernels, which must agree
    bit for bit. Without ``--kernel-diff`` it refuses with one line
    naming ``modelcheck`` and ``fuzz``.
``modelcheck``
    The bounded-exhaustive model checker: a BFS snapshot frontier with
    canonical-state dedup over the micro alphabet, across the whole
    model matrix (or ``--models``). ``--mutations`` runs the seeded-bug
    gate (every mutation caught by modelcheck, at least one missed by
    the fixed-budget fuzz baseline); ``--out`` saves counterexample
    prefixes as ``repro shrink``-compatible ``.npz`` traces.
``fuzz``
    Differential fuzzing: seeded adversarial traces through the whole
    model matrix with per-step invariant checking; failures are ddmin-
    shrunk to minimal reproducers. ``--inject`` turns the campaign into
    a fault-injection soak; ``--resume JOURNAL`` checkpoints completed
    runs and skips them when the campaign is re-executed.
``shrink TRACE.npz``
    Re-shrink a saved fuzz trace against one model and emit the
    reduced ``.npz`` + pytest regression stub.
"""

from __future__ import annotations

import argparse
import os
import sys
import zipfile

from repro.common.config import (DirCachingPolicy, DirectoryConfig,
                                 LLCDesign, LLCReplacement, Protocol,
                                 scaled_socket)
from repro.common.errors import ConfigError
from repro.harness import experiments
from repro.harness.parallel import parse_number
from repro.harness.reporting import ascii_bars
from repro.harness.runner import run_workload
from repro.harness.system_builder import build_system
from repro.workloads.suites import SUITES, find_profile
from repro.workloads.trace import Workload

EXPERIMENTS = {
    "fig2": experiments.fig2_unbounded_rate,
    "fig3": experiments.fig3_unbounded_multithreaded,
    "fig4": experiments.fig4_directory_sizes,
    "fig5": experiments.fig5_llc_occupancy,
    "fig6": experiments.fig6_llc_ways,
    "fig17": experiments.fig17_policy_selection,
    "fig18": experiments.fig18_replacement_selection,
    "fig19": experiments.fig19_parsec,
    "fig20": experiments.fig20_splash_omp_fftw,
    "fig21": experiments.fig21_cpu2017_rate,
    "fig22": experiments.fig22_llc_capacity,
    "fig23": experiments.fig23_heterogeneous,
    "fig24": experiments.fig24_server,
    "fig25": experiments.fig25_epd_inclusive,
    "fig26": experiments.fig26_mgd,
    "fig27": experiments.fig27_secdir,
    "contenders": experiments.fig_contenders,
    "energy": experiments.energy_comparison,
    "multisocket": experiments.multisocket_comparison,
}


def _profile(name: str):
    """The named application's profile; an unknown name is a one-line
    error listing the known applications."""
    try:
        return find_profile(name)
    except KeyError:
        known = ", ".join(sorted(profile.name for profiles in SUITES.values()
                                 for profile in profiles))
        raise ConfigError(f"unknown application {name!r}; known "
                          f"applications: {known}") from None


def _trace_file(path: str) -> str:
    """``path`` if it names a file, else a one-line error."""
    if not os.path.isfile(path):
        raise ConfigError(f"no such trace: {path}")
    return path


def _load(loader, path: str, what: str):
    """``loader(path)`` on an existing ``.npz``; a missing file, or a
    file of another kind, is a one-line error naming ``what`` the
    command reads."""
    try:
        return loader(_trace_file(path))
    except (KeyError, ValueError, zipfile.BadZipFile):
        raise ConfigError(f"not {what}: {path}") from None


def _command_list(_args) -> int:
    print("experiments:")
    for name, fn in EXPERIMENTS.items():
        lines = (fn.__doc__ or "").strip().splitlines()
        print(f"  {name:<12} {lines[0] if lines else ''}")
    print("\nsuites:")
    for suite, profiles in SUITES.items():
        names = ", ".join(p.name for p in profiles)
        print(f"  {suite:<10} {names}")
    return 0


def _command_run(args) -> int:
    if args.accesses is not None:
        os.environ["REPRO_ACCESSES"] = str(args.accesses)
    if args.full:
        os.environ["REPRO_FULL"] = "1"
    if args.jobs is not None:
        os.environ["REPRO_JOBS"] = str(args.jobs)
    experiment = EXPERIMENTS[args.figure]
    table, _results = experiment()
    table.show()
    chart_rows = [r for r in table.rows if 0.0 < r.measured < 4.0]
    if len(chart_rows) >= 2:
        print()
        print(ascii_bars([r.measured for r in chart_rows],
                         [r.label for r in chart_rows]))
    meta = table.metadata
    if meta.get("runs_executed") or meta.get("cache_hits"):
        print(f"\n[{meta.get('runs_executed', 0)} runs "
              f"({meta.get('cache_hits', 0)} cached), "
              f"{meta.get('experiment_wall_seconds', 0.0):.1f}s wall, "
              f"{meta.get('aggregate_accesses_per_second', 0):,} "
              f"simulated accesses/s "
              f"({meta.get('accesses_per_second', 0):,}/s per run), "
              f"jobs={meta.get('jobs', 1)}, "
              f"cpus={meta.get('cpu_count', 1)}]")
    return 0


def _command_demo(args) -> int:
    config = scaled_socket()
    profile = _profile(args.app)
    from repro.workloads.suites import make_multithreaded
    workload = make_multithreaded(profile, config, args.accesses, seed=5)

    baseline = build_system(config)
    run_workload(baseline, workload)
    zerodev = build_system(config.with_(
        protocol=Protocol.ZERODEV, directory=DirectoryConfig(ratio=None),
        llc_replacement=LLCReplacement.DATA_LRU))
    run_workload(zerodev, workload)
    base, zdev = baseline.stats, zerodev.stats
    print(f"{args.app}: baseline {base.total_cycles:,} cycles, "
          f"{base.dev_invalidations:,} DEVs; "
          f"ZeroDEV-NoDir {zdev.total_cycles:,} cycles, "
          f"{zdev.dev_invalidations} DEVs "
          f"(speedup {base.total_cycles / zdev.total_cycles:.3f})")
    return 0


def _command_verify(args) -> int:
    """Scalar-vs-batched bit-identity differential (repro.kernel).

    Anything else, including the retired exploration options, is refused
    with one line naming what replaced it."""
    if not args.kernel_diff:
        raise ConfigError(
            "repro verify runs only --kernel-diff; for bounded-exhaustive "
            "checking run repro modelcheck --models NAME --depth N, for "
            "sampled traces repro fuzz")
    from repro.kernel.diff import run_kernel_diff

    report = run_kernel_diff(
        seed=args.seed if args.seed is not None else 0,
        budget=args.budget,
        check_every=args.check_every,
        steps_per_trace=args.steps_per_trace, out_dir=args.out)
    print(report.summary())
    return 0 if report.ok else 1


def _option_list(option: str, text: str, parse=str) -> list:
    """The non-blank items of a comma-separated option, each through
    ``parse``.  An empty list or a repeated item is refused: the run
    would check nothing, or check the same thing twice, and exit 0."""
    values = [parse(item.strip()) for item in text.split(",")
              if item.strip()]
    if not values:
        raise ConfigError(f"{option} names nothing")
    repeated = sorted({value for value in values if values.count(value) > 1})
    if repeated:
        raise ConfigError(
            f"{option} repeats {', '.join(map(str, repeated))}")
    return values


def _block_number(item: str) -> int:
    """One ``--blocks`` item: a non-negative integer (any base prefix)."""
    try:
        block = int(item, 0)
    except ValueError:
        raise ConfigError(
            f"--blocks item {item!r} is not an integer") from None
    if block < 0:
        raise ConfigError(f"--blocks item {item!r} is negative")
    return block


def _command_modelcheck(args) -> int:
    """Memoized bounded-exhaustive checking (see PROTOCOL.md §6)."""
    from repro.harness.parallel import default_jobs
    from repro.verify.modelcheck import (MICRO_BLOCKS, explore_model,
                                         mutation_gate)
    from repro.verify.models import model_by_name, model_matrix

    specs = (list(model_matrix()) if args.models is None
             else [model_by_name(name)
                   for name in _option_list("--models", args.models)])
    blocks = (MICRO_BLOCKS if args.blocks is None
              else tuple(_option_list("--blocks", args.blocks,
                                      _block_number)))
    jobs = args.jobs if args.jobs is not None else default_jobs()
    symmetry = bool(args.symmetry)

    if args.mutations:
        verdicts = mutation_gate(jobs=jobs, symmetry=symmetry)
        for verdict in verdicts:
            print(verdict.summary())
        caught = all(v.caught_by_modelcheck for v in verdicts)
        missed = sum(not v.fuzz_caught for v in verdicts)
        print(f"gate: {len(verdicts)} mutations, "
              f"{'all' if caught else 'NOT all'} caught by modelcheck, "
              f"{missed} missed by the fuzz baseline")
        return 0 if caught else 1

    kwargs = {}
    if args.max_states is not None:
        kwargs["max_states"] = args.max_states
    reports = []
    for spec in specs:
        report = explore_model(spec, args.depth, blocks=blocks,
                               mutation=args.mutation or "",
                               budget_s=args.budget_s, jobs=jobs,
                               symmetry=symmetry, **kwargs)
        print(report.summary())
        reports.append(report)
    failures = [r for r in reports if not r.ok]
    if args.out and failures:
        os.makedirs(args.out, exist_ok=True)
        for report in failures:
            trace = report.counterexample_trace()
            path = os.path.join(args.out, f"{trace.name}.npz")
            trace.save(path)
            print(f"wrote {path}")
    total = sum(r.unique_states for r in reports)
    checked = sum(r.transitions for r in reports)
    print(f"{len(reports)} models: {total:,} unique states, "
          f"{checked:,} transitions checked, "
          f"{len(failures)} counterexample(s)")
    return 1 if failures else 0


#: A campaign whose completed runs are all clean but which is missing
#: results (worker crash / timeout after retries): resumable, not failed.
EXIT_PARTIAL = 3


def _command_fuzz(args) -> int:
    """Differential fuzzing / fault injection (see PROTOCOL.md §7)."""
    from repro.harness.campaign import CampaignPolicy
    from repro.verify import run_campaign
    from repro.verify.faults import FaultKind, FaultPlan

    if args.resume is not None and os.path.isdir(args.resume):
        raise ConfigError("--resume needs a campaign journal file, not a "
                          f"directory: {args.resume}")
    fault = None
    if args.inject:
        fault = FaultPlan(FaultKind(args.inject), at=args.at)
    policy = CampaignPolicy(retries=args.retries,
                            run_timeout=args.run_timeout)
    report = run_campaign(
        seed=args.seed, budget=args.budget, jobs=args.jobs or 1,
        check_every=args.check_every, fault=fault,
        shrink=not args.no_shrink, out_dir=args.out,
        policy=policy, resume=args.resume)
    print(report.summary())
    if report.ok:
        return 0
    return EXIT_PARTIAL if report.partial else 1


def _command_shrink(args) -> int:
    """Reduce a saved fuzz trace to a minimal reproducer."""
    from repro.verify import (FuzzTrace, emit_regression, model_by_name,
                              run_trace, shrink_trace)
    from repro.verify.faults import FaultKind, FaultPlan

    trace = _load(FuzzTrace.load, args.path, "a fuzz trace")
    spec = model_by_name(args.model)
    fault = None
    if args.inject:
        fault = FaultPlan(FaultKind(args.inject), at=args.at)
    outcome = run_trace(spec, trace, fault=fault)
    if outcome.ok:
        print(f"{trace!r} passes on {spec.name}; nothing to shrink")
        return 0
    minimized, final = shrink_trace(spec, trace, reference=outcome,
                                    fault=fault)
    print(f"shrunk {len(trace)} -> {len(minimized)} accesses: {final}")
    if args.out:
        npz, test = emit_regression(spec, minimized, final, args.out)
        print(f"wrote {npz}\nwrote {test}")
    return 1


def _command_report(args) -> int:
    """Render a trace report, or rebuild EXPERIMENTS.md when no path."""
    from pathlib import Path
    if args.path is None:
        if args.html:
            print("error: report --html needs a trace or journal path",
                  file=sys.stderr)
            return 2
        import runpy
        script = (Path(__file__).resolve().parent.parent.parent
                  / "scripts" / "build_experiments_md.py")
        module = runpy.run_path(str(script))
        return module["main"]()
    from repro.obs.report import render_report, render_trace_html
    path = Path(_trace_file(args.path))
    try:
        text = (render_trace_html if args.html else render_report)(path)
    except UnicodeDecodeError:
        raise ConfigError(
            f"not an event trace or campaign journal: {path}") from None
    if args.html:
        from repro.common.ioutil import atomic_write_text
        out = Path(args.out) if args.out else path.with_suffix(".html")
        atomic_write_text(out, text)
        print(f"wrote {out}")
        return 0
    print(text)
    return 0


def _configured(config, protocol: Protocol, ratio: float, policy: str):
    """Apply the protocol/ratio/policy triple shared by simulate/trace."""
    if protocol is Protocol.ZERODEV:
        return config.with_(
            protocol=protocol,
            directory=DirectoryConfig(ratio=ratio if ratio > 0 else None),
            llc_replacement=LLCReplacement.DATA_LRU,
            dir_caching=DirCachingPolicy(policy))
    if protocol is Protocol.DLS:
        # Coherence lives in the inclusive LLC: there is no directory
        # to size.
        if ratio:
            raise ConfigError("--ratio does not apply to --protocol dls, "
                              "which has no directory")
        return config.with_(protocol=protocol,
                            directory=DirectoryConfig(ratio=None),
                            llc_design=LLCDesign.INCLUSIVE)
    return config.with_(
        protocol=protocol,
        directory=DirectoryConfig(ratio=ratio or 1.0))


def _command_trace(args) -> int:
    from repro.workloads.suites import (make_multithreaded,
                                        make_rate_workload)
    config = scaled_socket()
    profile = _profile(args.app)
    maker = make_rate_workload if args.rate else make_multithreaded
    workload = maker(profile, config, args.accesses, seed=args.seed)
    if args.events or str(args.path).endswith(".jsonl"):
        from repro.obs.report import render_report
        from repro.obs.trace import TraceSession
        config = _configured(config, Protocol(args.protocol),
                             args.ratio, args.policy)
        system = build_system(config)
        with TraceSession(system, jsonl=args.path,
                          epoch=args.epoch) as session:
            result = session.run(workload)
        print(f"traced {workload!r} under {config.protocol.value}: "
              f"{session.jsonl.events_written:,} events -> "
              f"{result.trace_path}")
        print()
        print(render_report(args.path))
        return 0
    workload.save(args.path)
    print(f"wrote {workload!r} to {args.path}")
    return 0


def _command_simulate(args) -> int:
    workload = _load(Workload.load, args.path, "a workload trace bundle")
    config = _configured(scaled_socket(n_cores=max(8, workload.n_cores)),
                         Protocol(args.protocol), args.ratio, args.policy)
    system = build_system(config)
    run_workload(system, workload)
    stats = system.stats
    print(f"{workload!r} under {config.protocol.value}:")
    for field in ("total_cycles", "core_cache_misses",
                  "dev_invalidations", "traffic_bytes", "dram_reads",
                  "dram_writes", "entries_fused", "entries_spilled",
                  "wb_de_messages"):
        print(f"  {field:<20} {getattr(stats, field):,}")
    return 0


def _fault_kinds():
    from repro.verify.faults import FaultKind
    return list(FaultKind)


def _number(flag: str, kind=int, allow_zero: bool = False):
    """argparse type for ``flag``: a positive integer, or a positive
    finite number for ``kind=float`` (non-negative either way with
    ``allow_zero``), else a one-line error; validated by
    :func:`repro.harness.parallel.parse_number`."""
    def convert(value: str):
        try:
            return parse_number(value, flag, kind=kind,
                                allow_zero=allow_zero)
        except ConfigError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ZeroDEV (HPCA 2021) reproduction toolkit")
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="list experiments and suites")

    run = commands.add_parser("run", help="run a figure experiment")
    run.add_argument("figure", choices=sorted(EXPERIMENTS))
    run.add_argument("--accesses", type=_number("--accesses"),
                     default=None,
                     help="accesses per core (default: REPRO_ACCESSES)")
    run.add_argument("--full", action="store_true",
                     help="run every application, not the subset")
    run.add_argument("--jobs", type=_number("--jobs"), default=None,
                     help="worker processes for independent runs "
                          "(default: REPRO_JOBS)")

    demo = commands.add_parser("demo", help="baseline vs ZeroDEV demo")
    demo.add_argument("--app", default="freqmine")
    demo.add_argument("--accesses", type=_number("--accesses"),
                      default=10_000)

    verify = commands.add_parser(
        "verify", help="scalar-vs-batched kernel bit-identity "
                       "differential (--kernel-diff)")
    verify.add_argument("--kernel-diff", action="store_true",
                        help="scalar-vs-batched bit-identity "
                             "differential over the fuzz model matrix "
                             "(required)")
    verify.add_argument("--seed", type=int, default=None,
                        help="kernel-diff campaign seed (default 0)")
    verify.add_argument("--budget", type=_number("--budget"), default=25,
                        help="traces per kernel-diff campaign (each runs "
                             "on every model under both kernels)")
    verify.add_argument("--check-every",
                        type=_number("--check-every", allow_zero=True),
                        default=0,
                        help="invariant-check every N accesses during "
                             "kernel-diff runs (0 = final state only)")
    verify.add_argument("--steps-per-trace",
                        type=_number("--steps-per-trace"), default=48,
                        help="accesses per kernel-diff trace")
    verify.add_argument("--out", default=None,
                        help="directory for divergent-trace .npz "
                             "reproducers (kernel-diff)")

    modelcheck = commands.add_parser(
        "modelcheck",
        help="memoized bounded-exhaustive model checking")
    modelcheck.add_argument("--models", default=None,
                            help="comma-separated model names "
                                 "(default: the whole matrix)")
    modelcheck.add_argument("--depth", type=_number("--depth"),
                            default=5,
                            help="BFS depth over the micro alphabet "
                                 "(default 5)")
    modelcheck.add_argument("--blocks", default=None,
                            help="comma-separated block alphabet "
                                 "(default: 0,8,1)")
    modelcheck.add_argument("--max-states",
                            type=_number("--max-states"), default=None,
                            help="unique-state ceiling (default 250000)")
    modelcheck.add_argument("--budget-s",
                            type=_number("--budget-s", kind=float),
                            default=None,
                            help="wall-clock budget per model in "
                                 "seconds (exploration caps cleanly)")
    modelcheck.add_argument("--mutations", action="store_true",
                            help="run the seeded-bug gate: every "
                                 "mutation through modelcheck and the "
                                 "fixed-budget fuzz baseline")
    modelcheck.add_argument("--mutation", default=None,
                            help="arm one seeded bug while exploring "
                                 "(see repro.verify.mutations)")
    modelcheck.add_argument("--out", default=None,
                            help="directory for counterexample .npz "
                                 "reproducers (repro shrink compatible)")
    modelcheck.add_argument("--jobs", type=_number("--jobs"), default=None,
                            help="fork workers per frontier level "
                                 "(reports are bit-identical at any "
                                 "count; default: REPRO_JOBS)")
    modelcheck.add_argument("--symmetry", action="store_true",
                            help="orbit-minimal canonicalization over "
                                 "sound core/block relabelings "
                                 "(repro.verify.symmetry)")

    fuzz = commands.add_parser(
        "fuzz", help="differential fuzzing across the model matrix")
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument("--budget", type=_number("--budget"), default=50,
                      help="number of traces (each runs on every model)")
    fuzz.add_argument("--jobs", type=_number("--jobs"), default=None)
    fuzz.add_argument("--check-every", type=_number("--check-every"),
                      default=1,
                      help="invariant-check every N accesses")
    fuzz.add_argument("--inject", default=None,
                      choices=[k.value for k in _fault_kinds()],
                      help="fault-injection soak instead of a clean "
                           "campaign")
    fuzz.add_argument("--at", type=int, default=1,
                      help="inject on the Nth seam traversal")
    fuzz.add_argument("--no-shrink", action="store_true",
                      help="skip ddmin reduction of divergences")
    fuzz.add_argument("--out", default=None,
                      help="directory for minimal-reproducer .npz + "
                           "pytest regression stubs")
    fuzz.add_argument("--resume", default=None, metavar="JOURNAL",
                      help="campaign journal (created if missing): "
                           "completed runs are committed there and "
                           "skipped on re-execution")
    fuzz.add_argument("--run-timeout",
                      type=_number("--run-timeout", kind=float),
                      default=None, metavar="SECONDS",
                      help="per-run deadline; a wedged run becomes a "
                           "typed failure instead of hanging the batch")
    fuzz.add_argument("--retries",
                      type=_number("--retries", allow_zero=True),
                      default=1,
                      help="re-executions for transient failures "
                           "(default 1; exit code 3 = partial results, "
                           "resume to finish)")

    shrink = commands.add_parser(
        "shrink", help="reduce a saved fuzz trace to a minimal repro")
    shrink.add_argument("path", help="a FuzzTrace .npz")
    shrink.add_argument("--model", default="zerodev-fuse-private-spill-shared",
                        help="model name from the fuzz matrix")
    shrink.add_argument("--inject", default=None,
                        choices=[k.value for k in _fault_kinds()],
                        help="arm this fault while shrinking")
    shrink.add_argument("--at", type=int, default=1)
    shrink.add_argument("--out", default=None,
                        help="directory for the reduced artifacts")

    report = commands.add_parser(
        "report", help="render a trace report, or rebuild "
                       "EXPERIMENTS.md from archived results")
    report.add_argument("path", nargs="?", default=None,
                        help="a *.jsonl event trace or campaign journal "
                             "(omit to rebuild EXPERIMENTS.md)")
    report.add_argument("--html", action="store_true",
                        help="write a self-contained HTML report "
                             "instead of the terminal rendering")
    report.add_argument("--out", default=None,
                        help="output path for --html (default: the "
                             "trace path with an .html suffix)")

    trace = commands.add_parser(
        "trace", help="generate a trace bundle, or (with a .jsonl PATH "
                      "or --events) run it with event tracing")
    trace.add_argument("app")
    trace.add_argument("path")
    trace.add_argument("--accesses", type=_number("--accesses"),
                       default=10_000)
    trace.add_argument("--seed", type=_number("--seed", allow_zero=True),
                       default=0)
    trace.add_argument("--rate", action="store_true",
                       help="rate (multi-programmed) instead of "
                            "multi-threaded")
    trace.add_argument("--events", action="store_true",
                       help="run with event tracing; PATH receives the "
                            "JSONL event stream")
    trace.add_argument("--protocol", default="zerodev",
                       choices=[p.value for p in Protocol],
                       help="protocol for --events runs")
    trace.add_argument("--ratio",
                       type=_number("--ratio", kind=float,
                                    allow_zero=True),
                       default=0.0,
                       help="directory ratio R for --events runs "
                            "(0 = no directory for ZeroDEV)")
    trace.add_argument("--policy", default="fuse-private-spill-shared",
                       choices=[p.value for p in DirCachingPolicy],
                       help="entry-caching policy for --events runs")
    trace.add_argument("--epoch", type=_number("--epoch"), default=1000,
                       help="accesses per time-series epoch")

    simulate = commands.add_parser("simulate",
                                   help="run a saved trace bundle")
    simulate.add_argument("path")
    simulate.add_argument("--protocol", default="zerodev",
                          choices=[p.value for p in Protocol])
    simulate.add_argument("--ratio",
                          type=_number("--ratio", kind=float,
                                       allow_zero=True),
                          default=0.0,
                          help="directory ratio R (0 = no directory for "
                               "ZeroDEV, 1.0 for others)")
    simulate.add_argument("--policy", default="fuse-private-spill-shared",
                          choices=[p.value for p in DirCachingPolicy])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args, unknown = parser.parse_known_args(argv)
    if unknown and (args.command != "verify" or args.kernel_diff):
        parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    handler = {
        "list": _command_list,
        "run": _command_run,
        "demo": _command_demo,
        "verify": _command_verify,
        "modelcheck": _command_modelcheck,
        "fuzz": _command_fuzz,
        "shrink": _command_shrink,
        "report": _command_report,
        "trace": _command_trace,
        "simulate": _command_simulate,
    }[args.command]
    try:
        return handler(args)
    except ConfigError as exc:
        # e.g. a malformed REPRO_JOBS read mid-experiment: one clear
        # line, no traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
