#!/usr/bin/env python
"""Regenerate every figure and ablation table and compare digests.

Each of the 24 tables -- the 19 experiments of ``repro run``, Figure 12,
the three ablations and the Section III-C2 anchors -- is regenerated at
``REPRO_ACCESSES=600`` and reduced to one sha256 over its title and
each row's label, measured value and paper value.  Values are rounded
to ``SIGNIFICANT`` significant digits first, so a last-ulp libm
difference between hosts cannot move a digest.  The digests are
compared with the pinned ``results/figure_digests.json``; the script
exits 1 naming every table whose digest changed.

The environment is pinned the way ``perfbench/run.py`` pins it: every
``REPRO_*`` variable is dropped (no result cache directory, no kernel
override, no timeout or retry override) except ``REPRO_JOBS``, and the
size is fixed.  Tables are the same at any ``REPRO_JOBS``.

Run from the repository root::

    python scripts/check_figures.py               # all 24 tables
    python scripts/check_figures.py fig19 fig2    # a subset
    python scripts/check_figures.py --pin         # rewrite the pins

Re-pin only when a change is meant to alter simulated behaviour, and
say why it did.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = ROOT / "results" / "figure_digests.json"

#: The figure-scale knobs every table is regenerated under.
PINNED_ENV = {"REPRO_ACCESSES": "600", "REPRO_SCALE": "16",
              "REPRO_FULL": "0"}

#: Significant digits each measured and paper value is rounded to.
SIGNIFICANT = 10


def pin_environment() -> None:
    for name in [name for name in os.environ
                 if name.startswith("REPRO_") and name != "REPRO_JOBS"]:
        del os.environ[name]
    os.environ.update(PINNED_ENV)


def tables() -> dict:
    """Table name -> the function that regenerates it."""
    for path in (ROOT, ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    from benchmarks.test_ablations import (
        ablation_notice_bits_overhead, ablation_replacement_disabled,
        ablation_socket_directory_solutions)
    from benchmarks.test_calibration_anchors import shared_fraction_anchors
    from benchmarks.test_fig12_design_space import fig12_design_space
    from repro.cli import EXPERIMENTS

    return {**EXPERIMENTS,
            "fig12": fig12_design_space,
            "ablation_replacement": ablation_replacement_disabled,
            "ablation_notice_bits": ablation_notice_bits_overhead,
            "ablation_socket_dir": ablation_socket_directory_solutions,
            "calibration_anchors": shared_fraction_anchors}


def rounded(value):
    return None if value is None else format(value, f".{SIGNIFICANT}g")


def table_digest(table) -> str:
    rows = [[row.label, rounded(row.measured), rounded(row.paper)]
            for row in table.rows]
    text = json.dumps({"title": table.title, "rows": rows},
                      separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def parse_args(argv, names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("figures", nargs="*", metavar="FIGURE",
                        help="tables to check (default: all): "
                             + ", ".join(names))
    parser.add_argument("--pin", action="store_true",
                        help="rewrite the pinned digests of the checked "
                             "tables instead of comparing")
    parser.add_argument("--digests", type=Path, default=DIGESTS,
                        help="pinned digest file (default: "
                             "results/figure_digests.json)")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.figures) - set(names))
    if unknown:
        parser.error(f"unknown figure(s): {', '.join(unknown)}")
    return args


def main(argv=None) -> int:
    pin_environment()
    registry = tables()
    args = parse_args(argv, list(registry))
    names = args.figures or list(registry)
    pinned = (json.loads(args.digests.read_text())
              if args.digests.is_file() else {"digests": {}})
    expected = pinned["digests"]
    changed = []
    started = time.perf_counter()
    for name in names:
        begun = time.perf_counter()
        table, _results = registry[name]()
        digest = table_digest(table)
        if args.pin:
            expected[name], verdict = digest, "pinned"
        elif expected.get(name) == digest:
            verdict = "ok"
        else:
            verdict = "CHANGED"
            changed.append(name)
        print(f"{name:<22} {digest[:16]} {verdict:<8} "
              f"{time.perf_counter() - begun:6.1f}s", flush=True)
    print(f"{len(names)} tables in {time.perf_counter() - started:.1f}s "
          f"(REPRO_JOBS={os.environ.get('REPRO_JOBS', '1')})")
    if args.pin:
        pinned.update(environment=PINNED_ENV, significant_digits=SIGNIFICANT,
                      digests={name: expected[name] for name in registry
                               if name in expected})
        args.digests.write_text(json.dumps(pinned, indent=1) + "\n")
        print(f"wrote {args.digests}")
        return 0
    if changed:
        print(f"changed: {', '.join(changed)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
