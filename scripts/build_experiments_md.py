#!/usr/bin/env python
"""Assemble EXPERIMENTS.md from the archived benchmark tables.

Every benchmark under ``benchmarks/`` writes its paper-versus-measured
table to ``results/<name>.txt``; this script stitches them into
EXPERIMENTS.md together with the per-figure commentary, so the document
always reflects the most recent ``pytest benchmarks/ --benchmark-only``
run.

Usage:  python scripts/build_experiments_md.py
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "results"
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from repro.common.ioutil import atomic_write_text  # noqa: E402

PREAMBLE = """\
# EXPERIMENTS — paper versus measured

Reproduction results for every table and figure in the evaluation of
*Zero Directory Eviction Victim* (HPCA 2021). Each section shows the
archived output of the corresponding benchmark
(`pytest benchmarks/ --benchmark-only`); the `paper` column carries the
value the paper states, where it states one. Absolute numbers are not
expected to match (the substrate here is a trace-driven simulator over
synthetic traces, not Multi2Sim over real binaries — see DESIGN.md §2);
the assessments below grade the *shape*: who wins, the direction of every
trend, and where crossovers fall.

**Scale of the archived run:** 8-core socket with capacities divided by
`REPRO_SCALE` (default 16, preserving all associativities and capacity
ratios), `REPRO_ACCESSES` accesses per core, representative application
subsets that always include the applications the paper names. The same
benchmarks accept `REPRO_FULL=1` / `REPRO_SCALE=1` for full-size runs.

## Verdict summary

| Experiment | Paper's claim | Reproduced? |
|---|---|---|
| §III-C2 anchors | shared-entry fractions: SPLASH2X 19% > PARSEC 10% ≈ CPU2017 9% ≫ SPEC OMP 0.5% ≈ FFTW 0 | **ordering yes** — same ranking; magnitudes within ~2–3× (synthetic traces under-populate shared entries) |
| Fig 2 | 1x ≈ unbounded for rate workloads (<1% speedup; ~10% traffic and ~15% misses saved) | **yes** — avg speedup ~1.01, traffic −18%, misses −12% |
| Fig 3 | 1x adequate for multi-threaded suites | **yes** — suite averages within ~1–2%; the freqmine *inversion* (unbounded 4% slower) does not reproduce (our migratory copies get naturally written back before readers arrive, so both systems serve readers from the LLC) |
| Fig 4 | gradual decline with directory size | **yes** — monotone and gradual (½× ≈ 0.95–0.97, ⅛× ≈ 0.74–0.84, 1/32× ≈ 0.55–0.71), but steeper than the paper at 1/32×: FFTW (0.552) and CPU2017 (0.594) fall below its 0.6–1.0 axis range |
| Fig 5 | spilled entries need ≤12% of LLC blocks | **bound yes, magnitude lower** — the peak count of entries an unbounded directory holds beyond what a 1x directory's sets (256 sets × 8 ways) could keep is at most 3.80% of the 8,192 LLC blocks in every suite (max-of-max 1.94–3.80%, avg-of-max 1.00–3.27%), within the paper's ≤12% but 3–6× below its ~12% maximum |
| Fig 6 | −2 LLC ways ≈ −3% avg; worst cases vips −14%, lu_ncb −9%, 330.art −6%, gcc.ppO2 −5% | **yes** — the named applications reproduce their sensitivities (vips −8%, lu_ncb −7%, 330.art −5%, gcc.ppO2 −1% at 14 ways; −17/−16/−10/−4% at 12) |
| Fig 12 | SpillAll: max LLC overhead + extra array read; FPSS: overhead only; FuseAll: min overhead + extra hop | **yes** — all three axes measured, same placement of each policy |
| Fig 17 | SpillAll worst; FPSS best minimum; FuseAll pays 3-hop shared reads | **yes** — same ordering |
| Fig 18 | dataLRU ≥ spLRU everywhere, gap widens at half LLC | **yes** |
| Fig 19–21 | ZeroDEV within 1–2% of baseline at 1x, 1/8x, **NoDir** | **yes** — within ~1% everywhere, and **zero DEVs asserted** |
| §III-D3 | <0.5% of DRAM writes from entry eviction; <0.05% of LLC read misses hit corrupted blocks | **yes** — both ≈0 at this scale (dataLRU keeps entries resident) |
| Fig 22 | 2x LLC: NoDir within 1%; half LLC needs a 1/4x directory | **yes** |
| Fig 23 | heterogeneous mixes: ≤2% worst, ≤1% average | **yes** |
| Fig 24 | server socket: ≤1.4% worst (SPECWeb-S), <1% average | **yes** (32-core default; 128-core with REPRO_FULL=1) |
| Fig 25 | EPD: ZeroDEV needs a small directory (no fusion); inclusive: no entry ever leaves the LLC, ~95% of forced invalidations eliminated | **yes** — wb_de == 0 asserted for inclusive; forced-invalidation elimination measured |
| Fig 26 | MgD 1/8x ≈ baseline 1x, degrading below; ZeroDEV flat, gap widens | **shape yes** — monotone MgD decline, ZeroDEV flat; our MgD at 1/8x sits a few percent lower than the paper's (less region coverage in synthetic traces) |
| Fig 27 | SecDir degrades with size (fragmentation); ZeroDEV insensitive | **yes** |
| §V energy | ~9% directory+LLC energy saved by NoDir ZeroDEV | **yes** — ~9% with CACTI-flavoured constants (calibrated stand-ins) |
| §V multi-socket | 4 sockets: ZeroDEV-NoDir within 1.6% | **yes, without the Section III-D flows** — geomean 0.997 (per application 0.968–1.007), zero DEVs; its six ZeroDEV runs send 0 WB_DE, 0 GET_DE and 0 DENF_NACK (no entry leaves a default-size LLC), so the corrupted-home machinery is not exercised here; `examples/multisocket_demo.py`'s cramped LLCs and the verify matrix's 2-socket models drive it |
| Ablations | replacement-disabled directory strictly simpler/better; E-notice bits negligible; dir-backing solutions equivalent for coherence | **yes** |

The strongest reproduction statement is not a number: the property-based
test-suite proves, for random traces on every protocol/LLC-design
combination, that ZeroDEV **never** delivers a directory-eviction
invalidation to a core cache while maintaining full data correctness
(every load observes the latest committed store, checked against a shadow
memory on every read).
"""

SECTIONS = [
    ("calibration_anchors",
     "Section III-C2 — shared-entry-fraction calibration anchors"),
    ("fig02", "Figure 2 — unbounded vs 1x directory (rate workloads)"),
    ("fig03", "Figure 3 — unbounded vs 1x directory (multi-threaded)"),
    ("fig04", "Figure 4 — directory-size sensitivity of the baseline"),
    ("fig05", "Figure 5 — projected LLC occupancy of spilled entries"),
    ("fig06", "Figure 6 — reduced LLC associativity"),
    ("fig12", "Figure 12 — the directory-caching design space, "
              "quantified"),
    ("fig17", "Figure 17 — directory-entry caching policies"),
    ("fig18", "Figure 18 — spLRU vs dataLRU"),
    ("fig19", "Figure 19 — ZeroDEV on PARSEC"),
    ("fig20", "Figure 20 — ZeroDEV on SPLASH2X / SPEC OMP / FFTW"),
    ("fig21", "Figure 21 — ZeroDEV on SPEC CPU2017 rate"),
    ("fig22", "Figure 22 — LLC capacity sensitivity"),
    ("fig23", "Figure 23 — heterogeneous multi-programmed mixes"),
    ("fig24", "Figure 24 — server workloads"),
    ("fig25", "Figure 25 — EPD and inclusive LLCs"),
    ("fig26", "Figure 26 — Multi-grain Directory comparison"),
    ("fig27", "Figure 27 — SecDir comparison"),
    ("fig_contenders",
     "Contender study — DLS and hybrid update/invalidate"),
    ("energy", "Section V — energy expense"),
    ("multisocket", "Section V — multi-socket evaluation"),
    ("ablation_replacement",
     "Ablation — replacement-disabled sparse directory (Section III-C4)"),
    ("ablation_notice_bits",
     "Ablation — E-state notice bit overhead (Section III-C2)"),
    ("ablation_socket_dir",
     "Ablation — socket-directory backing solutions (Section III-D5)"),
]


def main() -> int:
    parts = [PREAMBLE]
    missing = []
    for name, title in SECTIONS:
        path = RESULTS / f"{name}.txt"
        parts.append(f"\n## {title}\n")
        if path.exists():
            parts.append("```text\n" + path.read_text().rstrip()
                         + "\n```\n")
        else:
            missing.append(name)
            parts.append("*(no archived result — run "
                         "`pytest benchmarks/ --benchmark-only`)*\n")
    atomic_write_text(ROOT / "EXPERIMENTS.md", "".join(parts))
    print(f"wrote EXPERIMENTS.md ({len(SECTIONS) - len(missing)} of "
          f"{len(SECTIONS)} sections with archived results)")
    if missing:
        print("missing:", ", ".join(missing))
    return 0


if __name__ == "__main__":
    sys.exit(main())
