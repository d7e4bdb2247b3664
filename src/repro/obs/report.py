"""Run reports rendered from archived JSONL traces.

``repro report <trace.jsonl>`` renders the terminal summary produced
here: headline verdict (did any DEV-caused private-cache invalidation
occur?), event totals by kind, the invalidation-cause breakdown, the
message mix, and -- when the sibling ``*.timeseries.json`` archive exists
-- per-epoch occupancy/MPKI series as ASCII charts. A campaign journal
renders the same way, with a campaign-health section instead of the DEV
verdict.

``repro report --html`` writes :func:`render_trace_html`: the same
:func:`summarize` output as one self-contained HTML file. Styling is an
inline ``<style>`` block and charts are inline SVG; there are no
scripts, fonts, images or external references, so the file renders the
same from a mail attachment, an artifact store or ``file://``.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from repro.common.errors import ConfigError
from repro.obs.events import EventKind, InvCause
from repro.obs.trace import timeseries_path_for


def load_trace(path) -> Tuple[dict, List[dict]]:
    """Parse a JSONL trace or campaign journal into (meta, event records).

    A last line that is not a JSON object is the torn tail an
    interrupted run leaves, and is ignored.  Any other such line, or a
    file with no record at all, raises :class:`ConfigError` naming the
    file: it is not a trace, and reporting on it would pass a verdict
    on a run that is not there.
    """
    meta: dict = {}
    events: List[dict] = []
    problem = None
    with Path(path).open("r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            if problem:
                break           # the damaged line was not the last
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                record = None
            if not isinstance(record, dict):
                problem = f"line {number} is not a JSON object"
            elif record.get("kind") == "meta":
                meta.update(record)
            else:
                events.append(record)
        else:
            problem = None if meta or events else "no record"
    if problem:
        raise ConfigError(f"not an event trace or campaign journal: "
                          f"{path} ({problem})")
    return meta, events


#: Read once: ``EventKind.X.value`` is a descriptor call per event.
_PRIV_INV = EventKind.PRIV_INV.value
_MSG = EventKind.MSG.value


def summarize(path) -> dict:
    """Structured summary of one JSONL trace."""
    meta, events = load_trace(path)
    kinds: Counter = Counter()
    inv_causes: Counter = Counter()
    messages: Counter = Counter()
    last_step = 0
    for record in events:
        kind = record.get("kind", "?")
        kinds[kind] += 1
        last_step = max(last_step, record.get("step", 0))
        if kind == _PRIV_INV:
            inv_causes[record.get("cause", "?")] += 1
        elif kind == _MSG:
            messages[record.get("cause", "?")] += 1
    return {
        "meta": meta,
        "total_events": len(events),
        "last_step": last_step,
        "kinds": dict(kinds),
        "inv_causes": dict(inv_causes),
        "messages": dict(messages),
        "dev_invalidations": inv_causes.get(InvCause.DEV, 0),
        "campaign": campaign_health(kinds),
    }


#: Journal/event kinds the fault-tolerant campaign layer emits
#: (``repro.harness.campaign``); ``run_ok`` / ``run_failure`` are
#: journal-only records, the rest are :class:`EventKind` members.
_CAMPAIGN_KINDS = (
    ("run_ok", "committed runs"),
    ("run_failure", "failed runs"),
    (EventKind.RUN_RETRY.value, "retries"),
    (EventKind.RUN_TIMEOUT.value, "timeouts"),
    (EventKind.WORKER_DEATH.value, "worker deaths"),
    (EventKind.RESUME_SKIP.value, "resume skips"),
)

#: Trace metadata both renderers show, in order.
_META_KEYS = ("workload", "protocol", "n_cores", "epoch_accesses")

#: Time-series gauges both renderers chart (when not all zero).
_GAUGES = ("spilled_entries", "fused_entries", "corrupted_blocks",
           "dir_occupancy", "mpki")


def campaign_health(kinds) -> Optional[dict]:
    """Campaign-layer counters, or ``None`` for a pure simulator trace."""
    if not any(kind in kinds for kind, _label in _CAMPAIGN_KINDS):
        return None
    return {kind: kinds.get(kind, 0) for kind, _label in _CAMPAIGN_KINDS}


def _campaign_verdict(campaign: dict) -> str:
    failed = campaign["run_failure"]
    return ("campaign healthy (all runs committed)" if not failed
            else f"{failed} unresolved run failure(s)")


def _bars(counter_items, width: int = 40) -> List[str]:
    items = sorted(counter_items, key=lambda item: -item[1])
    if not items:
        return ["  (none)"]
    top = items[0][1] or 1
    label_width = max(len(str(label)) for label, _ in items)
    lines = []
    for label, count in items:
        bar = "#" * max(1, int(round(count / top * width)))
        lines.append(f"  {str(label):<{label_width}} {count:>10,} {bar}")
    return lines


def _sparkline(values: List[float], width: int = 60) -> str:
    marks = " .:-=+*#%@"
    if not values:
        return "(no samples)"
    if len(values) > width:
        # Downsample by max within each chunk so spikes stay visible.
        chunk = len(values) / width
        values = [max(values[int(i * chunk):
                             max(int(i * chunk) + 1,
                                 int((i + 1) * chunk))])
                  for i in range(width)]
    top = max(values) or 1
    return "".join(marks[min(len(marks) - 1,
                             int(value / top * (len(marks) - 1)))]
                   for value in values)


def render_report(path, timeseries: Optional[Path] = None) -> str:
    """Terminal report for a JSONL trace (plus its time series if any)."""
    summary = summarize(path)
    meta = summary["meta"]
    lines = [f"trace report: {path}"]
    if meta:
        described = ", ".join(f"{key}={meta[key]}" for key in
                              _META_KEYS if key in meta)
        lines.append(f"  {described}")
    lines.append(f"  {summary['total_events']:,} events over "
                 f"{summary['last_step']:,} accesses")
    campaign = summary["campaign"]
    if campaign is None:
        devs = summary["dev_invalidations"]
        verdict = ("ZERO directory-eviction victims" if devs == 0 else
                   f"{devs:,} DEV-caused private-cache invalidations")
        lines.append(f"  verdict: {verdict}")
    else:
        lines.append(f"  verdict: {_campaign_verdict(campaign)}")
        lines.append("")
        lines.append("campaign health:")
        for kind, label in _CAMPAIGN_KINDS:
            lines.append(f"  {label:<14} {campaign[kind]:>8,}")
    lines.append("")
    lines.append("event totals:")
    lines.extend(_bars(summary["kinds"].items()))
    if summary["inv_causes"]:
        lines.append("")
        lines.append("private-cache invalidations by cause:")
        lines.extend(_bars(summary["inv_causes"].items()))
    if summary["messages"]:
        lines.append("")
        lines.append("message mix (top 8):")
        lines.extend(_bars(Counter(summary["messages"])
                           .most_common(8)))
    series_path = (Path(timeseries) if timeseries is not None
                   else timeseries_path_for(path))
    series = _load_series(series_path)
    if series:
        lines.append("")
        lines.append(f"time series ({series_path.name}, epoch = "
                     f"{series.get('epoch_accesses', '?')} accesses):")
        for gauge, values in _gauge_series(series):
            lines.append(f"  {gauge:<17} peak {max(values):>10.1f} "
                         f"|{_sparkline(values)}|")
        phases = series.get("runner_phases", {})
        if phases:
            lines.append("  runner phases: " + ", ".join(
                f"{name} {value:.3f}s"
                for name, value in phases.items()))
    return "\n".join(lines)


def _load_series(path: Path) -> Optional[dict]:
    """The ``*.timeseries.json`` archive at ``path``, or ``None`` when it
    is missing or unreadable."""
    try:
        series = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    return series if isinstance(series, dict) else None


def _gauge_series(series: dict) -> List[Tuple[str, List[float]]]:
    """(gauge, per-epoch values) for every gauge that is not all zero."""
    samples = series.get("gauges", [])
    charted = []
    for gauge in _GAUGES:
        values = [float(sample.get(gauge, 0)) for sample in samples]
        if any(values):
            charted.append((gauge, values))
    return charted


# ----------------------------------------------------------------------
# HTML (``repro report --html``)
# ----------------------------------------------------------------------
_STYLE = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2rem auto; max-width: 60rem; color: #1a1a2e;
       line-height: 1.45; }
h1 { font-size: 1.4rem; border-bottom: 2px solid #1a1a2e;
     padding-bottom: .3rem; }
h2 { font-size: 1.05rem; margin-top: 1.6rem; }
table { border-collapse: collapse; width: 100%; font-size: .85rem; }
th, td { text-align: left; padding: .25rem .6rem;
         border-bottom: 1px solid #ddd; }
th { background: #f0f0f5; }
code { background: #f0f0f5; padding: 0 .25rem; border-radius: 3px;
       font-size: .85em; }
.badge { display: inline-block; padding: .1rem .55rem;
         border-radius: .8rem; color: #fff; font-size: .8rem;
         vertical-align: middle; }
.badge.ok { background: #2e7d32; }
.badge.failed { background: #c62828; }
.kv { color: #555; font-size: .85rem; }
svg { vertical-align: middle; }
.health { display: flex; flex-wrap: wrap; gap: .6rem 1.6rem;
          font-size: .85rem; }
.health b { font-size: 1.1rem; }
"""


def _esc(value) -> str:
    # Imported here: ``html`` loads its entity tables (about 0.4 MB),
    # and every ``import repro`` loads this module.
    from html import escape
    return escape(str(value), quote=True)


def _verdict(ok: bool, text: str) -> str:
    state = "ok" if ok else "failed"
    return (f"<p><span class=\"badge {state}\">{state}</span> "
            f"{_esc(text)}</p>")


def _svg_sparkline(values: Sequence[float], width: int = 360,
                   height: int = 36) -> str:
    """An inline-SVG polyline; the HTML twin of :func:`_sparkline`."""
    top = max(values) or 1.0
    step = width / max(1, len(values) - 1)
    points = " ".join(
        f"{index * step:.1f},"
        f"{height - 2 - (value / top) * (height - 4):.1f}"
        for index, value in enumerate(values))
    return (f"<svg width=\"{width}\" height=\"{height}\" "
            f"viewBox=\"0 0 {width} {height}\">"
            f"<polyline fill=\"none\" stroke=\"#3949ab\" "
            f"stroke-width=\"1.5\" points=\"{points}\"/></svg>")


def render_trace_html(path) -> str:
    """Self-contained HTML rendering of one JSONL trace or journal."""
    path = Path(path)
    summary = summarize(path)
    meta = summary["meta"]
    body = [f"<h1>{_esc(path.name)}</h1>"]
    if meta:
        rows = "".join(f"<tr><td class=\"kv\">{_esc(key)}</td>"
                       f"<td>{_esc(meta[key])}</td></tr>"
                       for key in _META_KEYS if key in meta)
        body.append(f"<table>{rows}</table>")
    campaign = summary["campaign"]
    body.append("<h2>Verdict</h2>")
    if campaign is not None:
        body.append(_verdict(not campaign["run_failure"],
                             _campaign_verdict(campaign)))
        cells = "".join(
            f"<div><b>{campaign[kind]}</b> {_esc(label)}</div>"
            for kind, label in _CAMPAIGN_KINDS)
        body.append(f"<div class=\"health\">{cells}</div>")
    else:
        devs = summary["dev_invalidations"]
        body.append(_verdict(devs == 0,
                             "ZERO directory-eviction victims"
                             if devs == 0 else
                             f"{devs:,} DEV-caused invalidations"))
    body.append("<h2>Event totals</h2>")
    kind_rows = "".join(
        f"<tr><td><code>{_esc(kind)}</code></td>"
        f"<td>{count:,}</td></tr>"
        for kind, count in sorted(summary["kinds"].items(),
                                  key=lambda item: -item[1]))
    body.append("<table><tr><th>kind</th><th>count</th></tr>"
                + kind_rows + "</table>")
    series = _load_series(timeseries_path_for(path)) or {}
    charts = "".join(
        f"<tr><td class=\"kv\">{_esc(gauge)}</td>"
        f"<td>peak {max(values):,.1f}</td>"
        f"<td>{_svg_sparkline(values)}</td></tr>"
        for gauge, values in _gauge_series(series))
    if charts:
        body.append("<h2>Time series</h2>")
        body.append(f"<table>{charts}</table>")
    title = _esc(f"repro trace {path.name}")
    return ("<!doctype html>\n<html lang=\"en\"><head>"
            "<meta charset=\"utf-8\">"
            f"<title>{title}</title>"
            f"<style>{_STYLE}</style></head>\n<body>\n"
            + "\n".join(body) + "\n</body></html>\n")
