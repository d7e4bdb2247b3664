#!/usr/bin/env python
"""CI smoke check: a SIGKILLed fuzz campaign resumes to a clean finish.

Launches ``repro fuzz --resume <journal>`` as a subprocess, waits for
the journal to accumulate some committed runs, kills the campaign with
SIGKILL (no cleanup, like an OOM kill or a pre-empted CI runner), then
re-runs the identical command to completion. The second invocation must

* exit 0 with a clean verdict,
* report resumed runs (so the journal really was consulted), and
* render through ``repro report --html <journal>`` into one
  self-contained page (no URL, script, stylesheet link or import) that
  says the campaign is healthy.

Because every committed run's payload is replayed from the journal, the
resumed report is the one an uninterrupted campaign would have printed;
the final run count is asserted against budget x matrix size.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SEED = 7
BUDGET = 12


def fuzz_argv(journal: Path) -> list:
    return [sys.executable, "-m", "repro", "fuzz",
            "--seed", str(SEED), "--budget", str(BUDGET),
            "--jobs", "2", "--no-shrink", "--retries", "1",
            "--resume", str(journal)]


def committed_runs(journal: Path) -> int:
    if not journal.exists():
        return 0
    count = 0
    with journal.open("r", encoding="utf-8") as handle:
        for line in handle:
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                break
            count += record.get("kind") == "run_ok"
    return count


#: Substrings that would make a rendered report depend on anything
#: outside its own file.
EXTERNAL_REFERENCES = ("http://", "https://", "<script", "<link",
                       "@import")


def check_html_report(journal: Path) -> str:
    """Render the journal with ``repro report --html``; the failure
    message, or ``""`` when the page is present, healthy and
    self-contained."""
    page = journal.with_suffix(".html")
    result = subprocess.run(
        [sys.executable, "-m", "repro", "report", "--html", str(journal),
         "--out", str(page)], capture_output=True, text=True, timeout=120)
    if result.returncode != 0:
        return (f"repro report --html exited {result.returncode}: "
                f"{result.stderr.strip()}")
    if not page.is_file():
        return f"repro report --html did not write {page}"
    html = page.read_text(encoding="utf-8")
    if "campaign healthy" not in html:
        return "HTML report does not say the campaign is healthy"
    lowered = html.lower()
    for needle in EXTERNAL_REFERENCES:
        if needle in lowered:
            return f"HTML report is not self-contained: contains {needle!r}"
    return ""


def main() -> int:
    from repro.verify.models import model_matrix

    expected_runs = BUDGET * len(model_matrix())
    with tempfile.TemporaryDirectory() as scratch:
        journal = Path(scratch) / "fuzz.jsonl"

        victim = subprocess.Popen(fuzz_argv(journal))
        deadline = time.monotonic() + 300.0
        while committed_runs(journal) < 4:
            if victim.poll() is not None:
                print("FAIL: campaign finished before it could be "
                      "killed; raise BUDGET", file=sys.stderr)
                return 1
            if time.monotonic() > deadline:
                victim.kill()
                print("FAIL: no committed runs within the deadline",
                      file=sys.stderr)
                return 1
            time.sleep(0.1)
        os.kill(victim.pid, signal.SIGKILL)
        victim.wait()
        survived = committed_runs(journal)
        print(f"killed campaign after {survived} committed runs")

        result = subprocess.run(fuzz_argv(journal), capture_output=True,
                                text=True, timeout=600)
        sys.stdout.write(result.stdout)
        sys.stderr.write(result.stderr)
        if result.returncode != 0:
            print(f"FAIL: resumed campaign exited "
                  f"{result.returncode}", file=sys.stderr)
            return 1
        if "runs resumed from journal" not in result.stdout:
            print("FAIL: resumed campaign did not replay the journal",
                  file=sys.stderr)
            return 1
        if f"{expected_runs} runs" not in result.stdout:
            print(f"FAIL: expected {expected_runs} total runs in the "
                  f"resumed report", file=sys.stderr)
            return 1
        if committed_runs(journal) != expected_runs:
            print("FAIL: journal does not hold every run", file=sys.stderr)
            return 1
        problem = check_html_report(journal)
        if problem:
            print(f"FAIL: {problem}", file=sys.stderr)
            return 1
    print(f"OK: campaign killed at {survived}/{expected_runs} runs, "
          f"resumed to a clean finish with a self-contained HTML report")
    return 0


if __name__ == "__main__":
    sys.exit(main())
