#!/usr/bin/env python
"""CI smoke check: SIGKILLed fuzz campaigns resume to the verdict an
uninterrupted run prints.

Each leg launches ``repro fuzz --resume <journal>`` as a subprocess,
waits for the journal to accumulate some committed runs, kills the
campaign with SIGKILL (no cleanup, like an OOM kill or a pre-empted CI
runner), then re-runs the identical command to completion.

The clean leg's last invocation must

* exit 0 with a clean verdict,
* report resumed runs (so the journal really was consulted), and
* render through ``repro report --html <journal>`` into one
  self-contained page (no URL, script, stylesheet link or import) that
  says the campaign is healthy.

Before it, the clean leg also tears the journal's tail (a record cut
short, as a writer killed mid-append leaves it), resumes, and kills the
campaign a second time.  The last invocation must replay every run
committed before the second kill, including those the torn session
appended after the torn line, and print the report of an
uninterrupted run.

The fault leg kills and resumes a ``--inject force-denf-nack`` campaign
once; its verdict depends on whether the fault fired in each run.  That
flag travels in each journaled outcome, so the resumed campaign's
``injected ...: fired in N runs, detected in N, contract ok`` line must
equal the line of an uninterrupted run.

Because every committed run's payload is replayed from the journal, the
resumed report is the one an uninterrupted campaign would have printed;
the clean leg's final run count is asserted against budget x matrix
size.
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

#: The fault leg: 40 traces x the three 2-socket models, enough runs to
#: be killed mid-way.
FAULT = "force-denf-nack"
FAULT_SEED = 3
FAULT_BUDGET = 40


class Failure(Exception):
    """A failed expectation; :func:`main` prints it and exits 1."""


def fuzz_argv(seed: int, budget: int, *extra: str) -> list:
    return [sys.executable, "-m", "repro", "fuzz",
            "--seed", str(seed), "--budget", str(budget),
            "--jobs", "2", "--no-shrink", "--retries", "1", *extra]


#: A ``run_ok`` record cut short, as a writer SIGKILLed mid-append
#: leaves it.
TORN_RECORD = '{"kind": "run_ok", "key": "torn", "payload": "gASV'


def committed_runs(journal: Path) -> int:
    """The journal's ``run_ok`` records, wherever they are: a damaged
    line is skipped, not taken for the end."""
    if not journal.exists():
        return 0
    count = 0
    with journal.open("r", encoding="utf-8") as handle:
        for line in handle:
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            count += (isinstance(record, dict)
                      and record.get("kind") == "run_ok")
    return count


def verdict(stdout: str) -> list:
    """A fuzz report without its ``campaign:`` line (resumed and
    retried runs differ between an interrupted and an uninterrupted
    campaign; nothing else may)."""
    return [line for line in stdout.splitlines()
            if not line.strip().startswith("campaign:")]


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


def kill_after(argv: list, journal: Path, runs: int) -> int:
    """Run ``argv --resume journal`` and SIGKILL it once the journal
    holds ``runs`` committed runs; returns the runs committed at the
    kill."""
    victim = subprocess.Popen(argv + ["--resume", str(journal)])
    deadline = time.monotonic() + 300.0
    while committed_runs(journal) < runs:
        if victim.poll() is not None:
            raise Failure("campaign finished before it could be killed; "
                          "raise its budget")
        if time.monotonic() > deadline:
            victim.kill()
            raise Failure("no committed runs within the deadline")
        time.sleep(0.02)
    os.kill(victim.pid, signal.SIGKILL)
    victim.wait()
    survived = committed_runs(journal)
    print(f"killed campaign after {survived} committed runs")
    return survived


def resume(argv: list, journal: Path) -> str:
    """Run ``argv --resume journal`` to completion; its stdout."""
    result = subprocess.run(argv + ["--resume", str(journal)],
                            capture_output=True, text=True, timeout=600)
    sys.stdout.write(result.stdout)
    sys.stderr.write(result.stderr)
    if result.returncode != 0:
        raise Failure(f"resumed campaign exited {result.returncode}")
    if "runs resumed from journal" not in result.stdout:
        raise Failure("resumed campaign did not replay the journal")
    return result.stdout


def clean_leg(scratch: Path) -> str:
    from repro.verify.models import model_matrix

    expected_runs = BUDGET * len(model_matrix())
    argv = fuzz_argv(SEED, BUDGET)
    reference = subprocess.run(argv, capture_output=True, text=True,
                               timeout=600)
    if reference.returncode != 0:
        raise Failure(f"uninterrupted campaign failed:\n"
                      f"{reference.stdout}{reference.stderr}")
    journal = scratch / "fuzz.jsonl"
    survived = kill_after(argv, journal, 4)
    with journal.open("a", encoding="utf-8") as handle:
        handle.write(TORN_RECORD)
    committed = kill_after(argv, journal, survived + 4)
    stdout = resume(argv, journal)
    if f"{committed} runs resumed from journal" not in stdout:
        raise Failure(f"resumed campaign did not replay the {committed} "
                      "runs committed before the second kill")
    if verdict(stdout) != verdict(reference.stdout):
        raise Failure("resumed campaign's report differs from an "
                      "uninterrupted run's:\n" + reference.stdout)
    if f"{expected_runs} runs" not in stdout:
        raise Failure(f"expected {expected_runs} total runs in the "
                      "resumed report")
    if committed_runs(journal) != expected_runs:
        raise Failure("journal does not hold every run exactly once")
    problem = check_html_report(journal)
    if problem:
        raise Failure(problem)
    return (f"campaign killed at {survived}/{expected_runs} runs, its "
            f"journal torn, killed again at {committed}, resumed to the "
            "uninterrupted verdict with a self-contained HTML report")


def injected_line(stdout: str) -> str:
    """The fault verdict line of a ``repro fuzz --inject`` report."""
    return next((line.strip() for line in stdout.splitlines()
                 if line.strip().startswith("injected ")), "")


def fault_leg(scratch: Path) -> str:
    argv = fuzz_argv(FAULT_SEED, FAULT_BUDGET, "--inject", FAULT)
    reference = subprocess.run(argv, capture_output=True, text=True,
                               timeout=600)
    expected = injected_line(reference.stdout)
    if reference.returncode != 0 or not expected.endswith("contract ok"):
        raise Failure(f"uninterrupted {FAULT} campaign failed:\n"
                      f"{reference.stdout}{reference.stderr}")
    journal = scratch / "fault.jsonl"
    survived = kill_after(argv, journal, 4)
    resumed = injected_line(resume(argv, journal))
    if resumed != expected:
        raise Failure(f"resumed {FAULT} campaign reports {resumed!r}; "
                      f"uninterrupted: {expected!r}")
    return (f"{FAULT} campaign killed at {survived} runs, resumed to the "
            f"uninterrupted verdict ({expected})")


def main() -> int:
    try:
        with tempfile.TemporaryDirectory() as scratch:
            verdicts = [clean_leg(Path(scratch)), fault_leg(Path(scratch))]
    except Failure as failure:
        print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    for verdict in verdicts:
        print(f"OK: {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
