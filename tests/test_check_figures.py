"""The figure digest gate (``scripts/check_figures.py``) on its cheapest
table: Figure 19 matches its pinned digest at both sizes, each digest
file regenerating under the environment it records, and a pin with that
digest changed makes the script exit 1 naming the figure."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "check_figures.py"
PINNED = ROOT / "results" / "figure_digests.json"
PINNED_6000 = ROOT / "results" / "figure_digests_6000.json"


def check_figures(*argv):
    return subprocess.run([sys.executable, str(SCRIPT), *argv], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)


def test_fig19_matches_its_pin_and_a_changed_pin_fails(tmp_path):
    done = check_figures("fig19")
    assert done.returncode == 0, done.stdout + done.stderr
    assert "fig19" in done.stdout and "ok" in done.stdout

    pinned = json.loads(PINNED.read_text())
    digest = pinned["digests"]["fig19"]
    pinned["digests"]["fig19"] = ("1" if digest[0] == "0" else "0") \
        + digest[1:]
    changed = tmp_path / "figure_digests.json"
    changed.write_text(json.dumps(pinned))
    done = check_figures("fig19", "--digests", str(changed))
    assert done.returncode == 1, done.stdout + done.stderr
    assert "changed: fig19" in done.stdout

    # Each digest file regenerates at its own size.
    small = json.loads(PINNED.read_text())
    default = json.loads(PINNED_6000.read_text())
    assert small["environment"]["REPRO_ACCESSES"] == "600"
    assert default["environment"]["REPRO_ACCESSES"] == "6000"
    assert small["digests"]["fig19"] != default["digests"]["fig19"]

    done = check_figures("fig19", "--digests", str(PINNED_6000))
    assert done.returncode == 0, done.stdout + done.stderr
    assert default["digests"]["fig19"][:16] in done.stdout
    assert "REPRO_ACCESSES=6000" in done.stdout

    # The 600-access pins under the 6000-access environment: the
    # environment comes from the file, so fig19 regenerates at 6000
    # and no longer matches.
    small["environment"] = default["environment"]
    moved = tmp_path / "moved" / "figure_digests.json"
    moved.parent.mkdir()
    moved.write_text(json.dumps(small))
    done = check_figures("fig19", "--digests", str(moved))
    assert done.returncode == 1, done.stdout + done.stderr
    assert default["digests"]["fig19"][:16] in done.stdout
    assert "changed: fig19" in done.stdout
