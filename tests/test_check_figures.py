"""The figure digest gate (``scripts/check_figures.py``) on its cheapest
table: Figure 19 matches its pinned digest, and a pin with that digest
changed makes the script exit 1 naming the figure."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "check_figures.py"
PINNED = ROOT / "results" / "figure_digests.json"


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
