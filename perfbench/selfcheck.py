"""Show that the pinned reference is what ``failed`` checks.

Run from the repository root::

    python3 perfbench/selfcheck.py

For one simulation workload and for ``verify``, it runs the benchmark
once with the pinned reference (expecting ``failed == 0``) and once
with a copy in which one pinned digest is changed (expecting
``failed > 0`` and ``correct: false``).  Exits 0 when both hold.
"""

import json
import subprocess
import sys

from run import HERE, OUT, ROOT

SEED = 11


def run(workload: str, reference_path) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload",
               workload, "--seed", str(SEED), "--seconds", "1",
               "--reference", str(reference_path)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True,
                          text=True, timeout=600, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def flip(digest: str) -> str:
    return ("1" if digest[0] == "0" else "0") + digest[1:]


def main() -> int:
    pinned = json.loads((HERE / "reference.json").read_text())
    OUT.mkdir(exist_ok=True)
    ok = True
    for workload in ("starved", "verify"):
        mutated = json.loads(json.dumps(pinned))
        if workload == "verify":
            entry = next(iter(mutated["explore"].values()))
            entry["digest"] = flip(entry["digest"])
        else:
            runs = mutated["sim"][workload][str(SEED)]
            label = next(iter(runs))
            runs[label] = flip(runs[label])
        path = OUT / f"reference-mutated-{workload}.json"
        path.write_text(json.dumps(mutated))
        clean = run(workload, HERE / "reference.json")
        broken = run(workload, path)
        good = (clean["failed"] == 0 and clean["correct"]
                and broken["failed"] > 0 and not broken["correct"])
        ok = ok and good
        print(f"{workload}: pinned failed={clean['failed']}/"
              f"{clean['attempted']}, one digest changed "
              f"failed={broken['failed']}/{broken['attempted']} -> "
              f"{'ok' if good else 'NOT OK'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
