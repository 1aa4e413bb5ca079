#!/usr/bin/env python3
"""Regenerate perfbench/pinned.json: the answers every benchmark run is
checked against.

  python3 perfbench/pin.py

Records the `compared` count of every manifest case and the exit code and
JSON `rows` of every call the cli-cold workload can draw.  The pinned file
was made on the commit that introduced the benchmark; regenerate it only
when a change to the answers is intended, since the benchmark then checks
against the new answers.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import workloads as wl  # noqa: E402
from qmoments.identities import load_manifest, verify  # noqa: E402


def main():
    _, _, cases = load_manifest()
    counts = {}
    for case in cases:
        report = verify(case)
        if not report.passed or report.compared == 0:
            raise SystemExit("manifest case %s %s does not pass" % (case.case_id, case.params))
        counts[wl.case_key(case.case_id, case.strategy, case.params)] = report.compared

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("QMOMENTS_MAX_GROUP_ORDER", None)
    answers = {}
    for argv in wl.cli_pool():
        key = wl.argv_key(argv)
        if key in answers:
            continue
        done = subprocess.run([sys.executable, "-m", "qmoments.cli"] + argv, cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise SystemExit("%s exited %d: %s" % (argv, done.returncode, done.stderr))
        answers[key] = {"exit": done.returncode,
                        "rows": wl.comparable_rows(json.loads(done.stdout))}

    wl.PINNED_PATH.write_text(json.dumps({"verify": counts, "cli": answers}, indent=1,
                                         sort_keys=True) + "\n")
    print("pinned %d manifest cases and %d cli calls" % (len(counts), len(answers)))


if __name__ == "__main__":
    main()
