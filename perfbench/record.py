"""Record the exit code and stdout sha256 of every request any seed can make.

    python3 perfbench/record.py

Runs each distinct request of every workload, over all primes in
``run.PRIMES`` and all A5 orientations, once, and writes ``expected.json``.
Refuses to record a request that exits non-zero or whose report is not ok.
Run it only when a change to the reports is intended.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import run


def main() -> int:
    os.chdir(run.ROOT)
    sys.path.insert(0, str(run.SRC))
    keys = {}
    for name in run.WORKLOADS:
        for prime in run.PRIMES:
            for orientation in run.orientations():
                for argv in run.workload_requests(name, prime, orientation):
                    keys[run.request_key(argv)] = argv
    run.RESULTS.mkdir(exist_ok=True)
    child = run.Child(run.RESULTS)
    expected = {}
    for key in sorted(keys):
        argv = keys[key]
        wall, _, _, code = child.run(["-m", "serrelab.cli", *argv])
        out = child.stdout()
        if code != 0 or (argv[0] != "gen" and json.loads(out).get("ok") is not True):
            print(f"refusing to record failing request {key!r}: {child.stderr_tail()}",
                  file=sys.stderr)
            return 1
        expected[key] = {"exit_code": code, "sha256": hashlib.sha256(out).hexdigest()}
        print(f"{wall:8.3f}s {key}", file=sys.stderr)
    run.EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
