"""Run every workload of BENCHMARK.json once and print its metric table.

    python3 perfbench/report.py [--seed N] [--seconds S] [--trace 0|1]

With ``--trace 0`` this prints wall_s, cpu_s, peak_rss_mb, setup_s and
failed_frac, with units, for each workload; with ``--trace 1`` the per-layer
metrics and the tracing overhead.  Exits non-zero if any request failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", default="0")
    ap.add_argument("--seconds", default=None, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", default="0", choices=("0", "1"))
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or str(spec["run_seconds"])
    all_correct = True
    for w in spec["workloads"]:
        proc = subprocess.run(
            [sys.executable, *spec["command"][1:], "--workload", w["name"], "--seed", args.seed,
             "--seconds", seconds, "--trace", args.trace],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{w['name']}: benchmark failed\n{proc.stderr}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]), flush=True)
        all_correct = all_correct and json.loads(lines[-1])["correct"]
    return 0 if all_correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
