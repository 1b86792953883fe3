"""Self-test of the benchmark harness on the seconds-long ``smoke`` workload.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_smoke(trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "smoke", "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(trace: int):
    proc = run_smoke(trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    bench = json.loads((HERE / "results" / f"BENCH_smoke-seed0-trace{trace}.json").read_text())
    return lines[:-1], result, bench


def test_untraced_and_traced_smoke_runs_agree():
    listed = {m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    digests = {}
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        table, result, bench = result_of(trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and bench["failed_frac"] == 0
        assert set(result["metrics"]) == {m["name"] for m in SPEC[section]}
        for line in table:  # the human-readable table names only listed metrics
            name = line.split()[1]
            assert name == "failed_frac" or name in listed, line
        for rec in bench["requests"] + bench["traced_requests"]:
            digests.setdefault(rec["request"], set()).add(rec["sha256"])
    assert digests and all(len(d) == 1 for d in digests.values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = run_smoke(0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
