"""Closed-loop CLI benchmark for serrelab.

One client sends the requests of a workload one after another.  Each request
is a fresh interpreter running ``python -m serrelab.cli ARGV`` against the
checkout's ``src/``; the next request starts only after the previous one has
exited, so at most one child process exists at any time.  Every request pays
interpreter start-up and the import of the package, as a real CLI call does.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace 1``
runs one untraced and one traced pass (see trace_child.py) and reports the
per-layer metrics.  Every request's exit code, report ``ok`` and stdout
sha256 are checked against ``expected.json``.  The last line of stdout is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  A full
result file with run metadata and per-request diagnostics is written to
``perfbench/results/``.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import per_layer, summarize_request

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
EXPECTED = HERE / "expected.json"

# The seed picks the prime of the F_p request from this list ...
PRIMES = (3, 5, 7, 11, 13, 101, 1009, 32003)
# ... and the A5 orientation from typea.all_orientations(5).
ORIENTATION_RANK = 5

SETUP_SAMPLES = 9


def workload_requests(name: str, prime: int, orientation: str) -> list[list[str]]:
    """The argv of every request of one pass of workload ``name``."""
    table = {
        # Derived Serre functor on interval modules only.
        "derived-interval": [
            "check --gen tamari 5 --derived",
            f"orbit --gen tamari 5 --field fp:{prime}",
            "crosscheck --gen tamari 5",
            "check --gen chainprod 3 3 3 --derived",
            "typea --n 3 --all-orientations",
            "check --gen typeI 4 --derived",
        ],
        # The same derived layer on larger, partly non-interval modules.
        "derived-general": [
            "check --gen product fixtures/appendix9.json fixtures/appendix9.json --derived",
            "check fixtures/appendix9.json --derived",
        ],
        # No derived call: lattice tables, Coxeter, type-A engine, polygons.
        "combinatorial": [
            "check --gen tamari 6",
            "gen --gen chainprod 8 8 8",
            f"typea --n 5 --orientation {orientation} --fast",
            "typea --n 4 --all-orientations --fast",
            "geom --n 6",
        ],
        # Seconds-long self-test of the harness.
        "smoke": [
            "check fixtures/pentagon.json --derived",
            "typea --n 2 --orientation L",
            "geom --n 3",
        ],
    }
    return [r.split() for r in table[name]]


WORKLOADS = ("derived-interval", "derived-general", "combinatorial", "smoke")


def orientations() -> list[str]:
    from serrelab.typea import all_orientations

    return all_orientations(ORIENTATION_RANK)


def requests_for_seed(name: str, seed: int) -> list[list[str]]:
    rng = random.Random(seed)
    prime = rng.choice(PRIMES)
    orientation = rng.choice(orientations())
    return workload_requests(name, prime, orientation)


def request_key(argv) -> str:
    return " ".join(argv)


class Child:
    """Runs one child interpreter to completion and returns its rusage."""

    def __init__(self, scratch: Path):
        # The caller's PYTHON* settings (such as PYTHONDONTWRITEBYTECODE) do not
        # reach the children: they import from a bytecode cache, as an
        # installed CLI does, with a fixed hash seed.
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        self.env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        self.out_path = scratch / "stdout"
        self.err_path = scratch / "stderr"

    def run(self, args):
        """(wall_s, cpu_s, max_rss_mb, exit_code) of ``python ARGS``."""
        with open(self.out_path, "wb") as out, open(self.err_path, "wb") as err:
            actions = [
                (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                (os.POSIX_SPAWN_DUP2, err.fileno(), 2),
            ]
            t0 = time.perf_counter()
            pid = os.posix_spawn(sys.executable, [sys.executable, *args], self.env,
                                 file_actions=actions)
            try:
                _, status, usage = os.wait4(pid, 0)
            except BaseException:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                raise
            wall = time.perf_counter() - t0
        cpu = usage.ru_utime + usage.ru_stime
        return wall, cpu, usage.ru_maxrss / 1024, os.waitstatus_to_exitcode(status)

    def stdout(self) -> bytes:
        return self.out_path.read_bytes()

    def stderr_tail(self) -> str:
        lines = self.err_path.read_text(errors="replace").strip().splitlines()
        return lines[-1] if lines else ""


def check_output(argv, code: int, out: bytes, digest: str, expected: dict) -> str | None:
    """None when the request passed, else the reason it failed."""
    if code != 0:
        return f"exit code {code}"
    try:
        report = json.loads(out)
    except ValueError:
        return "stdout is not JSON"
    if argv[0] != "gen" and report.get("ok") is not True:  # gen emits a bare lattice
        return "report ok is not true"
    want = expected.get(request_key(argv))
    if want is None:
        return "no recorded digest"
    if digest != want["sha256"]:
        return "stdout digest differs from the recorded one"
    return None


def run_request(child: Child, rid: int, argv, expected, spans_dir: Path | None = None):
    """Run one request, untraced or (with ``spans_dir``) traced, and check it."""
    if spans_dir is not None:
        spans = spans_dir / f"spans-{rid}"
        args = [str(HERE / "trace_child.py"), str(rid), str(spans), *argv]
    else:
        args = ["-m", "serrelab.cli", *argv]
    wall, cpu, rss, code = child.run(args)
    out = child.stdout()
    digest = hashlib.sha256(out).hexdigest()
    reason = check_output(argv, code, out, digest, expected)
    rec = {
        "request_index": rid,
        "request": request_key(argv),
        "wall_s": wall,
        "cpu_s": cpu,
        "max_rss_mb": rss,
        "exit_code": code,
        "sha256": digest,
        "report_bytes": len(out),
        "failure": reason,
    }
    if reason is not None:
        rec["stderr_tail"] = child.stderr_tail()
    if spans_dir is not None:
        rec["layers"] = summarize_request(spans)
        for suffix in (".spans", ".json"):
            Path(f"{spans}{suffix}").unlink()
    return rec


def run_closed_loop(child: Child, reqs, expected, seconds: float):
    """Cycle through the requests until the next one would overrun ``seconds``.

    The first pass always completes; after it a request starts only if its
    median wall time so far still fits.
    """
    records = []
    walls = [[] for _ in reqs]
    t0 = time.perf_counter()
    for i in itertools.count():
        rid = i % len(reqs)
        if i >= len(reqs) and time.perf_counter() - t0 + statistics.median(walls[rid]) > seconds:
            return records
        rec = run_request(child, rid, reqs[rid], expected)
        walls[rid].append(rec["wall_s"])
        records.append(rec)


def per_request_medians(records, key):
    by_request = {}
    for rec in records:
        by_request.setdefault(rec["request_index"], []).append(rec[key])
    return [statistics.median(v) for v in by_request.values()]


def measure_setup(child: Child) -> list[float]:
    """Wall times of fresh interpreters that only import serrelab.cli."""
    child.run(["-c", "import serrelab.cli"])  # writes the bytecode cache
    samples = []
    for _ in range(SETUP_SAMPLES):
        wall, _, _, code = child.run(["-c", "import serrelab.cli"])
        if code != 0:
            raise SystemExit(f"import serrelab.cli failed: {child.stderr_tail()}")
        samples.append(wall)
    return samples


def git_info() -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True,
                              text=True, check=True).stdout.strip()

    try:
        return {"commit": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain"))}
    except (OSError, subprocess.CalledProcessError):
        return {"commit": None, "dirty": None}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def run_metadata(seed: int) -> dict:
    return {
        **git_info(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "seed": seed,
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(records, setup_samples) -> dict:
    """One pass over the workload, as the sum (or max) of per-request medians."""
    return {
        "wall_s": metric(sum(per_request_medians(records, "wall_s")), "s"),
        "cpu_s": metric(sum(per_request_medians(records, "cpu_s")), "s"),
        "peak_rss_mb": metric(max(per_request_medians(records, "max_rss_mb")), "MB"),
        "setup_s": metric(statistics.median(setup_samples), "s"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (SRC / "serrelab" / "cli.py").is_file() or not EXPECTED.is_file():
        print(f"error: no serrelab checkout around {HERE}", file=sys.stderr)
        return 2
    os.chdir(ROOT)  # requests name fixtures relative to the checkout root
    sys.path.insert(0, str(SRC))
    expected = json.loads(EXPECTED.read_text())
    reqs = requests_for_seed(args.workload, args.seed)
    RESULTS.mkdir(exist_ok=True)
    scratch = RESULTS / f".io-{os.getpid()}"
    scratch.mkdir()
    child = Child(scratch)
    meta = run_metadata(args.seed)
    meta["loadavg_before"] = os.getloadavg()
    try:
        if args.trace:
            setup = []
            plain = [run_request(child, i, r, expected) for i, r in enumerate(reqs)]
            traced = [run_request(child, i, r, expected, scratch) for i, r in enumerate(reqs)]
        else:
            setup = measure_setup(child)
            plain = run_closed_loop(child, reqs, expected, args.seconds)
            traced = []
    finally:
        for f in scratch.iterdir():
            f.unlink()
        scratch.rmdir()
    meta["loadavg_after"] = os.getloadavg()

    for a, b in zip(plain, traced):
        if b["failure"] is None and a["sha256"] != b["sha256"]:
            b["failure"] = "traced stdout differs from untraced"
    if args.trace:
        metrics = per_layer(traced, plain)
    else:
        metrics = end_to_end(plain, setup)
    records = plain + traced
    failed = sum(r["failure"] is not None for r in records)
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"BENCH_{label}.json").write_text(json.dumps({
        "workload": args.workload,
        "metadata": meta,
        "failed_frac": failed / len(records),
        "setup_samples_s": setup,
        "requests": plain,
        "traced_requests": traced,
        **result,
    }, indent=1) + "\n")
    for name, m in metrics.items():
        print(f"{args.workload:17s} {name:34s} {m['value']:14.6f} {m['unit']}")
    print(f"{args.workload:17s} {'failed_frac':34s} {failed / len(records):14.6f} "
          f"ratio ({failed}/{len(records)} requests)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
