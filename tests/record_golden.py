"""Golden CLI reports: the cases, how to run one in-process, and re-recording.

    PYTHONPATH=src python tests/record_golden.py

rewrites fixtures/golden/ from the current code: one ``<name>.out`` file per
case holding the exact stdout, and ``exit_codes.json``.  tests/test_golden.py
asserts that the reports stay byte-identical.  Re-record only when a report
is meant to change, and review the diff.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shlex
import sys

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
GOLDEN = os.path.join(ROOT, "fixtures", "golden")

# name -> CLI arguments.  The first nine are the README examples.
CASES = {
    "check-appendix9": "check fixtures/appendix9.json",
    "check-tamari4-derived": "check --gen tamari 4 --derived",
    "check-typeI4-derived": "check --gen typeI 4 --derived",
    "orbit-appendix9-start1": "orbit fixtures/appendix9.json --start 1",
    "gen-chainprod-3-2": "gen --gen chainprod 3 2",
    "typea-3-LL": "typea --n 3 --orientation LL",
    "typea-3-all-fast": "typea --n 3 --all-orientations --fast",
    "geom-3": "geom --n 3",
    "crosscheck-boolean3": "crosscheck --gen boolean 3",
    "check-tamari1": "check --gen tamari 1",
    "check-chainprod4": "check --gen chainprod 4",
    "check-kite": "check fixtures/kite.json",
    "geom-4": "geom --n 4",
    "typea-1": "typea --n 1",
    "orbit-kite": "orbit fixtures/kite.json",
    "orbit-pentagon-fp3": "orbit fixtures/pentagon.json --field fp:3",
    "geom-5": "geom --n 5",
    "typea-4-LRL": "typea --n 4 --orientation LRL",
    "orbit-kite-fp3": "orbit fixtures/kite.json --field fp:3",
    "crosscheck-appendix9": "crosscheck fixtures/appendix9.json",
}


def run_case(name):
    """(exit code, stdout) of one case."""
    return run_request(CASES[name])


def run_request(args):
    """(exit code, stdout) of CLI arguments, run through ``cli.main`` from the
    repo root: reports hold input paths as given on the command line."""
    from serrelab import cli

    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(shlex.split(args))
    finally:
        os.chdir(cwd)
    return code, out.getvalue()


def golden_path(name):
    return os.path.join(GOLDEN, f"{name}.out")


def main():
    os.makedirs(GOLDEN, exist_ok=True)
    codes = {}
    for name in CASES:
        codes[name], text = run_case(name)
        with open(golden_path(name), "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        print(f"{name}: exit {codes[name]}, {len(text)} bytes", file=sys.stderr)
    with open(os.path.join(GOLDEN, "exit_codes.json"), "w", encoding="utf-8") as fh:
        json.dump(codes, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
