"""Every golden CLI report in fixtures/golden/ is reproduced byte for byte,
with its exit code.  Re-record with ``python tests/record_golden.py``."""

import json
import os

import pytest

from record_golden import CASES, GOLDEN, golden_path, run_case

with open(os.path.join(GOLDEN, "exit_codes.json"), encoding="utf-8") as _fh:
    EXIT_CODES = json.load(_fh)


def test_every_case_is_recorded():
    assert set(EXIT_CODES) == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report(name):
    code, text = run_case(name)
    with open(golden_path(name), encoding="utf-8", newline="") as fh:
        want = fh.read()
    assert code == EXIT_CODES[name]
    assert text == want
