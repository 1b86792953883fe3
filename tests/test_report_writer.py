"""The report writer of the CLI against json.dumps(indent=2, sort_keys=True):
byte-identical on every report it accepts, and a TypeError before any output
on a value a report may not hold."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from serrelab import cli

_TRICKY = ["", "é", "\U0001F600", '"', "\\", "\x00", "\n\t\x1f", "a b"]

scalars = (
    st.sampled_from(_TRICKY)
    | st.text()
    | st.integers(-(2**70), 2**70)
    | st.sampled_from([0, -1, 2**64, -(2**64) - 1])
    | st.booleans()
    | st.none()
)
reports = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=5).map(tuple)
    | st.lists(st.integers(-(2**65), 2**65), max_size=6)  # the one-chunk int rows
    | st.lists(st.text(max_size=3), max_size=6)  # the one-chunk label lists
    | st.dictionaries(st.text(max_size=4) | st.sampled_from(_TRICKY), inner, max_size=5),
    max_leaves=30,
)


def _text(obj):
    return "".join(cli._report_chunks(obj))


@settings(max_examples=300, deadline=None)
@given(reports)
def test_writer_is_byte_identical_to_json_dumps(obj):
    assert _text(obj) == json.dumps(obj, indent=2, sort_keys=True)


@pytest.mark.parametrize(
    "obj",
    [[], {}, [[]], {"a": {}}, [True, 1, False, 0], [1, "1"], ("x", ("y",)), {"b": 1, "a": [2, 3]}],
)
def test_writer_edge_cases(obj):
    assert _text(obj) == json.dumps(obj, indent=2, sort_keys=True)


@pytest.mark.parametrize(
    "bad",
    [1.5, [0.0], {"a": [1, Fraction(1, 2)]}, {"s": {1, 2}}, {1: "x"}, [{"a": 1}, {None: 2}]],
)
def test_writer_rejects_what_a_report_may_not_hold(bad):
    with pytest.raises(TypeError):
        cli._report_chunks(bad)


def test_bad_report_leaves_stdout_and_file_untouched(tmp_path, capsys):
    out = tmp_path / "report.json"
    report = {"ok": True, "orbits": [[1, 2, 3]], "ratio": Fraction(1, 3)}
    with pytest.raises(TypeError):
        cli._emit(report, str(out))
    assert capsys.readouterr().out == ""
    assert not out.exists()
