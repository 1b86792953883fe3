"""A CLI request imports only the layers and stdlib modules it runs.

Each case is a fresh interpreter that runs one request (or only imports
serrelab.cli) and writes its sys.modules to a file, so that stdout stays the
report.  Modules that an interpreter which has run nothing already holds
(site hooks may import some) are not counted against a request."""

import json
import os
import shlex
import subprocess
import sys

import pytest

from record_golden import CASES, GOLDEN, ROOT

_CHILD = """
import sys
out, what = sys.argv[1], sys.argv[2:]
code = 0
if what == ["import"]:
    import serrelab.cli
elif what != ["nothing"]:
    from serrelab.cli import main
    code = main(what)
with open(out, "w", encoding="utf-8") as fh:
    fh.write("\\n".join(sorted(sys.modules)))
raise SystemExit(code)
"""

with open(os.path.join(GOLDEN, "exit_codes.json"), encoding="utf-8") as _fh:
    EXIT_CODES = json.load(_fh)


def _modules(tmp_path, what, code=0):
    out = tmp_path / "modules.txt"
    proc = subprocess.run([sys.executable, "-c", _CHILD, str(out), *what], cwd=ROOT,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    assert proc.returncode == code, proc.stderr
    return set(out.read_text(encoding="utf-8").split("\n"))


@pytest.fixture(scope="module")
def loaded(tmp_path_factory):
    """The modules a fresh interpreter holds after what, beyond those of one
    that has run nothing."""
    tmp = tmp_path_factory.mktemp("cold")
    bare = _modules(tmp, ["nothing"])
    return lambda what, code=0: _modules(tmp, what, code) - bare


def test_importing_the_cli_loads_no_layer(loaded):
    mods = loaded(["import"])
    assert {m for m in mods if m.startswith("serrelab.")} == {"serrelab.cli", "serrelab.errors"}
    assert not mods & {"dataclasses", "inspect", "fractions", "hashlib", "_hashlib"}


def test_gen_loads_neither_the_derived_layers_nor_hashlib(loaded):
    mods = loaded("gen --gen chainprod 2 2".split())
    assert "serrelab.lattice" in mods
    bad = {"serrelab.derived", "serrelab.coxeter", "serrelab.typea", "serrelab.geom"}
    assert not mods & (bad | {"hashlib", "_hashlib"})


@pytest.mark.parametrize("argv", ["typea --n 2 --orientation L", "geom --n 3"])
def test_quiver_and_polygon_requests_load_no_coxeter_or_hashlib(loaded, argv):
    mods = loaded(argv.split())
    assert not mods & {"serrelab.coxeter", "hashlib", "_hashlib"}


def test_fast_typea_loads_no_derived_layer(loaded):
    mods = loaded("typea --n 4 --all-orientations --fast".split())
    assert "serrelab.typea" in mods
    assert not mods & {"serrelab.derived", "serrelab.reps", "serrelab.linalg", "serrelab.fields"}


@pytest.mark.parametrize("name", sorted(CASES))
def test_no_golden_request_loads_dataclasses(loaded, name):
    assert "dataclasses" not in loaded(shlex.split(CASES[name]), EXIT_CODES[name])
