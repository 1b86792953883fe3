"""The package promises exact arithmetic: no float literal anywhere in src."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "serrelab"


def test_no_float_literals_in_src():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
                found.append(f"{path.name}:{node.lineno}: {node.value!r}")
    assert not found, found
