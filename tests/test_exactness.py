"""The package promises exact arithmetic: no float literal anywhere in src,
and no `/` outside fields.py, where QQ turns non-integral quotients of int
scalars into Fractions (int / int would be a float)."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "serrelab"


def _nodes():
    paths = sorted(SRC.glob("*.py"))
    assert paths, SRC
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            yield path.name, node


def test_no_float_literals_in_src():
    found = [
        f"{name}:{node.lineno}: {node.value!r}"
        for name, node in _nodes()
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex))
    ]
    assert not found, found


def test_no_true_division_outside_fields():
    found = [
        f"{name}:{node.lineno}"
        for name, node in _nodes()
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
        and name != "fields.py"
    ]
    assert not found, found
