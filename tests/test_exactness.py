"""The package promises exact arithmetic: no float literal anywhere in src,
no `/` outside fields.py, where QQ turns non-integral quotients of int
scalars into Fractions (int / int would be a float), and the modulus of F_p
read only by fields.py, which reduces F_p scalars (ints in [0, p)) for every
other layer."""

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


# geom.py is exempt: its `.p` is the polygon size
MODULUS_FREE = ("reps.py", "derived.py", "coxeter.py", "lattice.py", "typea.py", "cli.py")


def test_modulus_read_only_in_fields():
    found = [
        f"{name}:{node.lineno}"
        for name, node in _nodes()
        if isinstance(node, ast.Attribute) and node.attr == "p" and name in MODULUS_FREE
    ]
    assert not found, found
