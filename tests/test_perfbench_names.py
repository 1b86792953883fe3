"""perfbench refers to functions of src by name: its per-layer metrics
(perfbench/layers.py, SELF_TIMES and CALLS) and the hooks of its tracer
(perfbench/trace_child.py).  A name that src no longer defines is not an
error there: its metric quietly reads 0.  So every such name must still be
defined in src, or be listed in GONE with the reason.  perfbench is only
read, never imported or edited."""

import ast
import importlib
import pathlib
import types

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"

_INT = "the integer Coxeter path was deleted; perfbench reads its spans from src in ROADMAP item 1b"
GONE = {
    "linalg.int_inverse": _INT,
    "linalg.int_mat_mul": _INT,
    "linalg.int_mat_vec": _INT,
    "reps.kernel": "the minimal resolution keeps each syzygy as subspaces of its projective sum; no kernel module",
}


def _tree(name):
    return ast.parse((PERFBENCH / name).read_text(encoding="utf-8"))


def _assigned(tree, target):
    """The value node of the assignment to the name target."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == target for t in node.targets):
            return node.value
    raise AssertionError(f"perfbench no longer assigns {target}")


def _wrapped_names():
    """layer.function names whose spans a metric or a hook reads."""
    layers = _tree("layers.py")
    names = set()
    for table in ("SELF_TIMES", "CALLS"):
        names |= set(ast.literal_eval(_assigned(layers, table)).values())
    child = _tree("trace_child.py")
    names |= {ast.literal_eval(key) for key in _assigned(child, "hooks").keys}
    private = ast.literal_eval(_assigned(child, "PRIVATE"))
    names |= {f"{layer}.{fn}" for layer, fns in private.items() for fn in fns}
    return names


def _read_attributes():
    """layer.attribute names that the tracer's counters read off a layer."""
    child = _tree("trace_child.py")
    layers = ast.literal_eval(_assigned(child, "LAYERS"))
    return {
        f"{node.value.id}.{node.attr}"
        for node in ast.walk(child)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in layers
    }


def _module(name):
    return importlib.import_module(f"serrelab.{name.split('.')[0]}")


def _is_traced_function(name):
    """What the tracer wraps: defined in its layer's own module, and a plain
    function when public (a private one, named in PRIVATE, may be cached)."""
    mod, attr = _module(name), name.split(".", 1)[1]
    obj = getattr(mod, attr, None)
    plain = isinstance(obj, types.FunctionType) or (attr.startswith("_") and callable(obj))
    return plain and obj.__module__ == mod.__name__


def test_perfbench_names_exist_in_src():
    wrapped, read = _wrapped_names(), _read_attributes()
    assert {"derived.projective_resolution", "linalg.rref", "typea._engine"} <= wrapped
    assert {"reps.find_interval_iso", "lattice.min_complement_antichain"} <= read
    missing = {n for n in wrapped if not _is_traced_function(n)}
    missing |= {n for n in read if not hasattr(_module(n), n.split(".", 1)[1])}
    assert sorted(missing - GONE.keys()) == [], "perfbench refers to a name src does not define"
    assert sorted(GONE.keys() - missing) == [], "defined again or no longer named: drop it from GONE"
