"""Every function in src runs for some CLI verdict, or is kept for a reason
written down here.  The golden cases and one derived product request run
in-process under sys.setprofile; the functions of src that none of them
calls, dunder methods aside, must be exactly the keys of KEEP.  Reference
implementations that only tests call belong in tests/oracles.py."""

import ast
import pathlib
import sys

from record_golden import CASES, ROOT, run_request

SRC = pathlib.Path(ROOT, "src", "serrelab").resolve()
PRODUCT = "check --gen product fixtures/appendix9.json fixtures/appendix9.json --derived"
REQUESTS = [*CASES.values(), PRODUCT]

_TRACER = "perfbench/trace_child.py reads it at startup to count closed-form eligible Serre inputs"
_FIELD = "the field interface, kept whole on both fields"
KEEP = {
    ("cli.py", "_Parser.error"): "error path: a malformed command line exits 1",
    ("cli.py", "_positive_int"): "checks --max-steps, outside input that no golden case passes",
    ("derived.py", "serre"): "the module-level entry point on a LatticeRep that the tests check",
    ("derived.py", "StalkResult.rep"): "serre_walk's oracle step after a stalk with no support mask",
    ("fields.py", "PrimeField.dot"): _FIELD,
    ("fields.py", "PrimeField.of"): _FIELD,
    ("fields.py", "_normalized"): _FIELD + ": QQ's quotients in canonical form",
    ("lattice.py", "Lattice._name_bad_pair"):
        "error path: a poset that fails the cover test exits 1 naming its first pair with no meet or join",
    ("lattice.py", "Antichain.validate"): _TRACER,
    ("lattice.py", "_antichain_gamma"): _TRACER,
    ("lattice.py", "is_boolean_antichain"): _TRACER,
    ("lattice.py", "min_complement_antichain"): _TRACER,
    ("lattice.py", "order_dual"): "the one duality tool: mirrored constructions are to use it, not copies",
    ("reps.py", "find_interval_iso"): _TRACER,
}


def _defined():
    """(file name, qualified name) of every function defined in src."""
    out = set()

    def walk(node, name, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                out.add((name, prefix + child.name))
                walk(child, name, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, name, f"{prefix}{child.name}.")
            else:
                walk(child, name, prefix)

    for path in SRC.glob("*.py"):
        walk(ast.parse(path.read_text(encoding="utf-8")), path.name, "")
    return out


def _reached():
    """(file name, qualified name) of every src function that REQUESTS call.
    The package's lru caches are emptied first: a table or engine that an
    earlier test built would hide the functions that build it."""
    for name, module in list(sys.modules.items()):
        if name.startswith("serrelab."):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()
    in_src = {}
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            where = in_src.get(code.co_filename)
            if where is None:
                path = pathlib.Path(code.co_filename).resolve()
                where = in_src[code.co_filename] = path.name if path.parent == SRC else ""
            if where:
                reached.add((where, code.co_qualname))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for args in REQUESTS:
            run_request(args)
    finally:
        sys.setprofile(previous)
    return reached


def test_every_src_function_is_reached_or_kept():
    unreached = {(f, q) for f, q in _defined() - _reached() if not q.split(".")[-1].startswith("__")}
    assert sorted(unreached - KEEP.keys()) == [], "unreached: move it to tests/oracles.py or delete it"
    assert sorted(KEEP.keys() - unreached) == [], "reached or gone: drop it from KEEP"
