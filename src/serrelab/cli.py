"""Batch front door: load or generate lattices, run the check suites, emit
machine-readable reports.

The JSON report goes to stdout (byte-identical across runs on identical
input); human-oriented progress and timing go to stderr.  Exit codes:
0 success, 1 malformed input, 2 verification failure or an exhausted
resource (recursion depth or memory).
"""

import argparse
import sys
import time

from .errors import Disagreement, MaxStepsExceeded, SerrelabError

# Each command and each generator imports the layers it runs, so that an
# import of this module costs only argparse and the errors module.

SCHEMA_VERSION = 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # malformed input is exit code 1, not argparse's 2
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _gen_tamari(args):
    from .typea import gen_tamari

    return gen_tamari(int(args[0]))


def _gen_type_i(args):
    from .typea import gen_type_i

    return gen_type_i(int(args[0]))


def _gen_boolean(args):
    from .lattice import boolean_lattice

    return boolean_lattice(int(args[0]))


def _gen_chainprod(args):
    from .lattice import chain_product

    return chain_product([int(x) for x in args])


def _gen_product(args):
    from .lattice import load_lattice, product

    return product(load_lattice(args[0]), load_lattice(args[1]))


# kind -> (usage, number of arguments or None for one or more, builder)
GENERATORS = {
    "tamari": ("tamari N", 1, _gen_tamari),
    "typeI": ("typeI M", 1, _gen_type_i),
    "boolean": ("boolean K", 1, _gen_boolean),
    "chainprod": ("chainprod A B ...", None, _gen_chainprod),
    "product": ("product F1 F2", 2, _gen_product),
}


def _generator_lattice(spec):
    kind, args = spec[0], spec[1:]
    if kind not in GENERATORS:
        raise ValueError(f"unknown generator {kind!r}")
    usage, arity, build = GENERATORS[kind]
    if (len(args) != arity) if arity else not args:
        raise ValueError(f"generator spec is {usage!r}, got {' '.join(spec)!r}")
    return build(args)


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _resolve_input(path, gen):
    import hashlib
    import json

    from .lattice import lattice_to_json_dict, load_lattice

    if (path is None) == (gen is None):
        raise ValueError("give exactly one of a lattice file or --gen")
    if path is not None:
        lat = load_lattice(path)
        detail = str(path)
        kind = "file"
    else:
        lat = _generator_lattice(gen)
        detail = " ".join(str(g) for g in gen)
        kind = "generator"
    blob = json.dumps(lattice_to_json_dict(lat), sort_keys=True).encode()
    fp = hashlib.sha256(blob).hexdigest()
    return lat, {"kind": kind, "detail": detail, "fingerprint": fp}


_encode_str = None  # json's string encoder, bound by _report_chunks on first use


def _scalar_text(obj):
    """The JSON text of a str, int, bool or None; None for a dict, list or
    tuple.  Any other type raises TypeError: a report holds no floats."""
    if isinstance(obj, str):
        return _encode_str(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, (list, tuple, dict)):
        return None
    raise TypeError(f"a report cannot hold a value of type {type(obj).__name__}")


def _append_chunks(obj, nl, out):
    """Append the text of obj to out; nl is the newline and indent of the
    line obj starts on."""
    text = _scalar_text(obj)
    if text is not None:
        out.append(text)
        return
    inner = nl + "  "
    if isinstance(obj, dict):
        items = sorted(obj.items())
        # _encode_str raises TypeError on a key that is not a str
        heads = [inner + _encode_str(key) + ": " for key, _ in items]
        values = [value for _, value in items]
        brackets = "{}"
    else:
        kinds = set(map(type, obj))
        if kinds == {int} or kinds == {str}:  # a matrix row or a label list: one chunk
            texts = map(repr if kinds == {int} else _encode_str, obj)  # repr is int.__repr__ here
            out.append("[" + inner + ("," + inner).join(texts) + nl + "]")
            return
        heads, values, brackets = [inner] * len(obj), obj, "[]"
    if not values:
        out.append(brackets)
        return
    sep = brackets[0]
    for head, value in zip(heads, values):
        text = _scalar_text(value)
        if text is None:
            out.append(sep + head)
            _append_chunks(value, inner, out)
        else:
            out.append(sep + head + text)
        sep = ","
    out.append(nl + brackets[1])


def _report_chunks(report) -> list:
    """The report text, byte for byte as json.dumps writes it with an indent
    of 2 and sorted keys, as a list of chunks built by C-level joins: the
    pure-Python encoder that json selects for any indent is never run.  Keys
    must be str and values str, int, bool, None, dict, list or tuple, else
    TypeError before any chunk is returned."""
    global _encode_str
    if _encode_str is None:
        from json.encoder import encode_basestring_ascii as _encode_str
    out = []
    _append_chunks(report, "\n", out)
    return out


def _emit(report, json_path):
    parts = _report_chunks(report) + ["\n"]
    if json_path:  # first, so that an unwritable path leaves stdout empty
        with open(json_path, "w", encoding="utf-8") as fh:
            fh.writelines(parts)
    sys.stdout.writelines(parts)


def _fcy_pair(orbits):
    """(total_shift, power) uniform over all injective orbits, or None."""
    import math

    periods = [o.period for o in orbits]
    if any(p is None for p in periods):
        return None
    power = math.lcm(*periods)
    totals = {o.total_shift * (power // o.period) for o in orbits}
    if len(totals) != 1:
        return None
    return [totals.pop(), power]


def _derived_orbits(lat, starts, field, max_steps):
    from .derived import serre_orbit

    orbits = []
    failures = []
    for a in starts:
        try:
            o = serre_orbit(lat, a, max_steps=max_steps, field=field)
        except MaxStepsExceeded:
            failures.append({"start": str(a), "reason": "max-steps"})
            continue
        orbits.append(o)
        if o.failure is not None:
            failures.append({"start": str(a), "reason": "non-stalk"})
    return orbits, failures


def _report(args, input_info, ok, body) -> int:
    """Emit body inside the envelope every report shares (schema_version,
    command, input, ok); the exit code, 0 if ok else 2."""
    report = {"schema_version": SCHEMA_VERSION, "command": args.command, "input": input_info}
    _emit({**report, **body, "ok": ok}, args.json)
    return 0 if ok else 2


def cmd_check(args):
    from .coxeter import combinatorial_serre_check
    from .fields import parse_field

    lat, input_info = _resolve_input(args.lattice, args.gen)
    field = parse_field(args.field)
    rep = combinatorial_serre_check(lat, max_steps=args.max_steps)
    ok = rep.is_serre_formal
    checks = [{"name": "combinatorial-serre-formal", "ok": ok, "report": rep.to_json_dict()}]
    if args.derived:
        orbits, failures = _derived_orbits(lat, lat.labels, field, args.max_steps)
        complete = [o for o in orbits if o.failure is None]
        pair = _fcy_pair(complete) if len(complete) == lat.n else None
        derived_ok = not failures and len(complete) == lat.n
        checks.append(
            {
                "name": "derived-serre-orbits",
                "ok": derived_ok,
                "orbits": [o.to_json_dict() for o in orbits],
                "failures": failures,
                "fcy_pair": pair,
            }
        )
        ok = ok and derived_ok
    return _report(args, input_info, ok, {"checks": checks})


def cmd_orbit(args):
    from .fields import parse_field

    lat, input_info = _resolve_input(args.lattice, args.gen)
    field = parse_field(args.field)
    starts = [args.start] if args.start is not None else list(lat.labels)
    for s in starts:
        if s not in lat.index:
            raise ValueError(f"unknown element {s!r}")
    orbits, failures = _derived_orbits(lat, starts, field, args.max_steps)
    body = {"orbits": [o.to_json_dict() for o in orbits], "failures": failures}
    return _report(args, input_info, not failures, body)


def cmd_gen(args):
    from .lattice import lattice_to_json_dict

    lat = _generator_lattice(args.gen)
    report = lattice_to_json_dict(lat)
    _emit(report, args.json)
    return 0


def cmd_typea(args):
    from . import typea as ta

    ta.check_rank(args.n)  # before any orientation or Cartan matrix is built
    if args.all_orientations:
        orientations = ta.all_orientations(args.n)
    else:
        if args.orientation is None and args.n > 1:
            raise ValueError("give --orientation or --all-orientations")
        orientations = [args.orientation or ""]
    runs = [ta.run_typea_suite(ta.quiver_a(args.n, o), categorical=not args.fast) for o in orientations]
    input_info = {"kind": "quiver", "detail": f"n={args.n}", "fingerprint": ""}
    return _report(args, input_info, all(suite["ok"] for suite in runs), {"runs": runs})


def cmd_geom(args):
    from .geom import run_geom_suite

    suite = run_geom_suite(args.n)
    input_info = {"kind": "generator", "detail": f"geom n={args.n}", "fingerprint": ""}
    return _report(args, input_info, suite["ok"], suite)


def cmd_crosscheck(args):
    from .coxeter import cross_check
    from .fields import parse_field

    lat, input_info = _resolve_input(args.lattice, args.gen)
    try:
        cc = cross_check(lat, max_steps=args.max_steps, field=parse_field(args.field))
        ok = cc.ok
        payload = cc.to_json_dict()
    except Disagreement as exc:
        ok = False
        payload = {"agree": False, "disagreement": str(exc)}
    return _report(args, input_info, ok, {"result": payload})


def _add_lattice_source(p):
    p.add_argument("lattice", nargs="?", default=None, help="lattice JSON file")
    p.add_argument("--gen", nargs="+", default=None, metavar="SPEC",
                   help="generator: " + " | ".join(usage for usage, _, _ in GENERATORS.values()))


def build_parser():
    parser = _Parser(prog="serrelab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="combinatorial (and optionally derived) Serre-formality check")
    _add_lattice_source(p)
    p.add_argument("--derived", action="store_true", help="also run derived Serre orbits per injective")
    p.add_argument("--field", default="rational", help="rational | fp:P")
    p.add_argument("--max-steps", type=_positive_int, default=None)
    p.add_argument("--json", default=None, help="also write the report to this file")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("orbit", help="derived Serre orbit of one or all injectives")
    _add_lattice_source(p)
    p.add_argument("--start", default=None, help="element label (default: all)")
    p.add_argument("--field", default="rational")
    p.add_argument("--max-steps", type=_positive_int, default=None)
    p.add_argument("--json", default=None)
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("gen", help="emit a generated lattice as JSON")
    p.add_argument("--gen", nargs="+", required=True, metavar="SPEC")
    p.add_argument("--json", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("typea", help="full type-A suite for one or all orientations")
    p.add_argument("--n", type=int, required=True)
    which = p.add_mutually_exclusive_group()
    which.add_argument("--orientation", default=None)
    which.add_argument("--all-orientations", action="store_true")
    p.add_argument("--fast", action="store_true", help="skip the categorical integration")
    p.add_argument("--json", default=None)
    p.set_defaults(func=cmd_typea)

    p = sub.add_parser("geom", help="polygon model: counts, Stokes bijection, equivariance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--json", default=None)
    p.set_defaults(func=cmd_geom)

    p = sub.add_parser("crosscheck", help="Coxeter-matrix check against the derived machinery")
    _add_lattice_source(p)
    p.add_argument("--field", default="rational")
    p.add_argument("--max-steps", type=_positive_int, default=None)
    p.add_argument("--json", default=None)
    p.set_defaults(func=cmd_crosscheck)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.monotonic()
    try:
        code = args.func(args)
    except (OSError, ValueError, KeyError) as exc:  # a JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SerrelabError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 2
    except (RecursionError, MemoryError) as exc:
        print(f"resource limit: {exc!r}", file=sys.stderr)
        return 2
    finally:
        print(f"elapsed: {time.monotonic() - t0:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
