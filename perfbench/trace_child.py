"""One traced serrelab CLI request.

    python perfbench/trace_child.py REQUEST_ID SPANS_OUT ARGV...

Wraps the public functions of each layer module in a timing span, patches
every ``serrelab`` module attribute that refers to one of them (so
``coxeter.serre`` and ``cli.combinatorial_serre_check`` are traced like
``derived.serre`` and ``coxeter.combinatorial_serre_check``), then runs
``serrelab.cli.main(ARGV)``.  The report on stdout is the CLI's own.

Spans stay in memory and are written out at exit, in the order they end, to
SPANS_OUT.spans as six native int64 each: ``request_id, span_id, name_index,
start_ns, end_ns, parent_span_id``.  Span names and counters go to
SPANS_OUT.json.
Counters that need the arguments or results of a call (largest lattice,
largest rref, closed-form eligibility of a Serre input, ...) are computed by
hooks that run outside the span they describe; their time is recorded as
``trace.hook`` spans so that no layer's self time contains it.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import types
from array import array
from time import perf_counter_ns

LAYERS = ("lattice", "coxeter", "linalg", "reps", "derived", "typea", "geom", "cli")
# Private functions that carry a per-layer metric of their own.
PRIVATE = {"typea": ("_engine",), "coxeter": ("_run_trajectories",)}
HOOK = "trace.hook"


class Counters:
    """Counts that come from the values passing a layer boundary."""

    def __init__(self, lattice, reps):
        # The unwrapped functions, so that hooks open no spans of their own.
        self.find_interval_iso = reps.find_interval_iso
        self.min_complement_antichain = lattice.min_complement_antichain
        self.is_boolean_antichain = lattice.is_boolean_antichain
        self.guardrail_exceeded = lattice.GuardrailExceeded
        self.values = {
            "lattice.max_elements": 0,
            "coxeter.trajectory_steps": 0,
            "linalg.rref_max_cells": 0,
            "reps.max_module_dim": 0,
            "derived.max_resolution_length": 0,
            "derived.serre_inputs": 0,
            "derived.closed_form_eligible": 0,
            "derived.repeat_inputs": 0,
            "typea.torsion_classes": 0,
            "geom.objects": 0,
        }
        self.seen_inputs = set()
        self.eligible_by_interval = {}
        self.engines = set()

    def _max(self, name, value):
        self.values[name] = max(self.values[name], value)

    def _add(self, name, value):
        self.values[name] += value

    def lattice_built(self, args, kwargs, lat):
        self._max("lattice.max_elements", lat.n)

    def trajectories_run(self, args, kwargs, trajs):
        self._add("coxeter.trajectory_steps", sum(len(t.vectors) - 1 for t in trajs.values()))

    def rref_called(self, args, kwargs):
        A = args[0] if args else kwargs["A"]
        ncols = args[1] if len(args) > 1 else kwargs["ncols"]
        self._max("linalg.rref_max_cells", len(A) * ncols)

    def resolution_built(self, args, kwargs, res):
        self._max("derived.max_resolution_length", len(res.degrees))

    def engine_built(self, args, kwargs, eng):
        if id(eng) not in self.engines:
            self.engines.add(id(eng))
            self._add("typea.torsion_classes", len(eng.tors_masks))

    def objects_enumerated(self, args, kwargs, objs):
        self._add("geom.objects", len(objs))

    def serre_called(self, args, kwargs):
        M = args[0] if args else kwargs["M"]
        self._add("derived.serre_inputs", 1)
        self._max("reps.max_module_dim", sum(M.dims))
        key = (id(M.lattice), M.dims,
               tuple(tuple(tuple(row) for row in m) for m in M.maps.values()))
        if key in self.seen_inputs:
            self._add("derived.repeat_inputs", 1)
        self.seen_inputs.add(key)
        if self._closed_form_eligible(M):
            self._add("derived.closed_form_eligible", 1)

    def _closed_form_eligible(self, M):
        """M is an interval module M_I whose complement antichain is boolean."""
        iv = self.find_interval_iso(M)
        if iv is None:
            return False
        key = (id(M.lattice), iv)
        if key not in self.eligible_by_interval:
            lat = M.lattice
            ac = self.min_complement_antichain(lat, iv)
            try:
                ok = self.is_boolean_antichain(lat, ac)
            except self.guardrail_exceeded:
                ok = False
            self.eligible_by_interval[key] = ok
        return self.eligible_by_interval[key]


class Tracer:
    def __init__(self, request_id: int):
        self.request_id = request_id
        self.names = [HOOK]
        self.spans = array("q")
        self.stack = [-1]
        self.ids = itertools.count()

    def _record(self, name_index, start, end, parent):
        self.spans.extend((self.request_id, next(self.ids), name_index, start, end, parent))

    def _hook(self, fn, *args):
        t0 = perf_counter_ns()
        try:
            return fn(*args)
        finally:
            self._record(0, t0, perf_counter_ns(), self.stack[-1])

    def wrap(self, name, fn, before=None, after=None):
        index = len(self.names)
        self.names.append(name)
        stack, ids, spans, rid, hook = self.stack, self.ids, self.spans, self.request_id, self._hook

        def traced(*args, **kwargs):
            if before is not None:
                hook(before, args, kwargs)
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                spans.extend((rid, sid, index, t0, t1, parent))
            if after is not None:
                hook(after, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def dump(self, path, counters):
        """Spans as native int64 to PATH.spans, names and counters to PATH.json."""
        with open(f"{path}.spans", "wb") as fh:
            self.spans.tofile(fh)
        with open(f"{path}.json", "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "counters": counters}, fh)


def install(tracer: Tracer) -> Counters:
    mods = {name: importlib.import_module(f"serrelab.{name}") for name in LAYERS}
    counters = Counters(mods["lattice"], mods["reps"])
    hooks = {
        "lattice.build_lattice": (None, counters.lattice_built),
        "coxeter._run_trajectories": (None, counters.trajectories_run),
        "linalg.rref": (counters.rref_called, None),
        "derived.serre": (counters.serre_called, None),
        "derived.projective_resolution": (None, counters.resolution_built),
        "typea._engine": (None, counters.engine_built),
        "geom.enumerate_trees": (None, counters.objects_enumerated),
        "geom.enumerate_quads": (None, counters.objects_enumerated),
    }
    wrapped = {}
    for layer, mod in mods.items():
        for attr, obj in vars(mod).items():
            defined_here = getattr(obj, "__module__", None) == mod.__name__
            public = not attr.startswith("_") and isinstance(obj, types.FunctionType)
            if defined_here and (public or attr in PRIVATE.get(layer, ())):
                name = f"{layer}.{attr}"
                wrapped[id(obj)] = tracer.wrap(name, obj, *hooks.get(name, (None, None)))
    for modname, mod in list(sys.modules.items()):
        if modname == "serrelab" or modname.startswith("serrelab."):
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    setattr(mod, attr, wrapped[id(obj)])
    return counters


def main() -> int:
    request_id, spans_out, argv = int(sys.argv[1]), sys.argv[2], sys.argv[3:]
    tracer = Tracer(request_id)
    counters = install(tracer)
    cli = sys.modules["serrelab.cli"]
    try:
        return cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.dump(spans_out, counters.values)


if __name__ == "__main__":
    raise SystemExit(main())
