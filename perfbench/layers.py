"""Per-layer metrics from the spans and counters of traced requests.

A span's self time is its duration minus the durations of its direct child
spans.  ``<layer>.<function>_s`` metrics sum the self time of one traced
function, ``<layer>.self_s`` the self time of every traced function of the
layer, and ``_calls`` metrics count calls.  Each metric is summed over the
requests of the traced pass (maxima for the ``max_`` metrics).
"""

from __future__ import annotations

import json
from array import array
from collections import Counter, defaultdict

LAYERS = ("lattice", "coxeter", "linalg", "reps", "derived", "typea", "geom", "cli")

# metric -> traced function whose self time it sums
SELF_TIMES = {
    "lattice.build_s": "lattice.build_lattice",
    "coxeter.check_s": "coxeter.combinatorial_serre_check",
    "coxeter.cartan_s": "coxeter.cartan_matrix",
    "coxeter.trajectory_s": "coxeter._run_trajectories",
    "coxeter.cross_check_s": "coxeter.cross_check",
    "linalg.rref_s": "linalg.rref",
    "linalg.int_inverse_s": "linalg.int_inverse",
    "linalg.int_mat_vec_s": "linalg.int_mat_vec",
    "linalg.int_mat_mul_s": "linalg.int_mat_mul",
    "reps.kernel_s": "reps.kernel",
    "reps.interval_iso_s": "reps.find_interval_iso",
    "derived.serre_s": "derived.serre",
    "derived.resolution_s": "derived.projective_resolution",
    "derived.nakayama_s": "derived.nakayama",
    "derived.cohomology_s": "derived.cohomology",
    "derived.orbit_s": "derived.serre_orbit",
    "typea.engine_s": "typea._engine",
    "typea.serre_stats_s": "typea.serre_orbit_stats",
    "typea.rotation_s": "typea.rotation_check",
    "typea.mutations_s": "typea.interval_mutations",
    "typea.cluster_triples_s": "typea.cluster_triples",
    "typea.mutable_intervals_s": "typea.mutable_intervals",
    "geom.enumerate_trees_s": "geom.enumerate_trees",
    "geom.enumerate_quads_s": "geom.enumerate_quads",
    "geom.stokes_s": "geom.stokes",
    "geom.planar_dual_s": "geom.planar_dual",
}

# metric -> traced function whose calls it counts
CALLS = {
    "lattice.build_calls": "lattice.build_lattice",
    "linalg.rref_calls": "linalg.rref",
    "linalg.int_mat_vec_calls": "linalg.int_mat_vec",
    "reps.kernel_calls": "reps.kernel",
    "derived.serre_calls": "derived.serre",
    "typea.interval_of_calls": "typea.interval_of",
    "geom.stokes_calls": "geom.stokes",
    "geom.planar_dual_calls": "geom.planar_dual",
}

# counters of trace_child.Counters that are maxima rather than sums
MAXIMA = ("lattice.max_elements", "linalg.rref_max_cells", "reps.max_module_dim",
          "derived.max_resolution_length")
SUMS = ("coxeter.trajectory_steps", "typea.torsion_classes", "geom.objects")

UNITS = {"_s": "s", "_calls": "count", "_ratio": "ratio", "_bytes": "bytes"}


def unit_of(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def summarize_request(spans_path) -> dict:
    """Self time and call count per traced function, and the counters.

    Spans arrive in the order they end, so a span's children all precede it
    and only the spans still open need a running child total.
    """
    with open(f"{spans_path}.json", encoding="utf-8") as fh:
        header = json.load(fh)
    names = header["names"]
    self_ns = [0] * len(names)
    calls = [0] * len(names)
    covered = defaultdict(int)  # open span id -> time covered by its children
    with open(f"{spans_path}.spans", "rb") as fh:
        while chunk := fh.read(6 * 8 * 65536):
            flat = array("q", chunk)
            for i in range(0, len(flat), 6):
                sid, name, start, end, parent = flat[i + 1:i + 6]
                self_ns[name] += end - start - covered.pop(sid, 0)
                calls[name] += 1
                if parent >= 0:
                    covered[parent] += end - start
    return {
        "self_s": {names[i]: ns / 1e9 for i, ns in enumerate(self_ns) if calls[i]},
        "calls": {names[i]: c for i, c in enumerate(calls) if c},
        "counters": header["counters"],
    }


def pass_layers(records) -> dict:
    """Per-layer metrics of one traced pass."""
    self_s, calls, sums, maxima = Counter(), Counter(), Counter(), Counter()
    for rec in records:
        lay = rec["layers"]
        self_s.update(lay["self_s"])
        calls.update(lay["calls"])
        for name, value in lay["counters"].items():
            if name in MAXIMA:
                maxima[name] = max(maxima[name], value)
            else:
                sums[name] += value
    out = {m: self_s[f] for m, f in SELF_TIMES.items()}
    out.update({m: calls[f] for m, f in CALLS.items()})
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(t for f, t in self_s.items() if f.startswith(layer + "."))
    out.update({name: maxima[name] for name in MAXIMA})
    out.update({name: sums[name] for name in SUMS})
    inputs = sums["derived.serre_inputs"]
    out["derived.closed_form_eligible_ratio"] = (
        sums["derived.closed_form_eligible"] / inputs if inputs else 0.0)
    out["derived.repeat_ratio"] = sums["derived.repeat_inputs"] / inputs if inputs else 0.0
    out["cli.report_bytes"] = sum(rec["report_bytes"] for rec in records)
    return out


def per_layer(traced, plain) -> dict:
    """Metrics of one traced pass, plus the tracing overhead: the traced
    pass's wall time minus that of the untraced pass before it."""
    metrics = {name: {"value": value, "unit": unit_of(name)}
               for name, value in pass_layers(traced).items()}
    overhead = sum(r["wall_s"] for r in traced) - sum(r["wall_s"] for r in plain)
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics
