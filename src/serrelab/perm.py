"""Cycle decomposition of a finite permutation."""

from __future__ import annotations


def cycle_decomposition(succ, order):
    """Cycles of the permutation x -> succ(x), in the order their first
    elements appear in `order`, each starting from that element."""
    seen = set()
    out = []
    for start in order:
        if start in seen:
            continue
        cyc = []
        x = start
        while x not in seen:
            seen.add(x)
            cyc.append(x)
            x = succ(x)
        out.append(cyc)
    return out
