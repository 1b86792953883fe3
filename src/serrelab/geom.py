"""Geometric combinatorics for linear type A: noncrossing trees of an
(n+2)-gon, quadrangulations of a 2(n+2)-gon, planar duality, rotation, and
the Stokes bijection between them.

Vertices are labelled 0..p-1 clockwise.  In the 2(n+2)-gon the even
vertices are the marked ones; rotation adds +1 mod the polygon size, which
flips the marking.  Boundary edges of the (n+2)-gon count as tree edges.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from . import typea
from .errors import GuardrailExceeded, SerrelabError
from .perm import cycle_decomposition

GEOM_GUARDRAIL = 7


def _norm_edges(edges):
    return frozenset((min(a, b), max(a, b)) for a, b in edges)


@dataclass(frozen=True)
class NoncrossingTree:
    p: int  # polygon size n+2
    edges: frozenset

    def sorted_edges(self):
        return sorted(self.edges)


@dataclass(frozen=True)
class Quadrangulation:
    p: int  # polygon size 2(n+2)
    diagonals: frozenset

    def sorted_diagonals(self):
        return sorted(self.diagonals)


def _crosses(e1, e2) -> bool:
    """Strict interior crossing of chords on a convex polygon; shared
    endpoints never cross."""
    a, b = min(e1), max(e1)
    c, d = e2
    if len({a, b, c, d}) < 4:
        return False
    c_in = a < c < b
    d_in = a < d < b
    return c_in != d_in


def chords_noncrossing(edges) -> bool:
    return not any(_crosses(e, f) for e, f in itertools.combinations(edges, 2))


def _is_tree(p, edges) -> bool:
    if len(edges) != p - 1:
        return False
    parent = list(range(p))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        parent[ra] = rb
    return True


def make_tree(n: int, edges) -> NoncrossingTree:
    p = n + 2
    es = _norm_edges(edges)
    if not chords_noncrossing(es):
        raise ValueError("edges cross")
    if not _is_tree(p, es):
        raise ValueError("edges do not form a spanning tree")
    return NoncrossingTree(p, es)


def enumerate_trees(n: int):
    """All noncrossing spanning trees of the (n+2)-gon (boundary edges allowed)."""
    if n > GEOM_GUARDRAIL:
        raise GuardrailExceeded(f"n={n} > {GEOM_GUARDRAIL}")
    p = n + 2
    chords = [(a, b) for a in range(p) for b in range(a + 1, p)]
    out = []

    def bt(start, chosen):
        if len(chosen) == p - 1:
            if _is_tree(p, chosen):
                out.append(NoncrossingTree(p, frozenset(chosen)))
            return
        if len(chosen) + (len(chords) - start) < p - 1:
            return
        for k in range(start, len(chords)):
            e = chords[k]
            if all(not _crosses(e, f) for f in chosen):
                chosen.append(e)
                bt(k + 1, chosen)
                chosen.pop()

    bt(0, [])
    return out


def make_quad(n: int, diagonals) -> Quadrangulation:
    p = 2 * (n + 2)
    ds = _norm_edges(diagonals)
    for a, b in ds:
        if (b - a) % p in (1, p - 1):
            raise ValueError("boundary edges are not quadrangulation diagonals")
        if (a + b) % 2 == 0:
            raise ValueError("diagonals must connect vertices of opposite parity")
    if not chords_noncrossing(ds):
        raise ValueError("diagonals cross")
    if len(ds) != n:
        raise ValueError(f"need exactly {n} diagonals")
    return Quadrangulation(p, ds)


def enumerate_quads(n: int):
    """All quadrangulations of the 2(n+2)-gon: maximal noncrossing families of
    parity-mixed non-boundary diagonals."""
    if n > GEOM_GUARDRAIL:
        raise GuardrailExceeded(f"n={n} > {GEOM_GUARDRAIL}")
    p = 2 * (n + 2)
    cands = [
        (a, b)
        for a in range(p)
        for b in range(a + 1, p)
        if (a + b) % 2 == 1 and (b - a) % p not in (1, p - 1)
    ]
    out = []

    def bt(start, chosen):
        if len(chosen) == n:
            out.append(Quadrangulation(p, frozenset(chosen)))
            return
        if len(chosen) + (len(cands) - start) < n:
            return
        for k in range(start, len(cands)):
            e = cands[k]
            if all(not _crosses(e, f) for f in chosen):
                chosen.append(e)
                bt(k + 1, chosen)
                chosen.pop()

    bt(0, [])
    return out


def fuss_catalan_geom(n: int) -> int:
    k = n + 2
    return math.comb(3 * k - 3, k - 1) // (2 * k - 1)


# -- regions -------------------------------------------------------------------


def polygon_regions(p, chords):
    """Regions of the p-gon cut by noncrossing chords, each region given as
    the clockwise tuple of its corner vertices.  Boundary edges among the
    chords cut off degenerate 2-gon lunes, which are reported as such."""
    chords = sorted(_norm_edges(chords))

    def split(cycle, inside):
        if not inside:
            return [tuple(cycle)]
        (a, b), rest = inside[0], inside[1:]
        ia, ib = cycle.index(a), cycle.index(b)
        if ia > ib:
            ia, ib = ib, ia
        one = cycle[ia : ib + 1]
        two = cycle[ib:] + cycle[: ia + 1]
        sone = set(one)
        in_one = [e for e in rest if e[0] in sone and e[1] in sone]
        in_two = [e for e in rest if e not in in_one]
        return split(one, in_one) + split(two, in_two)

    return split(list(range(p)), chords)


def _arc_side(edge, arc):
    """True when boundary arc (arc, arc+1) lies inside the chord's span."""
    a, b = edge
    return a <= arc < b


def _edge_side(e, ref):
    """Side of chord `e` (as seen from chord `ref`): True = inside span of ref.

    For a shared endpoint the other endpoint decides; the chords never cross.
    """
    a, b = ref
    pts = [x for x in e if x != a and x != b]
    if not pts:
        raise SerrelabError("duplicate chord")
    return all(a < x < b for x in pts)


def tree_region_arcs(t: NoncrossingTree):
    """Partition of the boundary arcs (i, i+1) into the tree's regions; arc i
    means the arc from vertex i to i+1 mod p."""
    edges = sorted(t.edges)
    sig = {}
    for arc in range(t.p):
        sig.setdefault(tuple(_arc_side(e, arc) for e in edges), []).append(arc)
    return list(sig.values())


def planar_dual(t: NoncrossingTree) -> NoncrossingTree:
    """Region-adjacency dual, re-anchored by the half-step rotation: the new
    vertex on the boundary arc (i, i+1) lands on vertex i+1."""
    p = t.p
    edges = sorted(t.edges)
    if len(tree_region_arcs(t)) != p:  # p arcs in p regions: one arc each
        raise SerrelabError("tree regions do not match boundary arcs one to one")
    dual_edges = []
    for e in edges:
        adj = []
        for side in (True, False):
            hit = None
            for arc in range(p):
                if _arc_side(e, arc) != side:
                    continue
                shielded = False
                for f in edges:
                    if f == e:
                        continue
                    if _arc_side(f, arc) != _edge_side(e, f):
                        shielded = True
                        break
                if not shielded:
                    hit = arc
                    break
            if hit is None:
                raise SerrelabError("no region adjacent to a tree edge")
            adj.append((hit + 1) % p)
        dual_edges.append(tuple(adj))
    return make_tree(p - 2, dual_edges)


def rotate_tree(t: NoncrossingTree, steps: int = 1) -> NoncrossingTree:
    p = t.p
    return NoncrossingTree(
        p, _norm_edges(((a + steps) % p, (b + steps) % p) for a, b in t.edges)
    )


def rotate_quad(q: Quadrangulation) -> Quadrangulation:
    p = q.p
    return Quadrangulation(
        p, _norm_edges(((a + 1) % p, (b + 1) % p) for a, b in q.diagonals)
    )


def quadrilaterals(q: Quadrangulation):
    regions = polygon_regions(q.p, q.diagonals)
    for r in regions:
        if len(r) != 4:
            raise SerrelabError(f"region {r} of a quadrangulation is not a quadrilateral")
    return regions


def stokes(q: Quadrangulation) -> NoncrossingTree:
    """The even-even diagonal of each quadrilateral, as a noncrossing tree of
    the (n+2)-gon on the even vertices."""
    edges = []
    for quad in quadrilaterals(q):
        marked = [v for v in quad if v % 2 == 0]
        if len(marked) != 2:
            raise SerrelabError("a quadrilateral without exactly one even-even chord")
        edges.append((marked[0] // 2, marked[1] // 2))
    n = q.p // 2 - 2
    return make_tree(n, edges)


def run_geom_suite(n: int) -> dict:
    """Counts, Stokes bijection and rotation equivariance; for n <= 4 the
    rotation cycle multiset against the type-A Serre permutation, and for
    n <= 3 the full object listings."""
    trees = enumerate_trees(n)
    quads = enumerate_quads(n)
    expected = fuss_catalan_geom(n)
    tree_of = {q: stokes(q) for q in quads}
    # a rotation missing from the enumeration fails the check instead of raising
    equivariant = all(tree_of.get(rotate_quad(q)) == planar_dual(t) for q, t in tree_of.items())
    checks = {
        "counts": {"trees": len(trees), "quads": len(quads), "expected": expected,
                   "ok": len(trees) == len(quads) == expected},
        "stokes_bijection": {"ok": len(set(tree_of.values())) == len(quads)},
        "equivariance": {"ok": equivariant},
    }
    if n <= 4:
        rot_cycles = sorted(len(c) for c in cycle_decomposition(rotate_quad, quads))
        serre_cycles = typea.serre_orbit_stats(typea.linear_quiver(n))["cycle_lengths"]
        checks["cycle_multiset_vs_typea"] = {
            "rotation": rot_cycles,
            "serre": serre_cycles,
            "ok": rot_cycles == serre_cycles,
        }
    out = {"checks": checks, "ok": all(c["ok"] for c in checks.values())}
    if n <= 3:  # full object listings stay readable at this size
        out["trees"] = [t.sorted_edges() for t in trees]
        out["quadrangulations"] = [q.sorted_diagonals() for q in quads]
    return out
