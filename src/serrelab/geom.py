"""Geometric combinatorics for linear type A: noncrossing trees of an
(n+2)-gon, quadrangulations of a 2(n+2)-gon, planar duality, rotation, and
the Stokes bijection between them.

Vertices are labelled 0..p-1 clockwise.  In the 2(n+2)-gon the even
vertices are the marked ones; rotation adds +1 mod the polygon size, which
flips the marking.  Boundary edges of the (n+2)-gon count as tree edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import typea
from .errors import GuardrailExceeded, InputError, SerrelabError
from .perm import cycle_decomposition

GEOM_GUARDRAIL = 7


def _norm_edges(edges):
    return frozenset((a, b) if a < b else (b, a) for a, b in edges)


@dataclass(frozen=True, slots=True)
class NoncrossingTree:
    p: int  # polygon size n+2
    edges: frozenset

    def sorted_edges(self):
        return sorted(self.edges)


@dataclass(frozen=True, slots=True)
class Quadrangulation:
    p: int  # polygon size 2(n+2)
    diagonals: frozenset

    def sorted_diagonals(self):
        return sorted(self.diagonals)


def chords_noncrossing(edges) -> bool:
    """No two chords cross strictly inside the polygon; shared endpoints never
    cross.  One pass over the chords as intervals, by left end and then by
    decreasing right end: a stack holds the right ends of the chords that
    contain the current left end, innermost on top."""
    ends = []
    for a, b in sorted((a, -b) if a < b else (b, -a) for a, b in edges):
        b = -b
        while ends and ends[-1] <= a:
            ends.pop()
        if ends and ends[-1] < b:
            return False
        ends.append(b)
    return True


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


def _check_n(n):
    if n < 1:
        raise InputError(f"geom needs n >= 1, got n={n}")
    if n > GEOM_GUARDRAIL:
        raise GuardrailExceeded(f"n={n} > {GEOM_GUARDRAIL}")


def enumerate_trees(n: int):
    """All noncrossing spanning trees of the (n+2)-gon (boundary edges allowed),
    in lexicographic order of their sorted edge lists.

    Root-edge decomposition over runs i..j of consecutive vertices: with k the
    largest neighbour of i, a tree on i..j is a tree on k..j plus the edge
    (i, k) over a tree on i..m and a tree on m+1..k, for one split i <= m < k.
    Each tree arises once, and no crossing test runs."""
    _check_n(n)
    p = n + 2
    trees = {(i, i): [()] for i in range(p)}
    for span in range(1, p):
        for i in range(p - span):
            j = i + span
            found = trees[i, j] = []
            for k in range(i + 1, j + 1):
                root = ((i, k),)
                for m in range(i, k):
                    for left in trees[i, m]:
                        for below in trees[m + 1, k]:
                            head = left + below + root
                            found.extend(head + right for right in trees[k, j])
    out = [NoncrossingTree(p, frozenset(es)) for es in trees[0, p - 1]]
    trees.clear()
    out.sort(key=NoncrossingTree.sorted_edges)
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
    parity-mixed non-boundary diagonals, in lexicographic order of their sorted
    diagonal lists.

    Root-edge decomposition over runs i..j of an even number of consecutive
    vertices: the quadrilateral (i, a, b, j) on the edge (i, j) leaves three
    smaller even runs i..a, a..b and b..j, quadrangulated independently; a run
    of two vertices is a polygon side and contributes no diagonal."""
    _check_n(n)
    p = 2 * (n + 2)
    quads = {(i, i + 1): [()] for i in range(p - 1)}
    for span in range(3, p, 2):
        for i in range(p - span):
            j = i + span
            found = quads[i, j] = []
            for a in range(i + 1, j, 2):
                for b in range(a + 1, j, 2):
                    sides = tuple(e for e in ((i, a), (a, b), (b, j)) if e[1] - e[0] > 1)
                    for left in quads[i, a]:
                        for middle in quads[a, b]:
                            head = left + middle + sides
                            found.extend(head + right for right in quads[b, j])
    out = [Quadrangulation(p, frozenset(ds)) for ds in quads[0, p - 1]]
    quads.clear()
    out.sort(key=Quadrangulation.sorted_diagonals)
    return out


def fuss_catalan_geom(n: int) -> int:
    k = n + 2
    return math.comb(3 * k - 3, k - 1) // (2 * k - 1)


# -- regions -------------------------------------------------------------------


def polygon_regions(p, chords):
    """Regions of the p-gon cut by noncrossing chords, each region given as
    the clockwise tuple of its corner vertices, lowest first.  Boundary edges
    among the chords cut off degenerate 2-gon lunes, which are reported as
    such.

    One pass over the chords by increasing span.  skip[v] is the next corner
    after v on the walk around the part not yet cut off: v + 1, or the far end
    of the widest chord already cut at v.  Chord (a, b) walks a -> b along
    skip, which is its region, and then sets skip[a] = b; the corners the walk
    passed are cut off and get skip = p, so that a later walk from or through
    them overshoots.  A walk that overshoots b means crossing chords.  The
    outer region is the walk from 0."""
    skip = list(range(1, p + 1))

    def walk(a, b):
        region = [a]
        while region[-1] < b:
            region.append(skip[region[-1]])
        if region[-1] != b:
            raise SerrelabError("chords cross")
        return tuple(region)

    regions = []
    for a, b in sorted(_norm_edges(chords), key=lambda e: (e[1] - e[0], e[0])):
        region = walk(a, b)
        for v in region[1:-1]:
            skip[v] = p
        skip[a] = b
        regions.append(region)
    regions.append(walk(0, p - 1))
    return regions


def planar_dual(t: NoncrossingTree) -> NoncrossingTree:
    """Region-adjacency dual, re-anchored by the half-step rotation: the new
    vertex on the boundary arc (i, i+1) lands on vertex i+1.

    One boundary walk gives each arc i its region signature, the bitmask of
    the tree edges (a, b) with a <= i < b: passing vertex i toggles exactly the
    edges at i.  The two regions beside an edge differ in its bit alone."""
    p = t.p
    edges = sorted(t.edges)
    toggle = [0] * p
    for k, (a, b) in enumerate(edges):
        toggle[a] ^= 1 << k
        toggle[b] ^= 1 << k
    sig = []
    s = 0
    for v in range(p):
        s ^= toggle[v]
        sig.append(s)
    arc_of = {s: arc for arc, s in enumerate(sig)}
    if len(arc_of) != p:  # p arcs in p regions: one arc each
        raise SerrelabError("tree regions do not match boundary arcs one to one")
    dual_edges = []
    for k, (a, b) in enumerate(edges):
        bit = 1 << k
        for inside in range(a, b):
            outside = arc_of.get(sig[inside] ^ bit)
            if outside is not None:
                dual_edges.append(((inside + 1) % p, (outside + 1) % p))
                break
        else:
            raise SerrelabError("no region adjacent to a tree edge")
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
    _check_n(n)
    trees = enumerate_trees(n)
    n_trees = len(trees)
    # past the count only the n <= 3 listing is needed: free the trees first
    tree_listing = [t.sorted_edges() for t in trees] if n <= 3 else None
    del trees
    quads = enumerate_quads(n)
    expected = fuss_catalan_geom(n)
    tree_of = {q: stokes(q) for q in quads}
    # a rotation missing from the enumeration fails the check instead of raising
    equivariant = all(tree_of.get(rotate_quad(q)) == planar_dual(t) for q, t in tree_of.items())
    checks = {
        "counts": {"trees": n_trees, "quads": len(quads), "expected": expected,
                   "ok": n_trees == len(quads) == expected},
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
        out["trees"] = tree_listing
        out["quadrangulations"] = [q.sorted_diagonals() for q in quads]
    return out
