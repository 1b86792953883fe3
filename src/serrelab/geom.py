"""Geometric combinatorics for linear type A: noncrossing trees of an
(n+2)-gon, quadrangulations of a 2(n+2)-gon, planar duality, rotation, and
the Stokes bijection between them.

Vertices are labelled 0..p-1 clockwise.  In the 2(n+2)-gon the even
vertices are the marked ones; rotation adds +1 mod the polygon size, which
flips the marking.  Boundary edges of the (n+2)-gon count as tree edges.

A tree or quadrangulation holds its chords as one int, a bitmask over the
chords of its polygon (_chord_table): lexicographically smaller chords get
higher bits, so among chord sets of one size, descending mask order is the
lexicographic order of the sorted chord lists.  Enumeration, rotation,
Stokes and planar duality work on these masks; `edges` and `diagonals`
decode them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from . import typea
from .errors import GuardrailExceeded, InputError, SerrelabError
from .perm import cycle_decomposition

GEOM_GUARDRAIL = 7


def _norm_edges(edges):
    return frozenset((a, b) if a < b else (b, a) for a, b in edges)


class _ChordTable:
    """The chords of the p-gon as bits, the lexicographically smallest chord
    (0, 1) the highest."""

    __slots__ = ("bit", "chord", "rot", "cross")

    def __init__(self, p: int):
        # chord[k] = (a, b), a < b: the chord of bit 1 << k
        self.chord = [(a, b) for a in range(p) for b in range(a + 1, p)][::-1]
        # bit[a][b] == bit[b][a]: the bit of chord (a, b), a != b
        self.bit = [[0] * p for _ in range(p)]
        for k, (a, b) in enumerate(self.chord):
            self.bit[a][b] = self.bit[b][a] = 1 << k
        # rot[k]: the bit of chord k rotated by +1
        self.rot = [self.bit[(a + 1) % p][(b + 1) % p] for a, b in self.chord]
        # cross[k]: the mask of the chords crossing chord k
        self.cross = [
            sum(self.bit[c][d] for c, d in self.chord if a < c < b < d or c < a < d < b)
            for a, b in self.chord
        ]


# one table per polygon size, built on first use
_chord_table = lru_cache(maxsize=None)(_ChordTable)


def _bits(mask: int):
    """The indices of the set bits of mask, highest first."""
    while mask:
        k = mask.bit_length() - 1
        yield k
        mask ^= 1 << k


def _chords(p: int, mask: int) -> list:
    """The chords of mask in lexicographic order."""
    chord = _chord_table(p).chord
    return [chord[k] for k in _bits(mask)]


def _mask_of(p: int, chords) -> int:
    """The mask of chords, pairs of distinct vertices of the p-gon."""
    bit = _chord_table(p).bit
    mask = 0
    for a, b in chords:
        if a == b or not (0 <= a < p and 0 <= b < p):
            raise ValueError(f"({a}, {b}) is no chord of the {p}-gon")
        mask |= bit[a][b]
    return mask


def _rotated(p: int, mask: int) -> int:
    """The mask of the chords of mask rotated by +1."""
    rot = _chord_table(p).rot
    out = 0
    for k in _bits(mask):
        out |= rot[k]
    return out


@dataclass(frozen=True, slots=True)
class NoncrossingTree:
    p: int  # polygon size n+2
    mask: int  # the edges, as chord bits of the p-gon

    @property
    def edges(self) -> frozenset:
        return frozenset(_chords(self.p, self.mask))

    def sorted_edges(self):
        return _chords(self.p, self.mask)


@dataclass(frozen=True, slots=True)
class Quadrangulation:
    p: int  # polygon size 2(n+2)
    mask: int  # the diagonals, as chord bits of the p-gon

    @property
    def diagonals(self) -> frozenset:
        return frozenset(_chords(self.p, self.mask))

    def sorted_diagonals(self):
        return _chords(self.p, self.mask)


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
    _check_n(n)  # the chord table grows as p^2 ints of up to p^2 / 2 bits
    p = n + 2
    es = _norm_edges(edges)
    mask = _mask_of(p, es)
    if not chords_noncrossing(es):
        raise ValueError("edges cross")
    if not _is_tree(p, es):
        raise ValueError("edges do not form a spanning tree")
    return NoncrossingTree(p, mask)


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
    Each tree arises once, and no crossing test runs; a tree is the union of
    the masks of its parts, and one descending sort of the masks gives the
    lexicographic order."""
    _check_n(n)
    p = n + 2
    bit = _chord_table(p).bit
    trees = {(i, i): [0] for i in range(p)}
    for span in range(1, p):
        for i in range(p - span):
            j = i + span
            found = trees[i, j] = []
            for k in range(i + 1, j + 1):
                root = bit[i][k]
                for m in range(i, k):
                    for left in trees[i, m]:
                        for below in trees[m + 1, k]:
                            head = left | below | root
                            found.extend(head | right for right in trees[k, j])
    masks = trees[0, p - 1]
    trees.clear()
    masks.sort(reverse=True)
    return [NoncrossingTree(p, m) for m in masks]


def make_quad(n: int, diagonals) -> Quadrangulation:
    _check_n(n)
    p = 2 * (n + 2)
    ds = _norm_edges(diagonals)
    mask = _mask_of(p, ds)
    for a, b in ds:
        if (b - a) % p in (1, p - 1):
            raise ValueError("boundary edges are not quadrangulation diagonals")
        if (a + b) % 2 == 0:
            raise ValueError("diagonals must connect vertices of opposite parity")
    if not chords_noncrossing(ds):
        raise ValueError("diagonals cross")
    if len(ds) != n:
        raise ValueError(f"need exactly {n} diagonals")
    return Quadrangulation(p, mask)


def enumerate_quads(n: int):
    """All quadrangulations of the 2(n+2)-gon: maximal noncrossing families of
    parity-mixed non-boundary diagonals, in lexicographic order of their sorted
    diagonal lists.

    Root-edge decomposition over runs i..j of an even number of consecutive
    vertices: the quadrilateral (i, a, b, j) on the edge (i, j) leaves three
    smaller even runs i..a, a..b and b..j, quadrangulated independently; a run
    of two vertices is a polygon side and contributes no diagonal.  As for
    the trees, the parts are combined as masks and sorted once."""
    _check_n(n)
    p = 2 * (n + 2)
    bit = _chord_table(p).bit
    quads = {(i, i + 1): [0] for i in range(p - 1)}
    for span in range(3, p, 2):
        for i in range(p - span):
            j = i + span
            found = quads[i, j] = []
            for a in range(i + 1, j, 2):
                for b in range(a + 1, j, 2):
                    # distinct bits: their sum is their union
                    sides = sum(bit[u][v] for u, v in ((i, a), (a, b), (b, j)) if v - u > 1)
                    for left in quads[i, a]:
                        for middle in quads[a, b]:
                            head = left | middle | sides
                            found.extend(head | right for right in quads[b, j])
    masks = quads[0, p - 1]
    quads.clear()
    masks.sort(reverse=True)
    return [Quadrangulation(p, m) for m in masks]


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

    One boundary walk gives each arc i its region signature, the mask of the
    tree edges (a, b) with a <= i < b: passing vertex i toggles exactly the
    edges at i.  The two regions beside an edge differ in its bit alone.

    The dual is not validated again: run_geom_suite compares each dual with
    a Stokes image, which stokes has validated, so an invalid dual fails the
    equivariance check."""
    p = t.p
    table = _chord_table(p)
    edges = [(*table.chord[k], 1 << k) for k in _bits(t.mask)]
    toggle = [0] * p
    for a, b, e in edges:
        toggle[a] ^= e
        toggle[b] ^= e
    sig = []
    s = 0
    for v in range(p):
        s ^= toggle[v]
        sig.append(s)
    arc_of = {s: arc for arc, s in enumerate(sig)}
    if len(arc_of) != p:  # p arcs in p regions: one arc each
        raise SerrelabError("tree regions do not match boundary arcs one to one")
    dual = 0
    for a, b, e in edges:
        for inside in range(a, b):
            outside = arc_of.get(sig[inside] ^ e)
            if outside is not None:
                dual |= table.bit[(inside + 1) % p][(outside + 1) % p]
                break
        else:
            raise SerrelabError("no region adjacent to a tree edge")
    return NoncrossingTree(p, dual)


def rotate_tree(t: NoncrossingTree, steps: int = 1) -> NoncrossingTree:
    mask = t.mask
    for _ in range(steps % t.p):
        mask = _rotated(t.p, mask)
    return NoncrossingTree(t.p, mask)


def rotate_quad(q: Quadrangulation) -> Quadrangulation:
    return Quadrangulation(q.p, _rotated(q.p, q.mask))


def quadrilaterals(q: Quadrangulation):
    regions = polygon_regions(q.p, q.sorted_diagonals())
    for r in regions:
        if len(r) != 4:
            raise SerrelabError(f"region {r} of a quadrangulation is not a quadrilateral")
    return regions


def stokes(q: Quadrangulation) -> NoncrossingTree:
    """The even-even diagonal of each quadrilateral, as a noncrossing tree of
    the (n+2)-gon on the even vertices.  An image that crosses or is no
    spanning tree is a verification failure (SerrelabError), not bad input."""
    p = q.p // 2
    table = _chord_table(p)
    mask = 0
    for quad in quadrilaterals(q):
        marked = [v for v in quad if v % 2 == 0]
        if len(marked) != 2:
            raise SerrelabError("a quadrilateral without exactly one even-even chord")
        mask |= table.bit[marked[0] // 2][marked[1] // 2]
    edges = []
    for k in _bits(mask):
        if table.cross[k] & mask:  # the chords crossing chord k: as chords_noncrossing
            raise SerrelabError("Stokes image edges cross")
        edges.append(table.chord[k])
    if not _is_tree(p, edges):
        raise SerrelabError("Stokes image is not a spanning tree")
    return NoncrossingTree(p, mask)


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
