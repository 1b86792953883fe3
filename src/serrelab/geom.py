"""Geometric combinatorics for linear type A: noncrossing trees of an
(n+2)-gon, quadrangulations of a 2(n+2)-gon, planar duality, rotation, and
the Stokes bijection between them.

Vertices are labelled 0..p-1 clockwise.  In the 2(n+2)-gon the even
vertices are the marked ones; rotation adds +1 mod the polygon size, which
flips the marking.  Boundary edges of the (n+2)-gon count as tree edges.

A tree or quadrangulation is a plain int, the bitmask of its chords over
the chords of its polygon (_chord_table), and the functions that take one
take the polygon size p beside it.  Lexicographically smaller chords get
higher bits, so among chord sets of one size, descending mask order is the
lexicographic order of the sorted chord lists.  Enumeration, rotation
(_rotated), Stokes and planar duality work on these masks; _chords decodes
them.  Building a tree or quadrangulation from chords, with its checks, is
the tests' (tests/oracles.py).
"""

from __future__ import annotations

from functools import lru_cache, partial

from . import typea
from .errors import GuardrailExceeded, InputError, SerrelabError
from .perm import cycle_decomposition

GEOM_GUARDRAIL = 7


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


def _rotated(p: int, mask: int) -> int:
    """The mask of the chords of mask rotated by +1."""
    rot = _chord_table(p).rot
    out = 0
    for k in _bits(mask):
        out |= rot[k]
    return out


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
    return masks


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
    return masks


def planar_dual(p: int, tree: int) -> int:
    """The dual of a tree of the p-gon: the region-adjacency dual,
    re-anchored by the half-step rotation: the new vertex on the boundary arc
    (i, i+1) lands on vertex i+1.

    One boundary walk gives each arc i its region signature, the mask of the
    tree edges (a, b) with a <= i < b: passing vertex i toggles exactly the
    edges at i.  The two regions beside an edge differ in its bit alone.

    The dual is not validated again: run_geom_suite compares each dual with
    a Stokes image, which stokes has validated, so an invalid dual fails the
    equivariance check."""
    table = _chord_table(p)
    edges = [(*table.chord[k], 1 << k) for k in _bits(tree)]
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
    return dual


@lru_cache(maxsize=None)
def _marked_chords(p: int) -> list:
    """(cross, bit) for each chord of the p-gon joining two even vertices,
    p even: the mask of the chords crossing it, and the bit of its image, the
    chord between the halved vertices, in the (p/2)-gon."""
    table, half = _chord_table(p), _chord_table(p // 2)
    return [(table.cross[k], half.bit[a // 2][b // 2])
            for k, (a, b) in enumerate(table.chord) if a % 2 == b % 2 == 0]


def stokes(p: int, quad: int) -> int:
    """The even-even diagonal of each quadrilateral of the p-gon, as a
    noncrossing tree of the (p/2)-gon on the even vertices.  Sides join
    vertices of opposite parity, so the even corners of a quadrilateral are
    opposite, and an even-even chord lies inside one quadrilateral exactly
    when it crosses no diagonal: one crossing test per even-even chord.  An
    image that crosses or is no spanning tree is a verification failure
    (SerrelabError), not bad input."""
    table = _chord_table(p // 2)
    mask = 0
    for cross, bit in _marked_chords(p):
        if not cross & quad:
            mask |= bit
    edges = []
    for k in _bits(mask):
        if table.cross[k] & mask:  # the chords crossing chord k
            raise SerrelabError("Stokes image edges cross")
        edges.append(table.chord[k])
    if not _is_tree(p // 2, edges):  # n+1 edges, no cycle
        raise SerrelabError("Stokes image is not a spanning tree")
    return mask


def run_geom_suite(n: int) -> dict:
    """Counts, Stokes bijection and rotation equivariance; for n <= 4 the
    rotation cycle multiset against the type-A Serre permutation, and for
    n <= 3 the full object listings."""
    _check_n(n)
    p = n + 2  # the trees' polygon; the quadrangulations' has 2p vertices
    trees = enumerate_trees(n)
    n_trees = len(trees)
    # past the count only the n <= 3 listing is needed: free the trees first
    tree_listing = [_chords(p, t) for t in trees] if n <= 3 else None
    del trees
    quads = enumerate_quads(n)
    expected = typea.linear_quiver(n).fuss_catalan(2)
    tree_of = {q: stokes(2 * p, q) for q in quads}
    # a rotation missing from the enumeration fails the check instead of raising
    equivariant = all(tree_of.get(_rotated(2 * p, q)) == planar_dual(p, t)
                      for q, t in tree_of.items())
    checks = {
        "counts": {"trees": n_trees, "quads": len(quads), "expected": expected,
                   "ok": n_trees == len(quads) == expected},
        "stokes_bijection": {"ok": len(set(tree_of.values())) == len(quads)},
        "equivariance": {"ok": equivariant},
    }
    if n <= 4:
        rot_cycles = sorted(len(c) for c in cycle_decomposition(partial(_rotated, 2 * p), quads))
        serre_cycles = typea.serre_orbit_stats(typea.linear_quiver(n))["cycle_lengths"]
        checks["cycle_multiset_vs_typea"] = {
            "rotation": rot_cycles,
            "serre": serre_cycles,
            "ok": rot_cycles == serre_cycles,
        }
    out = {"checks": checks, "ok": all(c["ok"] for c in checks.values())}
    if n <= 3:  # full object listings stay readable at this size
        out["trees"] = tree_listing
        out["quadrangulations"] = [_chords(2 * p, q) for q in quads]
    return out
