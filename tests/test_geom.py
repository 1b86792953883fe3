import itertools
import tracemalloc

import pytest

from serrelab.errors import GuardrailExceeded, SerrelabError
from serrelab.geom import (
    _chord_table,
    _chords,
    _is_tree,
    _rotated,
    enumerate_quads,
    enumerate_trees,
    planar_dual,
    run_geom_suite,
    stokes,
)

from serrelab.typea import linear_quiver

from oracles import _mask_of, _norm_edges, make_quad, make_tree, noncrossing


# -- brute-force oracles: subset backtracking over all chords with a pairwise
# crossing test, and the region-shielding dual ---------------------------------


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


def pairwise_noncrossing(edges) -> bool:
    return not any(_crosses(e, f) for e, f in itertools.combinations(edges, 2))


def _noncrossing_subsets(p, chords, size, accept):
    """Sets of `size` pairwise noncrossing chords, in lexicographic order."""
    out = []

    def bt(start, chosen):
        if len(chosen) == size:
            if accept(chosen):
                out.append(frozenset(chosen))
            return
        if len(chosen) + (len(chords) - start) < size:
            return
        for k in range(start, len(chords)):
            e = chords[k]
            if all(not _crosses(e, f) for f in chosen):
                chosen.append(e)
                bt(k + 1, chosen)
                chosen.pop()

    bt(0, [])
    return out


def brute_trees(n):
    p = n + 2
    chords = [(a, b) for a in range(p) for b in range(a + 1, p)]
    return [
        _mask_of(p, es)
        for es in _noncrossing_subsets(p, chords, p - 1, lambda es: _is_tree(p, es))
    ]


def brute_quads(n):
    p = 2 * (n + 2)
    cands = [
        (a, b)
        for a in range(p)
        for b in range(a + 1, p)
        if (a + b) % 2 == 1 and (b - a) % p not in (1, p - 1)
    ]
    return [_mask_of(p, ds) for ds in _noncrossing_subsets(p, cands, n, lambda ds: True)]


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


def tree_region_arcs(p, t):
    """Partition of the boundary arcs (i, i+1) into the regions of the tree t
    of the p-gon; arc i means the arc from vertex i to i+1 mod p."""
    edges = _chords(p, t)
    sig = {}
    for arc in range(p):
        sig.setdefault(tuple(_arc_side(e, arc) for e in edges), []).append(arc)
    return list(sig.values())


def shielding_dual(p, t):
    """Region-adjacency dual of the tree t of the p-gon: on each side of an
    edge, the first boundary arc that no other edge shields from it."""
    edges = _chords(p, t)
    if len(tree_region_arcs(p, t)) != p:
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


def split_regions(p, chords):
    """Regions by recursive splitting: the first chord cuts the cycle in two
    and the other chords go to the side holding both their ends."""
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


def test_enumerators_match_brute_force():
    # same objects in the same (lexicographic) order
    for n in range(1, 6):
        assert enumerate_trees(n) == brute_trees(n)
        assert enumerate_quads(n) == brute_quads(n)


def test_chord_masks_match_chord_sets():
    # every set of 1 to 5 chords on 4- to 10-gons; itertools.combinations of
    # the sorted chords yields each size in _chords order
    checked = 0
    for p in range(4, 11):
        chords = [(a, b) for a in range(p) for b in range(a + 1, p)]
        turned = {(a, b): ((a + 1) % p, (b + 1) % p) for a, b in chords}
        for size in range(1, 6):
            prev = None
            for es in itertools.combinations(chords, size):
                mask = _mask_of(p, es)
                assert prev is None or prev > mask, es  # descending masks
                assert _chords(p, mask) == list(es), es  # decoding, in order
                assert _rotated(p, mask) == _mask_of(p, map(turned.__getitem__, es)), es
                prev = mask
                checked += 1
    assert checked == 1985656


def test_crossing_masks_match_pairwise():
    # a set is noncrossing when no pair crosses: the table's crossing mask of
    # each chord is checked against the pairwise oracle
    for p in range(2, 11):
        table = _chord_table(p)
        for k, e in enumerate(table.chord):
            want = sum(1 << j for j, f in enumerate(table.chord) if _crosses(e, f))
            assert table.cross[k] == want, e


def test_mask_objects_keep_their_chord_sets():
    t = make_tree(3, [(4, 3), (4, 1), (2, 1), (1, 0)])
    assert _chords(5, t) == [(0, 1), (1, 2), (1, 4), (3, 4)]
    assert t == _mask_of(5, _chords(5, t))
    with pytest.raises(ValueError):
        make_tree(3, [(0, 5), (0, 1), (1, 2), (2, 3)])  # no chord of the pentagon


def test_geom_suite_traced_peak():
    # chord sets as plain int masks: about 1.5 MB traced at n = 6, against
    # 2.2 MB with an object around each mask and 15.6 MB as frozensets of pairs
    tracemalloc.start()
    try:
        assert run_geom_suite(6)["ok"]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * 2**20, peak


def test_planar_dual_matches_shielding_oracle():
    for n in range(1, 6):
        for t in enumerate_trees(n):
            assert planar_dual(n + 2, t) == shielding_dual(n + 2, t)


def test_planar_dual_rejects_a_forest():
    forest = _mask_of(4, {(0, 1), (1, 2)})  # vertex 3 isolated
    assert len(tree_region_arcs(4, forest)) != 4
    for dual in (planar_dual, shielding_dual):
        with pytest.raises(SerrelabError):
            dual(4, forest)


def test_stack_noncrossing_matches_pairwise():
    checked = 0
    for p in range(2, 8):
        chords = [(a, b) for a in range(p) for b in range(a + 1, p)]
        for size in range(6):
            for es in itertools.combinations(chords, size):
                want = pairwise_noncrossing(es)
                assert noncrossing(p, _mask_of(p, es)) == want, es
                flipped = [(b, a) for a, b in es]
                assert noncrossing(p, _mask_of(p, flipped)) == want, es
                checked += 2
    assert checked == 67102


def test_counts_match_fuss_catalan():
    for n in range(1, 6):
        trees = enumerate_trees(n)
        quads = enumerate_quads(n)
        assert len(trees) == len(quads) == linear_quiver(n).fuss_catalan(2)
    assert linear_quiver(1).fuss_catalan(2) == 3
    assert linear_quiver(2).fuss_catalan(2) == 12
    assert linear_quiver(3).fuss_catalan(2) == 55
    assert linear_quiver(4).fuss_catalan(2) == 273


def test_guardrail():
    with pytest.raises(GuardrailExceeded):
        enumerate_trees(9)
    # a chord table for a polygon past the cap is never built
    with pytest.raises(GuardrailExceeded):
        make_tree(200, [(0, 1)])
    with pytest.raises(GuardrailExceeded):
        make_quad(8, [(0, 3)])


def test_tree_validation():
    with pytest.raises(ValueError):
        make_tree(2, [(0, 2), (1, 3), (0, 1)])  # crossing chords
    with pytest.raises(ValueError):
        make_tree(2, [(0, 1), (1, 2), (2, 0)])  # cycle


def test_quad_validation():
    with pytest.raises(ValueError):
        make_quad(1, [(0, 2)])  # same parity
    with pytest.raises(ValueError):
        make_quad(1, [(0, 1)])  # boundary edge
    q = make_quad(1, [(1, 4)])
    assert len(split_regions(6, _chords(6, q))) == 2


def test_star_tree_dual():
    # star at one vertex of the square maps to a boundary path
    t = make_tree(2, [(0, 1), (0, 2), (0, 3)])
    d = planar_dual(4, t)
    assert _chords(4, d) == [(0, 3), (1, 2), (2, 3)]


def test_figure_fixture_pentagon_dual():
    # hand-checked region-adjacency dual of the tree {43,41,21,10}
    t = make_tree(3, [(4, 3), (4, 1), (2, 1), (1, 0)])
    d = planar_dual(5, t)
    assert _chords(5, d) == [(0, 1), (0, 3), (2, 3), (3, 4)]


def test_double_dual_is_rotation():
    for n in (1, 2, 3):
        p = n + 2
        for t in enumerate_trees(n):
            assert planar_dual(p, planar_dual(p, t)) == _rotated(p, t)


def test_stokes_figure_fixture():
    q = make_quad(3, [(9, 2), (8, 5), (5, 2)])
    s = stokes(10, q)
    assert _chords(5, s) == [(0, 1), (1, 2), (1, 4), (3, 4)]
    rq = _rotated(10, q)
    assert _chords(10, rq) == [(0, 3), (3, 6), (6, 9)]
    assert stokes(10, rq) == planar_dual(5, s)


def _stokes_by_regions(p, q):
    """The Stokes image from its definition: the even-even diagonal of each
    region of the quadrangulation q of the p-gon, the regions cut by
    split_regions."""
    bit = _chord_table(p // 2).bit
    mask = 0
    for region in split_regions(p, _chords(p, q)):
        marked = [v // 2 for v in region if v % 2 == 0]
        assert len(region) == 4 and len(marked) == 2, region
        mask |= bit[marked[0]][marked[1]]
    return mask


def test_stokes_matches_region_oracle():
    for n in range(1, 6):
        p = 2 * (n + 2)
        for q in enumerate_quads(n):
            assert stokes(p, q) == _stokes_by_regions(p, q)


def test_stokes_bijectivity():
    for n in (1, 2, 3):
        quads = enumerate_quads(n)
        images = {stokes(2 * (n + 2), q) for q in quads}
        assert len(images) == len(quads)
        trees = set(enumerate_trees(n))
        assert images == trees


def test_equivariance_exhaustive_small():
    for n in (1, 2, 3):
        p = 2 * (n + 2)
        for q in enumerate_quads(n):
            assert stokes(p, _rotated(p, q)) == planar_dual(p // 2, stokes(p, q))


def test_rotation_order():
    for n in (1, 2):
        p = 2 * (n + 2)
        for q in enumerate_quads(n):
            cur = q
            k = 0
            while True:
                cur = _rotated(p, cur)
                k += 1
                if cur == q:
                    break
            assert p % k == 0
        # the full rotation by p steps is the identity on every quadrangulation
        cur = q
        for _ in range(p):
            cur = _rotated(p, cur)
        assert cur == q


def test_missing_rotation_fails_equivariance(monkeypatch):
    from serrelab import cli, geom

    quads = enumerate_quads(3)
    monkeypatch.setattr(geom, "enumerate_quads", lambda n: quads[1:])
    suite = geom.run_geom_suite(3)
    assert suite["checks"]["equivariance"]["ok"] is False
    # a verification failure (exit 2), not malformed input (exit 1)
    assert cli.main(["geom", "--n", "3"]) == 2


@pytest.mark.parametrize(
    "image",
    [
        # a spanning tree of the pentagon whose edges (0, 2) and (1, 3) cross
        [(0, 2), (1, 3), (2, 4), (3, 4)],
        # one quadrilateral's chord missing: three edges span no pentagon
        [(1, 3), (2, 4), (3, 4)],
    ],
    ids=["crossing", "not-spanning"],
)
def test_bad_stokes_image_is_a_verification_failure(monkeypatch, image):
    from serrelab import cli, geom

    # every chord of image crosses no diagonal, so all of them are taken
    bit = _chord_table(5).bit
    monkeypatch.setattr(geom, "_marked_chords", lambda p: [(0, bit[a][b]) for a, b in image])
    with pytest.raises(SerrelabError):
        stokes(10, enumerate_quads(3)[0])
    # the suite's own construction failed: exit 2, not malformed input (exit 1)
    assert cli.main(["geom", "--n", "3"]) == 2


def test_invalid_dual_fails_equivariance(monkeypatch):
    from serrelab import cli, geom

    def crossing_dual(p, t):
        return _mask_of(p, [(0, 2), (1, 3), (2, 4), (3, 4)])

    monkeypatch.setattr(geom, "planar_dual", crossing_dual)
    assert geom.run_geom_suite(3)["checks"]["equivariance"]["ok"] is False
    assert cli.main(["geom", "--n", "3"]) == 2
