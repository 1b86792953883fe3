import pytest

from serrelab.errors import GuardrailExceeded
from serrelab.geom import (
    NoncrossingTree,
    Quadrangulation,
    enumerate_quads,
    enumerate_trees,
    fuss_catalan_geom,
    make_quad,
    make_tree,
    planar_dual,
    polygon_regions,
    quadrilaterals,
    rotate_quad,
    rotate_tree,
    stokes,
)


def test_counts_match_fuss_catalan():
    for n in (1, 2, 3):
        trees = enumerate_trees(n)
        quads = enumerate_quads(n)
        assert len(trees) == len(quads) == fuss_catalan_geom(n)
    assert fuss_catalan_geom(1) == 3
    assert fuss_catalan_geom(2) == 12
    assert fuss_catalan_geom(3) == 55
    assert fuss_catalan_geom(4) == 273


def test_guardrail():
    with pytest.raises(GuardrailExceeded):
        enumerate_trees(9)


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
    assert len(quadrilaterals(q)) == 2


def test_star_tree_dual():
    # star at one vertex of the square maps to a boundary path
    t = make_tree(2, [(0, 1), (0, 2), (0, 3)])
    d = planar_dual(t)
    assert d.edges == frozenset({(1, 2), (2, 3), (0, 3)})


def test_figure_fixture_pentagon_dual():
    # hand-checked region-adjacency dual of the tree {43,41,21,10}
    t = make_tree(3, [(4, 3), (4, 1), (2, 1), (1, 0)])
    d = planar_dual(t)
    assert d.edges == frozenset({(0, 1), (0, 3), (2, 3), (3, 4)})


def test_double_dual_is_rotation():
    for n in (1, 2, 3):
        for t in enumerate_trees(n):
            assert planar_dual(planar_dual(t)) == rotate_tree(t, 1)


def test_regions_partition_polygon():
    q = make_quad(3, [(9, 2), (8, 5), (5, 2)])
    regions = polygon_regions(q.p, q.diagonals)
    assert len(regions) == 4
    assert sorted(len(r) for r in regions) == [4, 4, 4, 4]


def test_stokes_figure_fixture():
    q = make_quad(3, [(9, 2), (8, 5), (5, 2)])
    s = stokes(q)
    assert s.edges == frozenset({(0, 1), (1, 2), (1, 4), (3, 4)})
    rq = rotate_quad(q)
    assert rq.diagonals == frozenset({(0, 3), (6, 9), (3, 6)})
    assert stokes(rq) == planar_dual(s)


def test_each_quadrilateral_has_one_marked_chord():
    for n in (1, 2, 3):
        for q in enumerate_quads(n):
            for quad in quadrilaterals(q):
                marked = [v for v in quad if v % 2 == 0]
                assert len(marked) == 2


def test_stokes_bijectivity():
    for n in (1, 2, 3):
        quads = enumerate_quads(n)
        images = {stokes(q) for q in quads}
        assert len(images) == len(quads)
        trees = set(enumerate_trees(n))
        assert images == trees


def test_equivariance_exhaustive_small():
    for n in (1, 2, 3):
        for q in enumerate_quads(n):
            assert stokes(rotate_quad(q)) == planar_dual(stokes(q))


def test_rotation_order():
    for n in (1, 2):
        p = 2 * (n + 2)
        for q in enumerate_quads(n):
            cur = q
            k = 0
            while True:
                cur = rotate_quad(cur)
                k += 1
                if cur == q:
                    break
            assert p % k == 0
        # the full rotation by p steps is the identity on every quadrangulation
        cur = q
        for _ in range(p):
            cur = rotate_quad(cur)
        assert cur == q


def test_missing_rotation_fails_equivariance(monkeypatch):
    from serrelab import cli, geom

    quads = enumerate_quads(3)
    monkeypatch.setattr(geom, "enumerate_quads", lambda n: quads[1:])
    suite = geom.run_geom_suite(3)
    assert suite["checks"]["equivariance"]["ok"] is False
    # a verification failure (exit 2), not malformed input (exit 1)
    assert cli.main(["geom", "--n", "3"]) == 2
