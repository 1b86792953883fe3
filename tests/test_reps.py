import itertools

import pytest
from fractions import Fraction
from hypothesis import given, settings
from hypothesis import strategies as st

from serrelab.derived import GeneralComplexResult, projective_resolution, serre, serre_by_resolution
from serrelab.errors import LatticeMismatch
from serrelab.fields import PrimeField
from serrelab.lattice import Antichain, boolean_lattice
from serrelab.reps import LatticeRep, find_interval_iso

from conftest import boolean_sublattice
from oracles import (
    IntervalRef,
    antichain_module,
    chain,
    direct_sum,
    dual_antichain_module,
    hom_dim,
    injective_module,
    interval_module,
    is_isomorphic,
    leq,
    projective_module,
    simple_module,
)


def all_intervals(lat):
    for lo, hi in itertools.product(lat.labels, repeat=2):
        if leq(lat, lo, hi):
            yield IntervalRef(lo, hi)


def test_interval_module_shapes(pentagon):
    full = interval_module(pentagon, IntervalRef("0", "1"))
    assert full.dims == (1, 1, 1, 1, 1)
    assert all(m == [[Fraction(1)]] for m in full.maps.values())
    s = simple_module(pentagon, "a")
    assert s.dims == (0, 1, 0, 0, 0)
    assert projective_module(pentagon, "a").dims == interval_module(pentagon, IntervalRef("a", "1")).dims
    assert injective_module(pentagon, "c").dims == interval_module(pentagon, IntervalRef("0", "c")).dims


def test_antichain_module_supports(pentagon):
    # empty antichain gives the projective at the base
    m = antichain_module(pentagon, Antichain(frozenset(), "a", "over"))
    assert m.dims == projective_module(pentagon, "a").dims
    # covers of the base give the simple
    m2 = antichain_module(pentagon, Antichain(frozenset({"a", "b"}), "0", "over"))
    assert m2.dims == simple_module(pentagon, "0").dims
    # direct support computation for C = {c} over 0: up(0) minus up(c)
    m3 = antichain_module(pentagon, Antichain(frozenset({"c"}), "0", "over"))
    assert [pentagon.labels[i] for i, d in enumerate(m3.dims) if d] == ["0", "a", "b"]
    d = dual_antichain_module(pentagon, Antichain(frozenset({"a", "b"}), "1", "under"))
    assert [pentagon.labels[i] for i, d in enumerate(d.dims) if d] == ["c", "1"]


def test_commutativity_validation():
    b2 = boolean_lattice(2)
    one = Fraction(1)
    # break one path of the diamond, on its first or its last cover: either
    # way the two paths from the bottom to the top disagree
    for broken in (b2.covers[0], b2.covers[-1]):
        maps = {cov: [[one]] for cov in b2.covers}
        maps[broken] = [[Fraction(2)]]
        with pytest.raises(ValueError, match="do not commute between 'e0' and 'e3'"):
            LatticeRep(b2, [1, 1, 1, 1], maps, validate=True)


def test_commutativity_validation_walks_only_from_branching_elements(monkeypatch):
    # two paths from a first part where a has two or more upper covers, so a
    # chain needs no walk at all and B3 one from its bottom and each atom
    calls = []
    walk = LatticeRep.composites
    monkeypatch.setattr(LatticeRep, "composites", lambda M, a: calls.append(a) or walk(M, a))
    for lat in (chain(50), boolean_lattice(3)):
        calls.clear()
        LatticeRep(lat, [1] * lat.n, {cov: [[Fraction(1)]] for cov in lat.covers}, validate=True)
        assert calls == [a for a in range(lat.n) if len(lat.upper_covers[a]) > 1]
    assert len(calls) == 4


def test_hom_closed_form_rule_exhaustive(pentagon, appendix9):
    for lat in (pentagon, boolean_lattice(3)):
        for I in all_intervals(lat):
            M = interval_module(lat, I)
            for J in all_intervals(lat):
                N = interval_module(lat, J)
                expected = int(
                    leq(lat, J.lo, I.lo) and leq(lat, I.lo, J.hi) and leq(lat, J.hi, I.hi)
                )
                assert hom_dim(M, N) == expected


def test_hom_projectives(pentagon):
    for a, b in itertools.product(pentagon.labels, repeat=2):
        expected = int(leq(pentagon, b, a))
        assert hom_dim(projective_module(pentagon, a), projective_module(pentagon, b)) == expected


def test_yoneda(pentagon):
    reps = [
        antichain_module(pentagon, Antichain(frozenset({"c"}), "0", "over")),
        interval_module(pentagon, IntervalRef("0", "c")),
        direct_sum([simple_module(pentagon, "a"), simple_module(pentagon, "1")])[0],
    ]
    for M in reps:
        for a in pentagon.labels:
            assert hom_dim(projective_module(pentagon, a), M) == M.dims[pentagon.index[a]]


def test_hom_mismatch_raises(pentagon):
    other = chain(2)
    with pytest.raises(LatticeMismatch):
        hom_dim(simple_module(pentagon, "0"), simple_module(other, "0"))


def test_composites_on_a_long_chain():
    lat = chain(1500)
    M = interval_module(lat, IntervalRef("0", "1499"))
    assert M.composites(0)[1499] == [[Fraction(1)]]


def test_composites_through_a_zero_space():
    # the path 0 < 1 < 2 < 3 crosses M_2 = 0: the composite is a zero matrix
    # of the right shape, not 1 x 0, which the next cover down would reject
    # with a shape mismatch, in serre(M) too
    lat = chain(4)
    M, _ = direct_sum([interval_module(lat, IntervalRef("0", "1")), simple_module(lat, "3")])
    assert M.composites(1)[3] == [[0]] and M.composites(0)[3] == [[0]]
    res = serre(M)  # the sum of the images: M_[1,2] in degree -1 and P_0 in degree 0
    assert isinstance(res, GeneralComplexResult)
    assert res.cohomology == {-1: [0, 1, 1, 0], 0: [1, 1, 1, 1]}


def test_projective_resolution_leaves_its_module_as_it_was(pentagon):
    # a LatticeRep keeps no memo state: resolving it changes none of its fields
    M, _ = direct_sum([interval_module(pentagon, IntervalRef("0", "c")), simple_module(pentagon, "a")])
    before = repr(vars(M))
    projective_resolution(M)
    assert repr(vars(M)) == before


def test_find_interval_iso(pentagon):
    for I in all_intervals(pentagon):
        assert find_interval_iso(interval_module(pentagon, I)) == I
    Sa, Sb = simple_module(pentagon, "a"), simple_module(pentagon, "b")
    assert find_interval_iso(direct_sum([Sa, Sb])[0]) is None
    # interval support with a zero internal map is not an interval module
    c3 = chain(3)
    one = Fraction(1)
    broken = LatticeRep(c3, [1, 1, 1], {(0, 1): [[Fraction(0)]], (1, 2): [[one]]})
    assert find_interval_iso(broken) is None
    # rescaled interval module still recognized
    scaled = LatticeRep(c3, [1, 1, 1], {(0, 1): [[Fraction(2)]], (1, 2): [[Fraction(3, 7)]]})
    assert find_interval_iso(scaled) == IntervalRef("0", "2")


def test_is_isomorphic(pentagon):
    M = interval_module(pentagon, IntervalRef("0", "c"))
    assert is_isomorphic(M, interval_module(pentagon, IntervalRef("0", "c")))
    assert not is_isomorphic(M, interval_module(pentagon, IntervalRef("0", "1")))
    Sa, Sb = simple_module(pentagon, "a"), simple_module(pentagon, "b")
    two_simples = direct_sum([Sa, Sb])[0]
    assert is_isomorphic(two_simples, direct_sum([Sb, Sa])[0])


def test_is_isomorphic_needs_combination(pentagon):
    # S_a^2 vs itself: no single hom-basis element is invertible, and the
    # deterministic coefficient grid has to find a combination
    Sa = simple_module(pentagon, "a")
    M = direct_sum([Sa, Sa])[0]
    assert is_isomorphic(M, direct_sum([Sa, Sa])[0])


def test_is_isomorphic_same_dims_different_modules():
    c2 = chain(2)
    split = direct_sum([simple_module(c2, "0"), simple_module(c2, "1")])[0]
    full = interval_module(c2, IntervalRef("0", "1"))
    assert split.dims == full.dims
    assert not is_isomorphic(split, full)
    assert not is_isomorphic(full, split)


def test_prime_field_modules(pentagon):
    fp = PrimeField(5)
    M = interval_module(pentagon, IntervalRef("0", "c"), field=fp)
    N = interval_module(pentagon, IntervalRef("0", "1"), field=fp)
    assert hom_dim(M, N) == 0
    assert hom_dim(N, M) == 1


def test_prime_field_cover_maps_are_reduced_at_construction():
    # [[3]] is the zero map over F_3: M is the two simples of chain(2), not
    # the interval [0, 1]; unreduced, it passed for an interval and a stalk
    fp = PrimeField(3)
    M = LatticeRep(chain(2), [1, 1], {(0, 1): [[3]]}, fp)
    assert M.maps[(0, 1)] == [[0]]
    assert find_interval_iso(M) is None
    want = {-1: [0, 1], 0: [1, 1]}
    for res in (serre(M), serre_by_resolution(M)):
        assert isinstance(res, GeneralComplexResult) and res.cohomology == want
    zero = LatticeRep(chain(2), [1, 1], {(0, 1): [[0]]}, fp)
    assert serre(zero).cohomology == want
    half = LatticeRep(chain(2), [1, 1], {(0, 1): [[Fraction(1, 2)]]}, fp)
    assert half.maps[(0, 1)] == [[2]]


# the closed-form hom rule holds on arbitrary sublattices of B4 as well
@settings(max_examples=25, deadline=None)
@given(st.sets(st.integers(0, 15), min_size=1, max_size=6))
def test_hom_rule_on_random_sublattices(seed):
    lat, _ = boolean_sublattice(seed)
    for I in all_intervals(lat):
        M = interval_module(lat, I)
        for J in all_intervals(lat):
            N = interval_module(lat, J)
            expected = int(leq(lat, J.lo, I.lo) and leq(lat, I.lo, J.hi) and leq(lat, J.hi, I.hi))
            assert hom_dim(M, N) == expected
