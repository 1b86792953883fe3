import itertools

import pytest
from fractions import Fraction
from hypothesis import given, settings
from hypothesis import strategies as st

from serrelab.derived import GeneralComplexResult, serre, serre_by_resolution
from serrelab.errors import LatticeMismatch, SerrelabError
from serrelab.fields import PrimeField
from serrelab.lattice import Antichain, IntervalRef, boolean_lattice, chain
from serrelab.reps import (
    LatticeRep,
    antichain_module,
    cokernel,
    direct_sum,
    dual_antichain_module,
    find_interval_iso,
    hom_basis,
    hom_dim,
    image,
    injective_module,
    interval_module,
    is_isomorphic,
    kernel,
    projective_module,
    simple_module,
    subquotient,
    zero_rep,
)

from conftest import boolean_sublattice


def all_intervals(lat):
    for lo, hi in itertools.product(lat.labels, repeat=2):
        if lat.leq(lo, hi):
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
    assert [pentagon.labels[i] for i in m3.support()] == ["0", "a", "b"]
    d = dual_antichain_module(pentagon, Antichain(frozenset({"a", "b"}), "1", "under"))
    assert [pentagon.labels[i] for i in d.support()] == ["c", "1"]


def test_commutativity_validation():
    b2 = boolean_lattice(2)
    one = Fraction(1)
    maps = {cov: [[one]] for cov in b2.covers}
    # break one path of the diamond
    maps[b2.covers[0]] = [[Fraction(2)]]
    with pytest.raises(ValueError):
        LatticeRep(b2, [1, 1, 1, 1], maps, validate=True)


def test_hom_closed_form_rule_exhaustive(pentagon, appendix9):
    for lat in (pentagon, boolean_lattice(3)):
        for I in all_intervals(lat):
            M = interval_module(lat, I)
            for J in all_intervals(lat):
                N = interval_module(lat, J)
                expected = int(
                    lat.leq(J.lo, I.lo) and lat.leq(I.lo, J.hi) and lat.leq(J.hi, I.hi)
                )
                assert hom_dim(M, N) == expected


def test_hom_projectives(pentagon):
    for a, b in itertools.product(pentagon.labels, repeat=2):
        expected = int(pentagon.leq(b, a))
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


def _interval_homs(lat):
    """A nonzero map M_I -> M_J for every pair of intervals with one."""
    for I in all_intervals(lat):
        for J in all_intervals(lat):
            if lat.leq(J.lo, I.lo) and lat.leq(I.lo, J.hi) and lat.leq(J.hi, I.hi):
                (f,) = hom_basis(interval_module(lat, I), interval_module(lat, J))
                yield f


def test_kernel_cokernel_image(pentagon, appendix9):
    c2 = chain(2)
    P0 = projective_module(c2, "0")
    S0 = simple_module(c2, "0")
    (f,) = hom_basis(P0, S0)
    K, incl = kernel(f)
    assert K.dims == (0, 1)  # rad P_0 = P_1
    Im, _ = image(f)
    C, proj = cokernel(f)
    for v in range(c2.n):
        assert Im.dims[v] + K.dims[v] == P0.dims[v]
    assert C.dims == (0, 0)
    # kernel of the identity is zero, cokernel of 0 -> M is M
    idm = hom_basis(P0, P0)[0]
    assert kernel(idm)[0].is_zero()
    z = zero_rep(c2)
    from serrelab.reps import zero_morphism

    CK, _ = cokernel(zero_morphism(z, P0))
    assert CK.dims == P0.dims
    # rank-nullity pointwise, and 0 -> K -> M -> N -> C -> 0 composes to zero
    for lat in (pentagon, appendix9):
        for f in _interval_homs(lat):
            K, k_incl = kernel(f)
            Im, i_incl = image(f)
            C, proj = cokernel(f)
            for v in range(lat.n):
                assert K.dims[v] + Im.dims[v] == f.source.dims[v]
                assert Im.dims[v] + C.dims[v] == f.target.dims[v]
            for g in (k_incl, i_incl, proj):
                g.validate()
            assert f.compose(k_incl).is_zero()
            assert proj.compose(i_incl).is_zero()


def test_kernel_cokernel_induced_maps_commute(pentagon, appendix9):
    checked = 0
    for lat in (pentagon, appendix9):
        for f in _interval_homs(lat):
            for sub, _ in (kernel(f), cokernel(f), image(f)):
                sub.validate_commutes()
            checked += 1
    assert checked > 50


def test_subquotient_whole_module_and_ill_defined_map():
    c2 = chain(2)
    P0 = projective_module(c2, "0")
    whole, basis = subquotient(P0, [[[Fraction(1)]], [[Fraction(1)]]], [[], []])
    assert whole.dims == P0.dims and whole.maps == P0.maps
    assert basis == [[[Fraction(1)]], [[Fraction(1)]]]
    # the cover map 0 -> 1 of P_0 leaves span(sub) at element 1
    with pytest.raises(SerrelabError):
        subquotient(P0, [[[Fraction(1)]], []], [[], []])


def test_canonical_map_on_a_long_chain():
    lat = chain(1500)
    M = interval_module(lat, IntervalRef("0", "1499"))
    assert M.canonical_map(0, 1499) == [[Fraction(1)]]


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


def test_rep_json_dump(pentagon):
    M = interval_module(pentagon, IntervalRef("0", "c"))
    data = M.to_json_dict()
    assert data["dims"]["a"] == 1 and data["dims"]["b"] == 0
    assert all(row == ["1"] for cov in data["cover_maps"] for row in cov["matrix"])


# the closed-form hom rule holds on arbitrary sublattices of B4 as well
@settings(max_examples=25, deadline=None)
@given(st.sets(st.integers(0, 15), min_size=1, max_size=6))
def test_hom_rule_on_random_sublattices(seed):
    lat, _ = boolean_sublattice(seed)
    for I in all_intervals(lat):
        M = interval_module(lat, I)
        for J in all_intervals(lat):
            N = interval_module(lat, J)
            expected = int(lat.leq(J.lo, I.lo) and lat.leq(I.lo, J.hi) and lat.leq(J.hi, I.hi))
            assert hom_dim(M, N) == expected
