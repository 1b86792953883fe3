import itertools
import tracemalloc

import pytest

from serrelab import linalg
from serrelab.coxeter import coxeter_matrix
from serrelab.derived import (
    GeneralComplexResult,
    ScalarComplex,
    StalkResult,
    _alive,
    _restrict,
    cohomology,
    nakayama,
    projective_resolution,
    serre,
    serre_by_resolution,
    serre_orbit,
)
from serrelab.errors import NotAComplex, SerrelabError
from serrelab.fields import QQ, PrimeField
from serrelab.lattice import (
    Antichain,
    boolean_lattice,
    build_lattice,
    chain_product,
    is_boolean_antichain,
    order_dual,
    support_interval,
)
from serrelab.reps import LatticeRep
from serrelab.typea import gen_type_i

from conftest import constructed
from oracles import (
    IntervalRef,
    _check_resolves,
    all_antichains_over,
    antichain_coresolution,
    antichain_module,
    antichain_resolution,
    boolean_partner,
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


def labels_of(lat, idxs):
    return sorted(lat.labels[i] for i in idxs)


def test_resolution_of_projective_is_itself(pentagon):
    P = projective_module(pentagon, "a")
    res = projective_resolution(P)
    assert set(res.degrees) == {0}
    assert labels_of(pentagon, res.degrees[0]) == ["a"]


def test_resolution_two_chain():
    c2 = chain(2)
    res = projective_resolution(simple_module(c2, "0"))
    assert labels_of(c2, res.degrees[0]) == ["0"]
    assert labels_of(c2, res.degrees[-1]) == ["1"]
    assert set(res.degrees) == {0, -1}


def test_resolution_matches_antichain_resolution_on_b2():
    b2 = boolean_lattice(2)
    atoms = frozenset(b2.labels[i] for i in range(b2.n) if len(b2.lower_covers[i]) == 1)
    res = projective_resolution(simple_module(b2, b2.labels[b2.bottom]))
    ac = antichain_resolution(b2, Antichain(atoms, b2.labels[b2.bottom], "over"))
    for d in (-2, -1, 0):
        assert sorted(res.degrees[d]) == sorted(ac.degrees[d])


def test_resolution_minimality_flag(pentagon, appendix9):
    # every interval module, and every direct sum of two, so that degree 0
    # also meets dimensions 2 and generators at one element, over QQ and
    # F_3: each resolution is exact, resolves its module and splits off no
    # summand
    for lat, field in itertools.product((pentagon, appendix9), (QQ, PrimeField(3))):
        intervals = [
            interval_module(lat, IntervalRef(lo, hi), field)
            for lo, hi in itertools.product(lat.labels, repeat=2)
            if leq(lat, lo, hi)
        ]
        sums = [direct_sum(pair)[0] for pair in itertools.combinations_with_replacement(intervals, 2)]
        for M in intervals + sums:
            res = projective_resolution(M)
            _check_resolves(res, M, "minimal resolution")
            assert res.minimal
            for d, mat in res.diffs.items():
                src = res.degrees[d]
                tgt = res.degrees[d + 1]
                for i, t in enumerate(tgt):
                    for j, s in enumerate(src):
                        assert not (t == s and mat[i][j])


def test_antichain_resolution_shapes(pentagon):
    # empty antichain: just the projective
    cx = antichain_resolution(pentagon, Antichain(frozenset(), "a", "over"))
    assert set(cx.degrees) == {0}
    # singleton: two terms
    cx1 = antichain_resolution(pentagon, Antichain(frozenset({"c"}), "0", "over"))
    assert set(cx1.degrees) == {0, -1}
    assert labels_of(pentagon, cx1.degrees[-1]) == ["c"]


def test_antichain_resolution_koszul_signs():
    b2 = boolean_lattice(2)
    atoms = frozenset(b2.labels[i] for i in range(b2.n) if len(b2.lower_covers[i]) == 1)
    cx = antichain_resolution(b2, Antichain(atoms, b2.labels[b2.bottom], "over"))
    d2 = cx.diffs[-2]  # P_top -> P_a + P_b, entries +-1 with opposite signs
    entries = sorted(row[0] for row in d2)
    assert [int(x) for x in entries] == [-1, 1]
    d1 = cx.diffs[-1]
    assert all(abs(int(x)) == 1 for row in d1 for x in row)


def test_antichain_resolution_exactness_everywhere(pentagon, appendix9, kite):
    # cohomology reindexes cycles upward along the covers of sums of projectives
    for lat, field in itertools.product((pentagon, appendix9, kite), (QQ, PrimeField(3))):
        for base in lat.labels:
            for ac in all_antichains_over(lat, base):
                cx = antichain_resolution(lat, ac, field)  # constructor validates homology
                assert cx is not None


def test_antichain_coresolution(pentagon, appendix9, kite):
    # every antichain under every base: the antichains over it in the order
    # dual; cohomology reindexes cycles downward along sums of injectives
    for lat, field in itertools.product((pentagon, appendix9, kite), (QQ, PrimeField(3))):
        dual = order_dual(lat)
        for base in lat.labels:
            for over in all_antichains_over(dual, base):
                ac = Antichain(over.members, base, "under")
                H = cohomology(antichain_coresolution(lat, ac, field))
                assert is_isomorphic(H[0], dual_antichain_module(lat, ac, field)), (lat.labels, ac)
                assert all(h.is_zero() for d, h in H.items() if d != 0), (lat.labels, ac)


def test_not_a_complex():
    c2 = chain(2)
    from fractions import Fraction

    one = Fraction(1)
    for kind in ("proj", "inj"):
        with pytest.raises(NotAComplex):
            ScalarComplex(
                c2,
                kind,
                {0: [0, 0], -1: [0], -2: [0]},
                {-1: [[one], [one]], -2: [[one]]},
            )


def test_nakayama_single_projective(pentagon):
    res = projective_resolution(projective_module(pentagon, "a"))
    cx = nakayama(res)
    H = cohomology(cx)
    assert is_isomorphic(H[0], injective_module(pentagon, "a"))


def test_nakayama_canonical_maps():
    c2 = chain(2)
    res = projective_resolution(simple_module(c2, "0"))  # P_1 -> P_0
    naka = nakayama(res)
    assert naka.kind == "inj" and res.kind == "proj"
    assert naka.degrees == res.degrees and naka.diffs == res.diffs
    # I_1 -> I_0 is the identity at element 0, so its cohomology is the
    # kernel, the simple at element 1, in degree -1, and nothing in degree 0
    H = cohomology(naka)
    assert H[-1].dims == (0, 1)
    assert H[0].is_zero()


def test_cohomology_builds_no_term_module_and_leaves_the_lattice(monkeypatch):
    # one module per degree, the cohomology itself, and nothing stored on
    # a fresh lattice
    lat = build_lattice(
        ["0", "a", "b", "c", "1"],
        [("0", "a"), ("0", "b"), ("a", "c"), ("b", "1"), ("c", "1")],
    )
    M = simple_module(lat, "0")
    before = dict(vars(lat))
    built = constructed(monkeypatch, LatticeRep)
    cx = nakayama(projective_resolution(M))
    H = cohomology(cx)
    assert len(cx.degrees) > 1 and set(H) == set(cx.degrees)
    assert built == {"LatticeRep": len(cx.degrees)}
    assert vars(lat) == before


def test_cohomology_raises_on_an_ill_defined_cover_map():
    # a block P_0 -> P_1 on the chain 0 < 1, where no canonical map exists:
    # the cycle at 0 reaches 1, where the differential kills nothing
    c2 = chain(2)
    cx = ScalarComplex(c2, "proj", {0: [0], 1: [1]}, {0: [[0]]})
    cx.diffs = {0: [[1]]}
    with pytest.raises(SerrelabError, match="ill-defined"):
        cohomology(cx)


def test_cohomology_zero_differentials(pentagon):
    a, b = pentagon.index["a"], pentagon.index["b"]
    cx = ScalarComplex(pentagon, "inj", {0: [a], 1: [b]}, {0: [[0]]})
    H = cohomology(cx)
    assert is_isomorphic(H[0], injective_module(pentagon, "a"))
    assert is_isomorphic(H[1], injective_module(pentagon, "b"))
    # [[3]] is the zero block over F_3, where a and b have no canonical map
    fp = PrimeField(3)
    cx = ScalarComplex(pentagon, "inj", {0: [a], 1: [b]}, {0: [[3]]}, fp)
    assert cx.diffs == {0: [[0]]}
    H = cohomology(cx)
    assert is_isomorphic(H[0], injective_module(pentagon, "a", fp))
    assert is_isomorphic(H[1], injective_module(pentagon, "b", fp))


def test_serre_of_projectives(pentagon, appendix9):
    for lat in (pentagon, appendix9):
        for a in lat.labels:
            res = serre(projective_module(lat, a))
            assert isinstance(res, StalkResult)
            assert res.shift == 0
            assert support_interval(lat, res.support) == IntervalRef(lat.labels[lat.bottom], a)


def test_serre_boolean_antichains_fixtures(pentagon, appendix9, kite):
    # two independent routes: nakayama of the minimal resolution (the oracle
    # behind serre's closed form) and nakayama of the closed-form Koszul
    # resolution; both must land on the dual antichain module in degree -|C|
    lattices = [pentagon, boolean_lattice(2), boolean_lattice(3), kite, appendix9,
                chain_product([3, 2]), gen_type_i(4)]
    checked = 0
    for lat in lattices:
        for base in lat.labels:
            for ac in all_antichains_over(lat, base):
                if not is_boolean_antichain(lat, ac):
                    continue
                M = antichain_module(lat, ac)
                res = serre_by_resolution(M)
                assert isinstance(res, StalkResult), (lat, ac)
                assert res.shift == len(ac.members)
                partner = boolean_partner(lat, ac)
                expected = dual_antichain_module(lat, partner)
                assert res.rep.dims == expected.dims
                assert is_isomorphic(res.rep, expected)
                koszul = cohomology(nakayama(antichain_resolution(lat, ac)))
                live = {d: h for d, h in koszul.items() if not h.is_zero()}
                assert set(live) == {-len(ac.members)}
                assert is_isomorphic(live[-len(ac.members)], expected)
                checked += 1
    assert checked > 50


def test_serre_appendix_non_interval_stalk(appendix9):
    res = serre(injective_module(appendix9, "1"))
    assert isinstance(res, StalkResult)
    assert res.shift == 2
    assert list(res.rep.dims) == [0, 0, 0, 1, 1, 0, 1, 0, 0]
    assert support_interval(appendix9, res.support) is None  # N is not an interval module


def test_serre_orbit_two_chain():
    c2 = chain(2)
    orb = serre_orbit(c2, "1")
    assert orb.period == 3 and orb.total_shift == 1
    intervals = [support_interval(c2, s.support) for s in orb.steps]
    assert intervals == [IntervalRef("0", "0"), IntervalRef("1", "1"), IntervalRef("0", "1")]


def test_serre_orbit_appendix(appendix9):
    orb = serre_orbit(appendix9, "1")
    assert orb.period == 4 and orb.total_shift == 4
    shifts = [s.shift for s in orb.steps]
    assert shifts == [2, 2, 0, 0]
    orb3 = serre_orbit(appendix9, "3")
    assert [s.shift for s in orb3.steps] == [2, 1, 1, 0]
    assert orb3.period == 4 and orb3.total_shift == 4


def test_serre_orbit_appendix_all_nine(appendix9):
    # the full orbit table, with P_a = [a, 9] and I_a = [1, a]; elements 2/3,
    # 5/7 and 6/8 are mirror pairs under the lattice automorphism
    N = (0, 0, 0, 1, 1, 0, 1, 0, 0)
    expected = {
        "1": [(2, N), (2, ("9", "9")), (0, ("1", "9")), (0, ("1", "1"))],
        "2": [(2, ("5", "5")), (1, ("6", "6")), (1, ("2", "9")), (0, ("1", "2"))],
        "3": [(2, ("7", "7")), (1, ("8", "8")), (1, ("3", "9")), (0, ("1", "3"))],
        "4": [(2, ("4", "9")), (0, ("1", "4"))],
        "5": [(2, ("7", "9")), (0, ("1", "7")), (2, ("5", "9")), (0, ("1", "5"))],
        "6": [(1, ("2", "2")), (1, ("4", "7")), (2, ("6", "9")), (0, ("1", "6"))],
        "7": [(2, ("5", "9")), (0, ("1", "5")), (2, ("7", "9")), (0, ("1", "7"))],
        "8": [(1, ("3", "3")), (1, ("4", "5")), (2, ("8", "9")), (0, ("1", "8"))],
        "9": [(0, ("1", "1")), (2, N), (2, ("9", "9")), (0, ("1", "9"))],
    }
    for a, want in expected.items():
        orb = serre_orbit(appendix9, a)
        got = [(s.shift, support_interval(appendix9, s.support) or s.rep.dims) for s in orb.steps]
        assert got == want, a
        assert orb.period == len(want)


def test_serre_orbit_divisor_lattices():
    for sizes in [(2, 2), (3, 2), (4, 2), (4, 3), (2, 2, 2)]:
        lat = chain_product(sizes)
        for a in lat.labels:
            orb = serre_orbit(lat, a)
            assert orb.period is not None


def test_serre_orbit_on_a_1000_element_lattice_traced_peak():
    # no n x n table: each join and meet is one AND of up- or down-sets,
    # about 4 KB traced, against 16 MB with meet and join tables
    lat = chain_product([10, 10, 10])
    tracemalloc.start()
    try:
        orb = serre_orbit(lat, "e0")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert orb.period == 11
    assert peak < 2**20, peak


def test_serre_of_direct_sum(pentagon):
    # exercises resolutions and cohomology with dimensions above 1
    M, _ = direct_sum([projective_module(pentagon, "a"), projective_module(pentagon, "b")])
    res = serre(M)
    assert isinstance(res, StalkResult)
    assert res.shift == 0
    assert support_interval(pentagon, res.support) is None  # a sum of two injectives is not an interval module
    expected, _ = direct_sum(
        [injective_module(pentagon, "a"), injective_module(pentagon, "b")]
    )
    assert is_isomorphic(res.rep, expected)


def test_serre_of_simple_sum_matches_componentwise(pentagon):
    S0 = simple_module(pentagon, "0")
    Sc = simple_module(pentagon, "c")
    M, _ = direct_sum([S0, Sc])
    r0, rc, rsum = serre(S0), serre(Sc), serre(M)
    if r0.shift == rc.shift:
        assert isinstance(rsum, StalkResult) and rsum.shift == r0.shift
        expected, _ = direct_sum([r0.rep, rc.rep])
        assert is_isomorphic(rsum.rep, expected)
    else:
        assert isinstance(rsum, GeneralComplexResult)
        assert rsum.cohomology == {
            -r0.shift: list(r0.rep.dims),
            -rc.shift: list(rc.rep.dims),
        }
        H = cohomology(nakayama(projective_resolution(M)))
        assert is_isomorphic(H[-r0.shift], r0.rep)
        assert is_isomorphic(H[-rc.shift], rc.rep)


def test_serre_duality_appendix(appendix9):
    for a in appendix9.labels:
        P = projective_module(appendix9, a)
        I = injective_module(appendix9, a)
        for lo, hi in itertools.product(appendix9.labels, repeat=2):
            if not leq(appendix9, lo, hi):
                continue
            Y = interval_module(appendix9, IntervalRef(lo, hi))
            assert hom_dim(P, Y) == hom_dim(Y, I)


def test_serre_orbit_max_steps():
    from serrelab.errors import MaxStepsExceeded

    with pytest.raises(MaxStepsExceeded):
        serre_orbit(chain(2), "0", max_steps=1)


def test_serre_orbit_kite_fails(kite):
    orb = serre_orbit(kite, "a")
    assert orb.period is None
    assert isinstance(orb.failure, GeneralComplexResult)
    assert len(orb.failure.cohomology) > 1


def test_serre_duality_spot_check(pentagon):
    # dim Hom(P_a, Y) = dim Hom(Y, S P_a in degree 0) = dim Hom(Y, I_a)
    for a in pentagon.labels:
        P = projective_module(pentagon, a)
        I = injective_module(pentagon, a)
        for lo, hi in itertools.product(pentagon.labels, repeat=2):
            if not leq(pentagon, lo, hi):
                continue
            Y = interval_module(pentagon, IntervalRef(lo, hi))
            assert hom_dim(P, Y) == hom_dim(Y, I)


def test_euler_characteristic_vs_coxeter(pentagon, appendix9):
    for lat in (pentagon, appendix9):
        C = coxeter_matrix(lat).matrix
        for lo, hi in itertools.product(lat.labels, repeat=2):
            if not leq(lat, lo, hi):
                continue
            M = interval_module(lat, IntervalRef(lo, hi))
            H = cohomology(nakayama(projective_resolution(M)))
            euler = [0] * lat.n
            for d, h in H.items():
                sign = 1 if d % 2 == 0 else -1
                euler = [x + sign * y for x, y in zip(euler, h.dims)]
            assert [-x for x in euler] == linalg.mat_vec(C, M.dims)


def _explicit_realization(cx, kind):
    """Components of each differential by the explicit rule: the canonical map
    P_s -> P_t is the identity on up(s), I_s -> I_t the identity on down(t);
    summands sit in the order of their labels at every element."""
    lat = cx.lattice

    def present(label, v):
        return lat.leq_i(label, v) if kind == "proj" else lat.leq_i(v, label)

    def position(labels, j, v):
        return sum(present(labels[k], v) for k in range(j))

    out = {}
    for d, mat in cx.diffs.items():
        src, tgt = cx.degrees[d], cx.degrees[d + 1]
        comps = []
        for v in range(lat.n):
            rows, cols = sum(present(t, v) for t in tgt), sum(present(s, v) for s in src)
            comp = [[0] * cols for _ in range(rows)]
            for i, t in enumerate(tgt):
                for j, s in enumerate(src):
                    on = lat.leq_i(s, v) if kind == "proj" else lat.leq_i(v, t)
                    if mat[i][j] and on:
                        comp[position(tgt, i, v)][position(src, j, v)] = mat[i][j]
            comps.append(comp)
        out[d] = comps
    return out


def test_block_realization_matches_explicit_rule(pentagon, appendix9, kite):
    checked = 0
    for lat in (pentagon, appendix9, kite, boolean_lattice(3)):
        for lo, hi in itertools.product(lat.labels, repeat=2):
            if not leq(lat, lo, hi):
                continue
            res = projective_resolution(interval_module(lat, IntervalRef(lo, hi)))
            for kind in ("proj", "inj"):
                want = _explicit_realization(res, kind)
                for d, mat in res.diffs.items():
                    src = _alive(lat, res.degrees[d], kind)
                    tgt = _alive(lat, res.degrees[d + 1], kind)
                    assert _restrict(mat, src, tgt) == want[d], (lat.labels, lo, hi, kind, d)
                    checked += 1
    assert checked > 100
