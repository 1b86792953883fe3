import glob
import itertools
import json
import os
import random
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from serrelab.errors import CycleDetected, GuardrailExceeded, NotALattice, RedundantCover
from serrelab.lattice import (
    Antichain,
    Lattice,
    Poset,
    boolean_lattice,
    build_lattice,
    chain_product,
    is_boolean_antichain,
    lattice_from_json_dict,
    lattice_to_json_dict,
    load_lattice,
    min_complement_antichain,
    order_dual,
    poset_isomorphism,
    product,
)
from serrelab.typea import gen_tamari, gen_type_i, quiver_a, tamari_rotation_lattice, tors_lattice

from conftest import FIXTURES, boolean_sublattice
from oracles import (
    IntervalRef,
    _chain_factors,
    all_antichains_over,
    antichain_module,
    boolean_partner,
    chain,
    classify,
    interval_labels,
    interval_module,
    is_dual_boolean_antichain,
    join,
    leq,
    meet,
)


def _fixture_lattices():
    return [load_lattice(p) for p in sorted(glob.glob(os.path.join(FIXTURES, "*.json")))]


def test_two_chain():
    lat = build_lattice(["0", "1"], [("0", "1")])
    assert lat.labels[lat.bottom] == "0" and lat.labels[lat.top] == "1"
    assert meet(lat, "0", "1") == "0" and join(lat, "0", "1") == "1"


def test_pentagon_build(pentagon):
    assert pentagon.labels[pentagon.bottom] == "0"
    assert pentagon.labels[pentagon.top] == "1"
    assert join(pentagon, "a", "b") == "1"
    assert meet(pentagon, "a", "b") == "0"


def test_appendix_lattice_build(appendix9):
    assert appendix9.labels[appendix9.bottom] == "1"
    assert appendix9.labels[appendix9.top] == "9"
    assert join(appendix9, "2", "3") == "9"
    assert meet(appendix9, "7", "5") == "4"


def test_cycle_detected():
    with pytest.raises(CycleDetected):
        build_lattice(["a", "b"], [("a", "b"), ("b", "a")])


def test_redundant_cover_names_pair():
    with pytest.raises(RedundantCover) as err:
        build_lattice(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    assert err.value.pair == ("a", "c")


def test_duplicate_cover_names_the_first_pair_listed_twice():
    # [A, B, B, A]: B repeats first, but A is the first cover that is listed twice
    with pytest.raises(RedundantCover) as err:
        build_lattice(["a", "b", "c"], [("a", "b"), ("b", "c"), ("b", "c"), ("a", "b")])
    assert err.value.pair == ("a", "b")
    assert str(err.value) == "cover ('a', 'b') is listed twice"


def test_duplicate_cover_is_found_in_one_count():
    # a chain at the size guardrail with its last cover repeated: counting each
    # cover against the whole list took seconds here
    labels = [str(i) for i in range(10_000)]
    covers = [(labels[i], labels[i + 1]) for i in range(len(labels) - 1)]
    covers.append(covers[-1])
    t0 = time.monotonic()
    with pytest.raises(RedundantCover, match="listed twice") as err:
        build_lattice(labels, covers)
    assert time.monotonic() - t0 < 0.5
    assert err.value.pair == ("9998", "9999")


def test_not_a_lattice_names_pair():
    # two maximal elements -> no join
    with pytest.raises(NotALattice) as err:
        build_lattice(["x", "y", "z"], [("x", "y"), ("x", "z")])
    assert set(err.value.pair) == {"y", "z"}


def test_guardrail():
    n = 10_001
    labels = [str(i) for i in range(n)]
    with pytest.raises(GuardrailExceeded):
        build_lattice(labels, [(labels[i], labels[i + 1]) for i in range(n - 1)])


def _chain_product_by_fold(sizes):
    """The product of chains as a fold of product over chain(1), relabelled
    'e0'..: the oracle of chain_product's one-pass construction."""
    lat = chain(1)
    for s in sizes:
        lat = product(lat, chain(s))
    labels = [f"e{i}" for i in range(lat.n)]
    return build_lattice(labels, [(labels[a], labels[b]) for a, b in lat.covers])


@pytest.mark.parametrize(
    "sizes",
    [(1,), (5,), (2, 2), (2, 3), (3, 2), (1, 3, 1), (2, 2, 2), (3, 1, 4), (2, 3, 4), (4, 4), (2, 2, 2, 2)],
)
def test_chain_product_matches_the_fold(sizes):
    lat, oracle = chain_product(sizes), _chain_product_by_fold(sizes)
    assert (lat.labels, lat.covers) == (oracle.labels, oracle.covers)


def test_chain_product_strides_are_linear_in_the_factors():
    # one stride per factor as a suffix product; a product of the later factors
    # per stride took seconds at this length
    t0 = time.monotonic()
    assert chain_product([1] * 100_000).n == 1
    assert time.monotonic() - t0 < 1.0


def test_oversized_products_are_rejected_before_they_are_built(monkeypatch):
    c101, c100 = chain(101), chain(100)
    built = []
    init = Poset.__init__

    def counted_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Poset, "__init__", counted_init)
    with pytest.raises(GuardrailExceeded, match="16384 elements > 10000"):
        boolean_lattice(14)
    with pytest.raises(GuardrailExceeded, match="10100 elements"):
        chain_product([101, 100])
    with pytest.raises(GuardrailExceeded, match="10100 elements"):
        product(c101, c100)
    assert built == []


def _assert_tables_match_brute_force(lat):
    for a, b in itertools.product(range(lat.n), repeat=2):
        lower = [c for c in range(lat.n) if lat.leq_i(c, a) and lat.leq_i(c, b)]
        maximal = [c for c in lower if not any(d != c and lat.leq_i(c, d) for d in lower)]
        assert len(maximal) == 1
        assert lat.meet_tab[a][b] == maximal[0]
        upper = [c for c in range(lat.n) if lat.leq_i(a, c) and lat.leq_i(b, c)]
        minimal = [c for c in upper if not any(d != c and lat.leq_i(d, c) for d in upper)]
        assert len(minimal) == 1
        assert lat.join_tab[a][b] == minimal[0]


def test_meet_join_oracle_exhaustive(pentagon, appendix9):
    for lat in (pentagon, appendix9, boolean_lattice(3)):
        _assert_tables_match_brute_force(lat)


def test_no_table_is_built_before_its_first_read(monkeypatch):
    scans = []
    scan = Lattice._tables
    monkeypatch.setattr(Lattice, "_tables", lambda self: scans.append(self.n) or scan(self))
    for lat in (chain_product([8, 8, 8]), chain(1500)):
        assert "_meet_join" not in vars(lat)
    assert scans == []
    # the first read of either table fills both with one scan
    lat = load_lattice(os.path.join(FIXTURES, "appendix9.json"))
    join_tab = lat.join_tab
    assert scans == [9] and vars(lat)["_meet_join"] == (lat.meet_tab, join_tab)
    _assert_tables_match_brute_force(lat)
    assert scans == [9]


def _random_poset(rng, n, bounded):
    """Labels and covers of a random poset on n elements, both in shuffled
    input order; bounded adds a least and a greatest element."""
    p = rng.uniform(0.05, 0.8)
    up = [1 << i for i in range(n)]  # i < j in the hidden order when j in up[i]
    for i in range(n - 1, -1, -1):
        for j in range(i + 1, n):
            if rng.random() < p:
                up[i] |= up[j]
    covers = []
    for i in range(n):
        above = up[i] & ~(1 << i)
        higher = 0
        for j in range(n):
            if above >> j & 1:
                higher |= up[j] & ~(1 << j)
        covers += [(i, j) for j in range(n) if (above & ~higher) >> j & 1]
    labels = [f"x{i}" for i in range(n)]
    covers = [(labels[i], labels[j]) for i, j in covers]
    if bounded:
        has_lower = {b for _, b in covers}
        has_upper = {a for a, _ in covers}
        covers += [("bot", x) for x in labels if x not in has_lower]
        covers += [(x, "top") for x in labels if x not in has_upper]
        labels += ["bot", "top"]
    rng.shuffle(labels)
    rng.shuffle(covers)
    return labels, covers


def _scan_verdict(poset):
    """The pair scan's verdict: None, or the pair, kind and message it raises."""
    try:
        Lattice._tables(poset)
    except NotALattice as err:
        return err.pair, err.kind, str(err)
    return None


def test_cover_test_matches_the_pair_scan_on_random_posets():
    # Bjoerner-Edelman-Ziegler against every pair: the same verdict, and on
    # a rejection the same first bad pair, kind and message
    rng = random.Random(2031)
    seen = Counter()
    for k in range(20_000):
        bounded = k % 2 == 0
        labels, covers = _random_poset(rng, rng.randint(1, 9 if bounded else 11), bounded)
        poset = Poset(labels, covers)
        want = _scan_verdict(poset)
        assert Lattice._covers_join(poset) == (want is None), (labels, covers)
        try:
            build_lattice(labels, covers)
            got = None
        except NotALattice as err:
            got = err.pair, err.kind, str(err)
        assert got == want, (labels, covers)
        seen[bounded, want is None] += 1
    # both verdicts, bounded and not, each many times over
    assert min(seen.values()) > 500, seen


def test_cover_test_accepts_every_generator_lattice_and_fixture(pentagon, kite):
    lats = [
        *_fixture_lattices(),
        chain(1),
        chain(6),
        boolean_lattice(4),
        chain_product([3, 1, 4]),
        product(pentagon, kite),
        order_dual(kite),
        tamari_rotation_lattice(5),
        gen_tamari(5),
        gen_type_i(5),
        tors_lattice(quiver_a(4, "LRL")),
    ]
    for lat in lats:
        assert lat._covers_join(), lat
        assert _scan_verdict(lat) is None, lat


def test_leq_compatible_with_meet(pentagon):
    lat = pentagon
    for a, b in itertools.product(lat.labels, repeat=2):
        assert leq(lat, a, b) == (meet(lat, a, b) == a)


def test_interval_members(pentagon):
    assert sorted(interval_labels(pentagon, IntervalRef("0", "c"))) == ["0", "a", "c"]
    with pytest.raises(ValueError):
        interval_labels(pentagon, IntervalRef("a", "b"))


def test_min_complement_antichain(pentagon):
    full = min_complement_antichain(pentagon, IntervalRef("0", "1"))
    assert full.members == frozenset()
    c3 = chain(3)
    ac = min_complement_antichain(c3, IntervalRef("0", "1"))
    assert ac.members == frozenset({"2"})
    ac2 = min_complement_antichain(pentagon, IntervalRef("0", "a"))
    assert ac2.members == frozenset({"b", "c"})
    assert ac2.base == "0" and ac2.mode == "over"


def test_min_complement_reconstructs_interval(pentagon, appendix9):
    for lat in (pentagon, appendix9):
        for lo, hi in itertools.product(lat.labels, repeat=2):
            if not leq(lat, lo, hi):
                continue
            ref = IntervalRef(lo, hi)
            ac = min_complement_antichain(lat, ref)
            assert antichain_module(lat, ac).dims == interval_module(lat, ref).dims


def test_boolean_antichain_basics(pentagon):
    b2 = boolean_lattice(2)
    atoms = frozenset(
        b2.labels[i] for i in range(b2.n) if len(b2.lower_covers[i]) == 1
    )
    assert is_boolean_antichain(b2, Antichain(atoms, b2.labels[b2.bottom], "over"))
    # singleton antichains are always boolean
    assert is_boolean_antichain(chain(2), Antichain(frozenset({"1"}), "0", "over"))
    # gamma is injective and meet-compatible here, so this one is boolean too
    assert is_boolean_antichain(pentagon, Antichain(frozenset({"a", "b"}), "0", "over"))


def test_non_boolean_antichain_diamond():
    m3 = build_lattice(
        ["0", "x", "y", "z", "1"],
        [("0", "x"), ("0", "y"), ("0", "z"), ("x", "1"), ("y", "1"), ("z", "1")],
    )
    tri = Antichain(frozenset({"x", "y", "z"}), "0", "over")
    assert not is_boolean_antichain(m3, tri)
    pair = Antichain(frozenset({"x", "y"}), "0", "over")
    assert is_boolean_antichain(m3, pair)


def test_boolean_partner_bijection(pentagon, appendix9):
    for lat in (pentagon, boolean_lattice(3), appendix9):
        for base in lat.labels:
            for ac in all_antichains_over(lat, base):
                if ac.members and is_boolean_antichain(lat, ac):
                    partner = boolean_partner(lat, ac)
                    assert is_dual_boolean_antichain(lat, partner)


def _antichains_by_combinations(lat, base):
    """Every antichain strictly above base, by testing every subset of the
    up-set: the oracle of all_antichains_over."""
    b = lat.index[base]
    above = [i for i in lat.mask_members(lat.up_mask[b]) if i != b]
    out = []
    for r in range(len(above) + 1):
        for comb in itertools.combinations(above, r):
            if not any(lat.leq_i(i, j) or lat.leq_i(j, i) for i, j in itertools.combinations(comb, 2)):
                out.append(Antichain(frozenset(lat.labels[i] for i in comb), base, "over"))
    return out


def test_antichain_walk_matches_combinations(kite):
    lats = _fixture_lattices()
    for lat in lats + [chain_product([3, 3]), order_dual(kite)]:
        for base in lat.labels:
            walk = all_antichains_over(lat, base)
            assert len(set(walk)) == len(walk)
            assert set(walk) == set(_antichains_by_combinations(lat, base)), (lat.labels, base)


def test_classify_divisor_and_boolean():
    assert classify(chain_product([3, 2])).is_divisor_lattice
    assert classify(chain_product([3, 2])).is_distributive
    b3 = classify(boolean_lattice(3))
    assert b3.is_boolean and b3.chain_sizes == (2, 2, 2)
    assert classify(chain(1)).is_divisor_lattice


def test_classify_kite_and_pentagon(pentagon, kite, appendix9):
    ck = classify(kite)
    assert ck.is_distributive and not ck.is_divisor_lattice
    cp = classify(pentagon)
    assert not cp.is_distributive and cp.is_semidistributive
    ca = classify(appendix9)
    assert not ca.is_semidistributive


def test_product_unit_and_diamond():
    c2 = chain(2)
    b2 = product(c2, c2)
    assert poset_isomorphism(b2, boolean_lattice(2)) is not None
    one = chain(1)
    lat = product(one, chain(3))
    assert poset_isomorphism(lat, chain(3)) is not None


def test_poset_isomorphism_deep_chain():
    # one backtracking level per element: a deep chain must not exhaust the stack
    iso = poset_isomorphism(chain(1200), chain(1200))
    assert iso is not None and all(a == b for a, b in iso.items())


def test_poset_isomorphism_backtracks():
    # against a shuffled copy of boolean(4), some early choices among equally
    # coloured elements reach dead ends and have to be undone
    b4 = boolean_lattice(4)
    data = lattice_to_json_dict(b4)
    covers = {(b4.labels[a], b4.labels[b]) for a, b in b4.covers}
    for seed in range(5):
        rng = random.Random(seed)
        elements = list(data["elements"])
        rng.shuffle(elements)
        shuffled_covers = [tuple(c) for c in data["covers"]]
        rng.shuffle(shuffled_covers)
        other = build_lattice(elements, shuffled_covers)
        iso = poset_isomorphism(b4, other)
        assert iso is not None, seed
        assert {(iso[a], iso[b]) for a, b in covers} == {
            (other.labels[a], other.labels[b]) for a, b in other.covers
        }


def test_product_c2_c3_is_divisor():
    lat = product(chain(2), chain(3))
    assert len(lat) == 6
    c = classify(lat)
    assert c.is_divisor_lattice and sorted(c.chain_sizes) == [2, 3]


def test_product_associative_up_to_relabel():
    a, b, c = chain(2), chain(3), chain(2)
    left = product(product(a, b), c)
    right = product(a, product(b, c))
    assert poset_isomorphism(left, right) is not None


def test_json_roundtrip(appendix9):
    data = lattice_to_json_dict(appendix9)
    again = lattice_from_json_dict(json.loads(json.dumps(data)))
    assert again.labels == appendix9.labels
    assert again.covers == appendix9.covers


def test_json_rejects_redundant_covers():
    data = {"elements": ["a", "b", "c"], "covers": [["a", "b"], ["b", "c"], ["a", "c"]]}
    with pytest.raises(RedundantCover):
        lattice_from_json_dict(data)


def test_order_dual(pentagon):
    d = order_dual(pentagon)
    assert d.labels[d.bottom] == "1" and d.labels[d.top] == "0"
    assert poset_isomorphism(order_dual(d), pentagon) is not None


def test_boolean_antichain_counts_match_dual(pentagon, appendix9):
    # boolean antichains over some base and dual boolean antichains under
    # some base both enumerate the boolean sublattices
    for lat in (pentagon, boolean_lattice(3), appendix9, chain(4)):
        over = sum(
            1
            for base in lat.labels
            for ac in all_antichains_over(lat, base)
            if is_boolean_antichain(lat, ac)
        )
        dual = order_dual(lat)
        under = 0
        for base in dual.labels:
            for ac in all_antichains_over(dual, base):
                mirrored = Antichain(ac.members, ac.base, "under")
                if is_dual_boolean_antichain(lat, mirrored):
                    under += 1
        assert over == under


# random meet/join-closed subsets of B4 are sublattices; they must build
# cleanly and inherit distributivity
@settings(max_examples=40, deadline=None)
@given(st.sets(st.integers(0, 15), min_size=1, max_size=8))
def test_random_sublattice_of_boolean(seed):
    lat, elems = boolean_sublattice(seed)
    assert classify(lat).is_distributive
    for a, b in itertools.product(elems, repeat=2):
        assert meet(lat, str(a), str(b)) == str(a & b)
        assert join(lat, str(a), str(b)) == str(a | b)


def _multiplicative_partitions(n, min_factor=2):
    if n == 1:
        yield ()
        return
    f = min_factor
    while f * f <= n:
        if n % f == 0:
            for rest in _multiplicative_partitions(n // f, f):
                yield (f,) + rest
        f += 1
    yield (n,)


def _divisor_search(lat):
    """Chain sizes by a direct search for a chain-product isomorphism, or None."""
    if lat.n == 1:
        return ()
    if not classify(lat).is_distributive:
        return None
    for part in sorted(_multiplicative_partitions(lat.n)):
        if poset_isomorphism(lat, chain_product(part)) is not None:
            return part
    return None


def test_birkhoff_divisor_test_matches_isomorphism_search(pentagon, kite):
    from serrelab.typea import all_orientations, gen_tamari, gen_type_i, quiver_a, tors_lattice

    lats = _fixture_lattices()
    lats += [chain_product(s) for s in [(1,), (4,), (2, 2), (2, 3), (3, 3), (3, 4), (2, 2, 2),
                                        (2, 2, 3), (2, 3, 4)]]
    lats += [gen_tamari(n) for n in range(1, 6)]
    lats += [gen_type_i(m) for m in range(2, 6)]
    lats += [tors_lattice(quiver_a(3, o)) for o in all_orientations(3)]
    lats += [product(kite, chain(2)), product(kite, kite), product(pentagon, chain(2)), order_dual(kite)]
    assert len(lats) == 33
    divisors = 0
    for lat in lats:
        c = classify(lat)
        want = _divisor_search(lat)
        assert (c.chain_sizes if c.is_divisor_lattice else None) == want, lat.labels
        assert c.is_boolean == (want is not None and all(s == 2 for s in want))
        divisors += want is not None
    assert divisors >= 12


def test_birkhoff_divisor_step_on_chainprod_10_10_10():
    assert _chain_factors(chain_product([10, 10, 10])) == (10, 10, 10)
    assert _chain_factors(chain_product([2, 5, 3])) == (2, 3, 5)


# -- differential test of the boolean-antichain test ---------------------------


def _brute_force_boolean(lat, ac, meet_tab, join_tab):
    """The definition: the subsets-to-joins map is injective and sends
    intersections to meets and unions to joins (the empty subset goes to the
    base); all 4^|C| pairs of subsets."""
    idx = sorted(lat.index[m] for m in ac.members)
    gamma = {}
    for r in range(len(idx) + 1):
        for comb in itertools.combinations(idx, r):
            j = lat.index[ac.base]
            for c in comb:
                j = join_tab[j][c]
            gamma[frozenset(comb)] = j
    if len(set(gamma.values())) != len(gamma):
        return False
    return all(
        gamma[s & t] == meet_tab[gamma[s]][gamma[t]] and gamma[s | t] == join_tab[gamma[s]][gamma[t]]
        for s in gamma
        for t in gamma
    )


def test_boolean_antichain_test_matches_brute_force():
    from test_coxeter import _differential_lattices

    # Tamari(5) has too many antichains for the brute force
    lattices = [lat for lat in _differential_lattices() if lat.n < 42]
    checked = boolean = 0
    for lat in lattices + [order_dual(lat) for lat in lattices[:7]]:
        dual = order_dual(lat)
        for base in lat.labels:
            for ac in all_antichains_over(lat, base):
                expect = _brute_force_boolean(lat, ac, lat.meet_tab, lat.join_tab)
                assert is_boolean_antichain(lat, ac) == expect, (lat.labels, ac)
                checked += 1
                boolean += expect
            for ac in all_antichains_over(dual, base):
                under = Antichain(ac.members, base, "under")
                expect = _brute_force_boolean(lat, under, lat.join_tab, lat.meet_tab)
                assert is_dual_boolean_antichain(lat, under) == expect, (lat.labels, under)
                checked += 1
                boolean += expect
    assert checked == 2 * 2093
    assert 0 < boolean < checked
