import math
import random

import pytest

from serrelab import typea
from serrelab.errors import GuardrailExceeded, SerrelabError
from serrelab.lattice import _cliques, poset_isomorphism
from serrelab.typea import (
    QUIVER_GUARDRAIL,
    ClusterTriple,
    all_orientations,
    cluster_triples,
    gen_tamari,
    gen_type_i,
    interval_mutations,
    interval_of,
    linear_quiver,
    mutable_intervals,
    quiver_a,
    rotation_check,
    serre_orbit_stats,
    tamari_rotation_lattice,
    tors_lattice,
)
from serrelab.typea import _Engine, _engine

from oracles import (
    a_of,
    a_of_torsionfree,
    almost_triples,
    bit_walk_closures,
    classify,
    close,
    cogen,
    completions,
    edge_label,
    ext1_dim_q,
    gen,
    hom_dim_q,
    indec_rep,
    interval,
    interval_members,
    quiver_tables,
    quotients_of,
    serre_perm_inverse,
    subs_of,
    torsion_classes,
    wide_subcats,
)
from test_root_data import root_quiver


def masks(eng, *pairs):
    m = 0
    for p in pairs:
        m |= 1 << eng.idx[interval(eng.n, *p)]
    return m


def test_quiver_validation():
    for n, o in [(3, "L"), (3, "LX"), (0, "")]:
        with pytest.raises(ValueError):
            quiver_a(n, o)
    with pytest.raises(GuardrailExceeded):
        torsion_classes(quiver_a(6, "L" * 5))


def test_roots_are_the_intervals_in_lo_hi_order():
    # every mask_label of the golden reports reads bit i as the i-th
    # interval [lo, hi] in (lo, hi) order
    for n in range(1, QUIVER_GUARDRAIL + 1):
        want = [interval(n, lo, hi) for lo in range(1, n + 1) for hi in range(lo, n + 1)]
        for o in all_orientations(n):
            assert quiver_a(n, o).indecs() == want, (n, o)


def test_fuss_catalan_from_root_heights_is_the_type_a_closed_form():
    for n in range(1, 9):
        want = math.comb(3 * n + 3, n + 1) // (2 * n + 3)
        assert linear_quiver(n).fuss_catalan(2) == want, n
        assert linear_quiver(n).fuss_catalan(1) == math.comb(2 * n + 2, n + 1) // (n + 2), n


def test_indec_rep_and_count():
    q = linear_quiver(3)
    full = indec_rep(q, interval(3, 1, 3))
    assert full["dims"] == (1, 1, 1)
    assert all(v == 1 for v in full["arrow_scalars"].values())
    s = indec_rep(q, interval(3, 2, 2))
    assert s["dims"] == (0, 1, 0)
    eng = _engine(q)
    assert eng.N == 6  # n(n+1)/2


# -- the engine against the brute-force definitions ---------------------------


def _oracle(q):
    """The engine's torsion classes and their labelled covers from their
    definitions: every one of the 2^N sets tested for closure under the
    linear-solve quotients and extension middles, and covers found by
    testing every triple of torsion classes."""
    tab = quiver_tables(q)
    N, quot, mid = tab.N, tab.quot_mask, tab.mid_pairs

    def closed(mask):
        return all(
            not quot[i] & ~mask and not any(mask >> j & 1 and r & ~mask for j, r in mid[i])
            for i in range(N)
            if mask >> i & 1
        )

    tors = sorted((m for m in range(1 << N) if closed(m)), key=lambda m: (m.bit_count(), m))
    hom_out = [sum(1 << j for j in range(N) if tab.h[i][j]) for i in range(N)]
    lower, upper = {m: [] for m in tors}, {m: [] for m in tors}
    for ma in tors:
        perp = (1 << N) - 1
        for i in range(N):
            if ma >> i & 1:
                perp &= ~hom_out[i]
        for mb in tors:
            if ma != mb and ma & mb == ma:
                if not any(mc not in (ma, mb) and ma & mc == ma and mc & mb == mc for mc in tors):
                    label = perp & mb
                    assert label.bit_count() == 1, "cover edge label is not unique"
                    lower[mb].append((ma, label))
                    upper[ma].append((mb, label))
    return {"tors_masks": tors, "tors_lower": lower, "tors_upper": upper}


def _bit(mask, i):
    return mask >> i & 1 == 1


def test_engine_matches_brute_force_on_every_quiver():
    quivers = [quiver_a(n, o) for n in range(1, QUIVER_GUARDRAIL + 1) for o in all_orientations(n)]
    assert len(quivers) == 31
    for q in quivers:
        eng = _Engine(q)
        tab = quiver_tables(q)
        N, full = eng.N, eng.full_mask
        assert eng.indecs == tab.indecs, q
        # the Euler-sign tables against the linear-solve Hom and Ext
        for i in range(N):
            for j in range(N):
                hom, ext = tab.h[i][j] != 0, tab.e[i][j] != 0
                assert _bit(eng.hom_out[i], j) == _bit(eng.hom_in[j], i) == hom, (q, i, j)
                assert _bit(eng.ext_out[i], j) == _bit(eng.ext_in[j], i) == ext, (q, i, j)
                assert _bit(eng.orth_out[i], j) == _bit(eng.orth_in[j], i) == (not hom and not ext)
        assert eng.proj_mask == tab.proj_mask, q
        for name, want in _oracle(q).items():
            assert getattr(eng, name) == want, (q, name)
        # the order read off the lattice against inclusion scans: up-sets,
        # the mutable intervals (every pair lo <= hi with a(lo) in a(hi)),
        # and the members of each interval
        tors, a = eng.tors_masks, eng.a_tors
        for p, t in enumerate(tors):
            assert eng.lat.up_mask[p] == sum(1 << r for r, u in enumerate(tors) if t & u == t), (q, t)
        scan = [(lo, hi) for lo in tors for hi in tors if lo & hi == lo and a[lo] & a[hi] == a[lo]]
        assert list(eng.mutable_intervals) == scan, q
        for iv in eng.mutable_intervals.values():
            members = sum(1 << r for r, t in enumerate(tors) if iv.lo & t == iv.lo and t & iv.hi == t)
            assert eng._member_bits(iv) == members, (q, iv)
        # the torsion closure against the quotient and extension fixpoint
        small = [0] + [1 << i | 1 << j for i in range(N) for j in range(i, N)]
        for mask in small:
            assert eng.torsion_closed(mask) == close(mask, tab.quot_mask, tab.mid_pairs), (q, mask)
        # the wide closure of every semibrick against the extension, kernel
        # and cokernel fixpoint, and the simples of every wide subcategory
        compat = [full & ~sum(1 << j for j in range(N) if tab.h[i][j] or tab.h[j][i]) for i in range(N)]
        wides = set()
        for mask in _cliques(compat, full):
            wide = close(mask, None, tab.wide_pairs)
            assert eng.wide_closure(mask) == wide, (q, mask)
            wides.add(wide)
        for wide in wides:
            simples = sum(1 << x for x in range(N) if _bit(wide, x) and not wide & tab.sub_mask[x] & ~(1 << x))
            assert eng.simples_of(wide) == simples, (q, wide)


def _kernel_values(eng, mask):
    return {
        "perp_from": eng.perp_from(mask),
        "perp_into": eng.perp_into(mask),
        "wide_closure": eng.wide_closure(mask),
        "simples_of": eng.simples_of(mask),
        "ext_injectives_in": eng.ext_injectives_in(mask),
        "ext_projectives_in": eng.ext_projectives_in(mask),
        "hom_ext_out": typea._or_over(eng._hom_ext_out_tabs, mask),
    }


def test_byte_table_closures_match_the_bit_walks():
    # every mask when there are at most 10 roots, else seeded random ones;
    # F4's 24 roots read three byte tables per closure
    quivers = [quiver_a(n, o) for n in range(1, QUIVER_GUARDRAIL + 1) for o in all_orientations(n)]
    quivers += [root_quiver(*c) for c in (("G2", "L"), ("B3", "LR"), ("C3", "RL"), ("D4", "LRL"), ("F4", "LRL"))]
    assert len(quivers) == 36
    rng = random.Random(31)
    for q in quivers:
        eng = _Engine(q)
        if eng.N <= 10:
            masks = range(1 << eng.N)
        else:
            masks = [0, eng.full_mask, *(rng.getrandbits(eng.N) for _ in range(2000))]
        for mask in masks:
            assert _kernel_values(eng, mask) == bit_walk_closures(eng, mask), (q.cartan, q.orientation, mask)


def test_an_engine_that_only_walks_tors_builds_the_hom_tables_alone():
    eng = _Engine(linear_quiver(4))
    tabs = {name for name in vars(eng) if name.endswith("_tabs")}
    assert tabs == {"_hom_out_tabs", "_hom_in_tabs"}


def test_hom_and_ext_basics():
    q = linear_quiver(2)  # arrow 2 -> 1
    S1, S2, P2 = interval(2, 1, 1), interval(2, 2, 2), interval(2, 1, 2)
    assert hom_dim_q(q, S1, S1) == 1
    # orientation decides which extension exists: 0 -> S1 -> [1,2] -> S2 -> 0
    assert ext1_dim_q(q, S2, S1) == 1
    assert ext1_dim_q(q, S1, S2) == 0
    # projectives have no self-extensions against anything
    for m in (S1, S2, P2):
        assert ext1_dim_q(q, P2, m) == 0
    # hom additive on sums
    assert hom_dim_q(q, [S1, P2], [P2, S1]) == hom_dim_q(q, S1, P2) + hom_dim_q(
        q, S1, S1
    ) + hom_dim_q(q, P2, P2) + hom_dim_q(q, P2, S1)


def test_quotients_and_subs():
    S1, S2, P = interval(2, 1, 1), interval(2, 2, 2), interval(2, 1, 2)
    qL = quiver_a(2, "L")  # arrow 2 -> 1
    assert quotients_of(qL, P) == frozenset({P, S2})
    assert subs_of(qL, P) == frozenset({P, S1})
    qR = quiver_a(2, "R")  # arrow 1 -> 2
    assert quotients_of(qR, P) == frozenset({P, S1})
    for q in (qL, qR):
        for m in (S1, S2):
            assert quotients_of(q, m) == frozenset({m})
            assert m in subs_of(q, m)


def test_torsion_class_counts():
    assert len(torsion_classes(quiver_a(1, ""))) == 2
    for o in all_orientations(2):
        assert len(torsion_classes(quiver_a(2, o))) == 5
    for o in all_orientations(3):
        assert len(torsion_classes(quiver_a(3, o))) == 14


def test_tors_lattice_shape():
    lat = tors_lattice(quiver_a(2, "L"))
    assert len(lat) == 5
    c = classify(lat)
    assert not c.is_distributive and c.is_semidistributive  # the pentagon


def test_wide_subcat_counts():
    assert len(wide_subcats(quiver_a(2, "L"))) == 5
    assert len(wide_subcats(quiver_a(3, "LL"))) == 14


def test_a_gen_inverse_bijection():
    for o in all_orientations(3):
        q = quiver_a(3, o)
        for T in torsion_classes(q):
            W = a_of(q, T)
            assert gen(q, W) == T
        # 0 and mod Lambda are fixed points
        assert a_of(q, frozenset()) == frozenset()
        allm = frozenset(_engine(q).indecs)
        assert a_of(q, allm) == allm


def test_cogen_side():
    q = quiver_a(2, "L")
    eng = _engine(q)
    for T in torsion_classes(q):
        Fmask = eng.perp_from(eng_mask(eng, T))
        F = frozenset(eng.indecs[i] for i in range(eng.N) if Fmask >> i & 1)
        W = a_of_torsionfree(q, F)
        assert cogen(q, W) == F


def eng_mask(eng, members):
    m = 0
    for x in members:
        m |= 1 << eng.idx[x]
    return m


def test_a_of_satisfies_membership_conditions():
    # single-indecomposable kernels/cokernels of maps inside T stay in T for
    # every member of a(T): the definition's necessary condition
    for o in all_orientations(3):
        q = quiver_a(3, o)
        eng = _engine(q)
        tab = quiver_tables(q)
        assert tab.indecs == eng.indecs
        for T in eng.tors_masks:
            W = eng.a_tors[T]
            for x in range(eng.N):
                if not W >> x & 1:
                    continue
                assert T >> x & 1
                for y in range(eng.N):
                    if not T >> y & 1:
                        continue
                    if tab.h[x][y]:
                        assert tab.cokerdec[(x, y)] & ~T == 0
                    if tab.h[y][x]:
                        assert tab.kerdec[(y, x)] & ~T == 0


def test_mutable_interval_counts():
    assert len(mutable_intervals(quiver_a(1, ""))) == 3
    for o in all_orientations(2):
        assert len(mutable_intervals(quiver_a(2, o))) == 12
    for o in all_orientations(3):
        assert len(mutable_intervals(quiver_a(3, o))) == 55
    assert quiver_a(2, "L").fuss_catalan(2) == 12 and quiver_a(3, "LR").fuss_catalan(2) == 55


def test_equicardinal_all_orientations_n4():
    for o in all_orientations(4):
        q = quiver_a(4, o)
        assert len(mutable_intervals(q)) == len(cluster_triples(q)) == 273


def test_trivial_and_extreme_intervals_mutable():
    q = quiver_a(3, "LR")
    eng = _engine(q)
    ivs = eng.mutable_intervals
    full = eng.full_mask  # mod Lambda is always a torsion class
    for T in eng.tors_masks:
        assert (T, T) in ivs
        assert (0, T) in ivs
        assert (T, full) in ivs


def test_delta_ranks_sum():
    q = quiver_a(3, "LL")
    for iv in mutable_intervals(q):
        assert sum(iv.delta_ranks) == 3


def test_serre_perm_inverse_roundtrip():
    for o in all_orientations(3):
        q = quiver_a(3, o)
        eng = _engine(q)
        for iv in mutable_intervals(q):
            assert serre_perm_inverse(eng, eng.serre_perm(iv)).key == iv.key
            assert eng.serre_perm(serre_perm_inverse(eng, iv)).key == iv.key


def test_serre_perm_simple_interval_alternative():
    # for trivial intervals the image set has the hat-description: everything
    # under T v Gen a(F) not trapped under any coatom join
    q = quiver_a(2, "L")
    eng = _engine(q)
    ivs = eng.mutable_intervals
    for (lo, hi), iv in ivs.items():
        if lo != hi:
            continue
        aF = eng.a_free[lo]
        simples = [i for i in range(eng.N) if eng.simples_of(aF) >> i & 1]
        top = eng.torsion_closed(lo | aF)
        hat = []
        for T in eng.tors_masks:
            if T & top != T:
                continue
            good = True
            for i in simples:
                rest = 0
                for j in simples:
                    if j != i:
                        rest |= 1 << j
                bound = eng.torsion_closed(lo | rest)
                if T & bound == T:
                    good = False
                    break
            if good:
                hat.append(T)
        s = eng.serre_perm(iv)
        members = [m for m in eng.tors_masks if s.lo & m == s.lo and m & s.hi == m]
        assert sorted(hat) == sorted(members)


def test_serre_orbit_stats_periods():
    stats1 = serre_orbit_stats(quiver_a(1, ""))
    assert stats1["period_bound"] == 6
    for o in all_orientations(2):
        stats = serre_orbit_stats(quiver_a(2, o))
        assert stats["period_bound"] == 8
    for o in all_orientations(3):
        stats = serre_orbit_stats(quiver_a(3, o))
        assert stats["period_bound"] == 10


def _serre_formula(eng, iv):
    """S(I) straight from its definition, two torsion closures per call."""
    ivs = eng.mutable_intervals
    return ivs[(eng.torsion_closed(iv.t_free), eng.torsion_closed(iv.lo | iv.w_free))]


def _orbit_stats_oracle(eng, q):
    """serre_orbit_stats by iterating the formula 2h+2 times per interval."""
    ivs = eng.mutable_intervals
    period = 2 * (q.n + 1) + 2
    lengths = []
    for key, iv in ivs.items():
        cur, ranksum, length = iv, 0, None
        for step in range(1, period + 1):
            cur = _serre_formula(eng, cur)
            ranksum += cur.k
            if length is None and cur.key == key:
                length = step
        assert cur.key == key and ranksum == q.n * (q.n + 1)
        lengths.append(length)
    # an orbit of length L is met once from each of its L intervals
    cycle_lengths = sorted(L for L in set(lengths) for _ in range(lengths.count(L) // L))
    return {"period_bound": period, "cycle_lengths": cycle_lengths, "orbit_count": len(cycle_lengths)}


def _orientations_up_to_a4():
    return [quiver_a(n, o) for n in range(1, 5) for o in all_orientations(n)]


def test_serre_table_matches_formula():
    checked = 0
    for q in _orientations_up_to_a4():
        eng = _engine(q)
        for iv in mutable_intervals(q):
            assert eng.serre_perm(iv) is _serre_formula(eng, iv)
            checked += 1
    assert checked == 1 * 3 + 2 * 12 + 4 * 55 + 8 * 273


def test_serre_orbit_stats_match_iterated_formula():
    for q in _orientations_up_to_a4():
        assert serre_orbit_stats(q) == _orbit_stats_oracle(_engine(q), q), q


def test_serre_table_is_built_once_per_engine(monkeypatch):
    q = quiver_a(3, "LR")
    eng = _Engine(q)  # a fresh engine, outside the lru cache
    ivs = list(eng.mutable_intervals.values())
    want = [_serre_formula(eng, iv) for iv in ivs]
    calls = []
    closure = eng.torsion_closed
    monkeypatch.setattr(eng, "torsion_closed", lambda mask: calls.append(mask) or closure(mask))
    for _ in range(3):
        assert all(eng.serre_perm(iv) is s for iv, s in zip(ivs, want))
    assert len(calls) == 2 * len(ivs)


def test_assert_mutation_rejects_bad_triples():
    q = quiver_a(3, "LR")
    eng = _engine(q)
    for m in interval_mutations(q):
        eng._assert_mutation(m.B, m.I, m.A)
        with pytest.raises(SerrelabError, match="max B != max I"):
            eng._assert_mutation(m.A, m.I, m.B)  # A and B swapped
        with pytest.raises(SerrelabError, match="not a disjoint union"):
            eng._assert_mutation(m.B, m.I, m.I)  # the parts overlap


def test_interval_mutation_counts_and_structure():
    for n, o in [(2, "L"), (2, "R"), (3, "LL"), (3, "LR")]:
        q = quiver_a(n, o)
        ivs = mutable_intervals(q)
        muts = interval_mutations(q)
        assert 3 * len(muts) == n * len(ivs)
        eng = _engine(q)
        for m in muts:
            mi = set(interval_members(eng, m.I))
            ma = set(interval_members(eng, m.A))
            mb = set(interval_members(eng, m.B))
            assert ma | mb == mi and not (ma & mb)
            assert m.A.lo == m.I.lo and m.B.hi == m.I.hi


def test_proper_intervals_admit_a_mutation():
    q = quiver_a(3, "LL")
    eng = _engine(q)
    for iv in mutable_intervals(q):
        if iv.lo != iv.hi:
            assert eng.rank_of(iv.delta[1]) >= 1


def test_rotation_check_all():
    for n, o in [(2, "L"), (3, "LL"), (3, "RL")]:
        records = rotation_check(quiver_a(n, o))
        assert records
        assert all(r["case"] in (1, 2) for r in records)


def test_cluster_triples_counts_and_bijection():
    for n in (2, 3):
        for o in all_orientations(n):
            q = quiver_a(n, o)
            triples = cluster_triples(q)
            ivs = mutable_intervals(q)
            assert len(triples) == len(ivs) == q.fuss_catalan(2)
            assert {interval_of(q, t).key for t in triples} == {iv.key for iv in ivs}


def test_cluster_roundtrip():
    q = quiver_a(3, "LL")
    for iv in mutable_intervals(q):
        t = ClusterTriple(iv.t_free, iv.t_tors, iv.t_supp)
        assert interval_of(q, t).key == iv.key


def test_all_projectives_triple():
    q = quiver_a(3, "LL")
    eng = _engine(q)
    t = ClusterTriple(t_free=0, t_tors=0, t_supp=eng.proj_mask)
    iv = interval_of(q, t)
    assert iv.lo == 0  # Gen(0) = 0
    assert iv.hi == max(eng.tors_masks)  # no hom condition: all of mod Lambda


def test_almost_triples_have_three_completions():
    for n, o in [(2, "L"), (3, "LL")]:
        q = quiver_a(n, o)
        eng = _engine(q)
        alm = almost_triples(eng)
        assert len(alm) == len(interval_mutations(q))
        mutsets = {
            frozenset((m.B.key, m.I.key, m.A.key)) for m in interval_mutations(q)
        }
        for a in alm:
            comps = completions(eng, a)
            assert len(comps) == 3
            image = frozenset(interval_of(q, t).key for t in comps)
            assert image in mutsets


def test_linear_a3_first_worked_cluster_triple():
    # linear A_3: T_free = [1,2], T_tors = {[2,2],[1,3]}, T_supp = 0 maps to
    # the trivial interval at the torsion class {[1,3],[2,2],[2,3],[3,3]}
    q = linear_quiver(3)
    eng = _engine(q)
    t = ClusterTriple(
        t_free=masks(eng, (1, 2)),
        t_tors=masks(eng, (2, 2), (1, 3)),
        t_supp=0,
    )
    iv = interval_of(q, t)
    expected = masks(eng, (1, 3), (2, 2), (2, 3), (3, 3))
    assert iv.lo == expected and iv.hi == expected


def test_linear_a3_second_worked_cluster_triple():
    # T_free = [1,1], T_tors = [1,2], T_supp = [1,3]: the interval from
    # {[1,2],[2,2]} up to the torsion class with torsion-free part {[1,1]}
    q = linear_quiver(3)
    eng = _engine(q)
    t = ClusterTriple(
        t_free=masks(eng, (1, 1)),
        t_tors=masks(eng, (1, 2)),
        t_supp=masks(eng, (1, 3)),
    )
    iv = interval_of(q, t)
    assert iv.lo == masks(eng, (1, 2), (2, 2))
    assert eng.perp_from(iv.hi) == masks(eng, (1, 1))


def test_linear_a3_worked_augmented_interval():
    # I = [0 <= perp(S_1)], X = S_3 induces B with lower bound Gen(S_3) and
    # A with upper torsion-free part {[1,1],[3,3]}
    q = linear_quiver(3)
    eng = _engine(q)
    hi = eng.perp_into(masks(eng, (1, 1)))
    target = None
    for m in interval_mutations(q):
        if m.I.key == (0, hi) and m.x == interval(3, 3, 3):
            target = m
    assert target is not None
    assert target.B.lo == eng.torsion_closed(masks(eng, (3, 3)))
    assert eng.perp_from(target.A.hi) == masks(eng, (1, 1), (3, 3))


def test_edge_label():
    q = quiver_a(2, "L")
    eng = _engine(q)
    lat = eng.lat
    label_to_mask = dict(zip(lat.labels, eng.tors_masks))
    for a, b in lat.covers:
        lo = [eng.indecs[i] for i in range(eng.N) if label_to_mask[lat.labels[a]] >> i & 1]
        hi = [eng.indecs[i] for i in range(eng.N) if label_to_mask[lat.labels[b]] >> i & 1]
        lab = edge_label(q, lo, hi)
        assert lab in set(hi) - set(lo)


def test_gen_tamari():
    assert len(gen_tamari(1)) == 1
    assert len(gen_tamari(2)) == 2
    assert len(gen_tamari(3)) == 5
    assert len(gen_tamari(4)) == 14
    rot = tamari_rotation_lattice(4)
    assert poset_isomorphism(gen_tamari(4), rot) is not None


def test_gen_tamari_checks_the_rank_before_any_quiver(monkeypatch):
    # Tamari(N) is tors of A_{N-1}; a rank past the guardrail must not
    # build its (N-1) x (N-1) Cartan matrix first
    def unreachable(*args):
        raise AssertionError("quiver_a called before the rank check")

    monkeypatch.setattr(typea, "quiver_a", unreachable)
    for n in (QUIVER_GUARDRAIL + 2, 10**6):
        with pytest.raises(GuardrailExceeded):
            gen_tamari(n)


def test_gen_type_i():
    d = gen_type_i(2)
    assert len(d) == 4 and classify(d).is_boolean
    p = gen_type_i(3)
    assert len(p) == 5
    assert poset_isomorphism(p, tors_lattice(quiver_a(2, "L"))) is not None
    assert len(gen_type_i(4)) == 6
    with pytest.raises(ValueError):
        gen_type_i(1)
