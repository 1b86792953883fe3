import pytest

from serrelab import linalg
from serrelab.errors import GuardrailExceeded, SerrelabError
from serrelab.fields import QQ
from serrelab.lattice import poset_isomorphism
from serrelab.typea import (
    QUIVER_GUARDRAIL,
    ClusterTriple,
    IndecA,
    QuiverA,
    all_orientations,
    cluster_triples,
    fuss_catalan_count,
    gen_tamari,
    gen_type_i,
    interval_mutations,
    interval_of,
    linear_quiver,
    mutable_intervals,
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
    classify,
    cogen,
    completions,
    edge_label,
    ext1_dim_q,
    gen,
    hom_dim_q,
    indec_rep,
    interval_members,
    quotients_of,
    serre_perm_inverse,
    subs_of,
    torsion_classes,
    wide_subcats,
)


def masks(eng, *pairs):
    m = 0
    for p in pairs:
        m |= 1 << eng.idx[IndecA(*p)]
    return m


def test_quiver_validation():
    with pytest.raises(ValueError):
        QuiverA(3, "L")
    with pytest.raises(ValueError):
        QuiverA(0, "")
    with pytest.raises(GuardrailExceeded):
        torsion_classes(QuiverA(6, "L" * 5))


def test_indec_rep_and_count():
    q = linear_quiver(3)
    full = indec_rep(q, IndecA(1, 3))
    assert full["dims"] == (1, 1, 1)
    assert all(v == 1 for v in full["arrow_scalars"].values())
    s = indec_rep(q, IndecA(2, 2))
    assert s["dims"] == (0, 1, 0)
    eng = _engine(q)
    assert eng.N == 6  # n(n+1)/2


# -- the engine against the brute-force definitions ---------------------------


def _hom_space(q, A, B):
    """(dim, witness) for Hom(A, B) by a linear solve over QQ: the scalars f_v
    on the common vertices with f_t a_st = b_st f_s on every arrow s -> t.
    witness maps each common vertex to the scalar of a basis morphism."""
    common = [v for v in range(1, q.n + 1) if A.lo <= v <= A.hi and B.lo <= v <= B.hi]
    if not common:
        return 0, None
    pos = {v: k for k, v in enumerate(common)}
    rows = []
    for s, t in q.arrows():
        row = [0] * len(common)
        if A.lo <= s <= A.hi and A.lo <= t <= A.hi and t in pos:
            row[pos[t]] += 1
        if B.lo <= s <= B.hi and B.lo <= t <= B.hi and s in pos:
            row[pos[s]] -= 1
        if any(row):
            rows.append(row)
    basis = linalg.kernel_basis(rows, len(common), QQ) if rows else linalg.identity(len(common))
    assert len(basis) <= 1, "hom space between type-A indecomposables exceeds dimension 1"
    if not basis:
        return 0, None
    return 1, {v: basis[0][pos[v]] for v in common}


def _runs(eng, vertex_set):
    """Mask of the maximal runs of a vertex set."""
    out, run = 0, None
    for v in range(1, eng.n + 2):
        if v <= eng.n and v in vertex_set:
            run = v if run is None else run
        elif run is not None:
            out |= 1 << eng.idx[IndecA(run, v - 1)]
            run = None
    return out


def _oracle(eng):
    """The engine's Hom, Ext, structural and torsion-class tables from their
    definitions: a linear solve per pair of indecomposables, every one of the
    2^N sets tested for closure, and covers found by testing every triple of
    torsion classes."""
    q, N, indecs = eng.q, eng.N, eng.indecs
    h = [[0] * N for _ in range(N)]
    e = [[0] * N for _ in range(N)]
    witness = {}
    for i, A in enumerate(indecs):
        for j, B in enumerate(indecs):
            h[i][j], w = _hom_space(q, A, B)
            if w is not None:
                witness[(i, j)] = w
            euler = sum(1 for v in range(A.lo, A.hi + 1) if B.lo <= v <= B.hi)
            euler -= sum(1 for s, t in q.arrows() if A.lo <= s <= A.hi and B.lo <= t <= B.hi)
            e[i][j] = h[i][j] - euler
            assert e[i][j] >= 0
    quot, sub, kerdec, cokerdec = [0] * N, [0] * N, {}, {}
    for (i, j), w in witness.items():
        A, B = indecs[i], indecs[j]
        supp_a, supp_b = set(range(A.lo, A.hi + 1)), set(range(B.lo, B.hi + 1))
        image = {v for v in supp_a & supp_b if w[v]}
        if image == supp_b:
            quot[i] |= 1 << j
        if image == supp_a:
            sub[j] |= 1 << i
        kerdec[(i, j)] = _runs(eng, supp_a - image)
        cokerdec[(i, j)] = _runs(eng, supp_b - image)
    # 0 -> S -> E -> Q -> 0 with E indecomposable: S and Q adjacent runs of E
    # and the basis hom S -> E injective
    mid = [[] for _ in range(N)]
    for si, S in enumerate(indecs):
        for qi, Qm in enumerate(indecs):
            if S.hi + 1 == Qm.lo or Qm.hi + 1 == S.lo:
                ei = eng.idx[IndecA(min(S.lo, Qm.lo), max(S.hi, Qm.hi))]
                w = witness.get((si, ei))
                if w is not None and all(w[v] for v in range(S.lo, S.hi + 1)):
                    mid[si].append((qi, 1 << ei))

    def closed(mask):
        return all(
            not quot[i] & ~mask and not any(mask >> j & 1 and r & ~mask for j, r in mid[i])
            for i in range(N)
            if mask >> i & 1
        )

    tors = sorted((m for m in range(1 << N) if closed(m)), key=lambda m: (m.bit_count(), m))
    hom_out = [sum(1 << j for j in range(N) if h[i][j]) for i in range(N)]
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
    return {
        "h": h, "e": e, "quot_mask": quot, "sub_mask": sub, "kerdec": kerdec,
        "cokerdec": cokerdec, "mid_pairs": mid, "tors_masks": tors,
        "tors_lower": lower, "tors_upper": upper,
    }


def test_engine_matches_brute_force_on_every_quiver():
    quivers = [QuiverA(n, o) for n in range(1, QUIVER_GUARDRAIL + 1) for o in all_orientations(n)]
    assert len(quivers) == 31
    for q in quivers:
        eng = _Engine(q)
        for name, want in _oracle(eng).items():
            assert getattr(eng, name) == want, (q, name)


def test_hom_and_ext_basics():
    q = linear_quiver(2)  # arrow 2 -> 1
    S1, S2, P2 = IndecA(1, 1), IndecA(2, 2), IndecA(1, 2)
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
    qL = QuiverA(2, "L")  # arrow 2 -> 1
    assert quotients_of(qL, IndecA(1, 2)) == frozenset({IndecA(1, 2), IndecA(2, 2)})
    assert subs_of(qL, IndecA(1, 2)) == frozenset({IndecA(1, 2), IndecA(1, 1)})
    qR = QuiverA(2, "R")  # arrow 1 -> 2
    assert quotients_of(qR, IndecA(1, 2)) == frozenset({IndecA(1, 2), IndecA(1, 1)})
    for q in (qL, qR):
        for m in (IndecA(1, 1), IndecA(2, 2)):
            assert quotients_of(q, m) == frozenset({m})
            assert m in subs_of(q, m)


def test_torsion_class_counts():
    assert len(torsion_classes(QuiverA(1, ""))) == 2
    for o in all_orientations(2):
        assert len(torsion_classes(QuiverA(2, o))) == 5
    for o in all_orientations(3):
        assert len(torsion_classes(QuiverA(3, o))) == 14


def test_tors_lattice_shape():
    lat = tors_lattice(QuiverA(2, "L"))
    assert len(lat) == 5
    c = classify(lat)
    assert not c.is_distributive and c.is_semidistributive  # the pentagon


def test_wide_subcat_counts():
    assert len(wide_subcats(QuiverA(2, "L"))) == 5
    assert len(wide_subcats(QuiverA(3, "LL"))) == 14


def test_a_gen_inverse_bijection():
    for o in all_orientations(3):
        q = QuiverA(3, o)
        for T in torsion_classes(q):
            W = a_of(q, T)
            assert gen(q, W) == T
        # 0 and mod Lambda are fixed points
        assert a_of(q, frozenset()) == frozenset()
        allm = frozenset(_engine(q).indecs)
        assert a_of(q, allm) == allm


def test_cogen_side():
    q = QuiverA(2, "L")
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
        q = QuiverA(3, o)
        eng = _engine(q)
        for T in eng.tors_masks:
            W = eng.a_tors(T)
            for x in range(eng.N):
                if not W >> x & 1:
                    continue
                assert T >> x & 1
                for y in range(eng.N):
                    if not T >> y & 1:
                        continue
                    if eng.h[x][y]:
                        assert eng.cokerdec[(x, y)] & ~T == 0
                    if eng.h[y][x]:
                        assert eng.kerdec[(y, x)] & ~T == 0


def test_mutable_interval_counts():
    assert len(mutable_intervals(QuiverA(1, ""))) == 3
    for o in all_orientations(2):
        assert len(mutable_intervals(QuiverA(2, o))) == 12
    for o in all_orientations(3):
        assert len(mutable_intervals(QuiverA(3, o))) == 55
    assert fuss_catalan_count(2) == 12 and fuss_catalan_count(3) == 55


def test_equicardinal_all_orientations_n4():
    for o in all_orientations(4):
        q = QuiverA(4, o)
        assert len(mutable_intervals(q)) == len(cluster_triples(q)) == 273


def test_trivial_and_extreme_intervals_mutable():
    q = QuiverA(3, "LR")
    eng = _engine(q)
    ivs = eng.mutable_intervals()
    full = eng.full_mask  # mod Lambda is always a torsion class
    for T in eng.tors_masks:
        assert (T, T) in ivs
        assert (0, T) in ivs
        assert (T, full) in ivs


def test_delta_ranks_sum():
    q = QuiverA(3, "LL")
    for iv in mutable_intervals(q):
        assert sum(iv.delta_ranks) == 3


def test_serre_perm_inverse_roundtrip():
    for o in all_orientations(3):
        q = QuiverA(3, o)
        eng = _engine(q)
        for iv in mutable_intervals(q):
            assert serre_perm_inverse(eng, eng.serre_perm(iv)).key == iv.key
            assert eng.serre_perm(serre_perm_inverse(eng, iv)).key == iv.key


def test_serre_perm_simple_interval_alternative():
    # for trivial intervals the image set has the hat-description: everything
    # under T v Gen a(F) not trapped under any coatom join
    q = QuiverA(2, "L")
    eng = _engine(q)
    ivs = eng.mutable_intervals()
    for (lo, hi), iv in ivs.items():
        if lo != hi:
            continue
        aF = eng.a_free(lo)
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
    stats1 = serre_orbit_stats(QuiverA(1, ""))
    assert stats1["period_bound"] == 6
    for o in all_orientations(2):
        stats = serre_orbit_stats(QuiverA(2, o))
        assert stats["period_bound"] == 8
    for o in all_orientations(3):
        stats = serre_orbit_stats(QuiverA(3, o))
        assert stats["period_bound"] == 10


def _serre_formula(eng, iv):
    """S(I) straight from its definition, two torsion closures per call."""
    ivs = eng.mutable_intervals()
    return ivs[(eng.torsion_closed(iv.t_free), eng.torsion_closed(iv.lo | iv.w_free))]


def _orbit_stats_oracle(eng, q):
    """serre_orbit_stats by iterating the formula 2h+2 times per interval."""
    ivs = eng.mutable_intervals()
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
    return [QuiverA(n, o) for n in range(1, 5) for o in all_orientations(n)]


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
    q = QuiverA(3, "LR")
    eng = _Engine(q)  # a fresh engine, outside the lru cache
    ivs = list(eng.mutable_intervals().values())
    want = [_serre_formula(eng, iv) for iv in ivs]
    calls = []
    closure = eng.torsion_closed
    monkeypatch.setattr(eng, "torsion_closed", lambda mask: calls.append(mask) or closure(mask))
    for _ in range(3):
        assert all(eng.serre_perm(iv) is s for iv, s in zip(ivs, want))
    assert len(calls) == 2 * len(ivs)


def test_assert_mutation_rejects_bad_triples():
    q = QuiverA(3, "LR")
    eng = _engine(q)
    for m in interval_mutations(q):
        eng._assert_mutation(m.B, m.I, m.A)
        with pytest.raises(SerrelabError, match="max B != max I"):
            eng._assert_mutation(m.A, m.I, m.B)  # A and B swapped
        with pytest.raises(SerrelabError, match="not a disjoint union"):
            eng._assert_mutation(m.B, m.I, m.I)  # the parts overlap


def test_interval_mutation_counts_and_structure():
    for n, o in [(2, "L"), (2, "R"), (3, "LL"), (3, "LR")]:
        q = QuiverA(n, o)
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
    q = QuiverA(3, "LL")
    eng = _engine(q)
    for iv in mutable_intervals(q):
        if iv.lo != iv.hi:
            assert eng.rank_of(iv.delta[1]) >= 1


def test_rotation_check_all():
    for n, o in [(2, "L"), (3, "LL"), (3, "RL")]:
        records = rotation_check(QuiverA(n, o))
        assert records
        assert all(r["case"] in (1, 2) for r in records)


def test_cluster_triples_counts_and_bijection():
    for n in (2, 3):
        for o in all_orientations(n):
            q = QuiverA(n, o)
            triples = cluster_triples(q)
            ivs = mutable_intervals(q)
            assert len(triples) == len(ivs) == fuss_catalan_count(n)
            assert {interval_of(q, t).key for t in triples} == {iv.key for iv in ivs}


def test_cluster_roundtrip():
    q = QuiverA(3, "LL")
    for iv in mutable_intervals(q):
        t = ClusterTriple(iv.t_free, iv.t_tors, iv.t_supp)
        assert interval_of(q, t).key == iv.key


def test_all_projectives_triple():
    q = QuiverA(3, "LL")
    eng = _engine(q)
    t = ClusterTriple(t_free=0, t_tors=0, t_supp=eng.proj_mask)
    iv = interval_of(q, t)
    assert iv.lo == 0  # Gen(0) = 0
    assert iv.hi == max(eng.tors_masks)  # no hom condition: all of mod Lambda


def test_almost_triples_have_three_completions():
    for n, o in [(2, "L"), (3, "LL")]:
        q = QuiverA(n, o)
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
        if m.I.key == (0, hi) and m.x == IndecA(3, 3):
            target = m
    assert target is not None
    assert target.B.lo == eng.torsion_closed(masks(eng, (3, 3)))
    assert eng.perp_from(target.A.hi) == masks(eng, (1, 1), (3, 3))


def test_edge_label():
    q = QuiverA(2, "L")
    eng = _engine(q)
    lat, label_to_mask = eng.tors_lattice()
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


def test_gen_type_i():
    d = gen_type_i(2)
    assert len(d) == 4 and classify(d).is_boolean
    p = gen_type_i(3)
    assert len(p) == 5
    assert poset_isomorphism(p, tors_lattice(QuiverA(2, "L"))) is not None
    assert len(gen_type_i(4)) == 6
    with pytest.raises(ValueError):
        gen_type_i(1)
