"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a single PASS line when its assertions hold; pytest
reports any failure itself.
"""

import itertools
import time

from serrelab.coxeter import combinatorial_serre_check, cross_check
from serrelab.derived import StalkResult, serre_by_resolution, serre_orbit
from serrelab.geom import _rotated, enumerate_quads, enumerate_trees, planar_dual, stokes
from serrelab.lattice import (
    boolean_lattice,
    build_lattice,
    chain_product,
    is_boolean_antichain,
    load_lattice,
    support_interval,
)
from serrelab.typea import (
    all_orientations,
    cluster_triples,
    gen_type_i,
    interval_mutations,
    linear_quiver,
    mutable_intervals,
    quiver_a,
    rotation_check,
    serre_orbit_stats,
    tors_lattice,
)
from serrelab.typea import _engine

from conftest import fixture_path
from oracles import (
    IntervalRef,
    all_antichains_over,
    antichain_module,
    boolean_partner,
    chain,
    dual_antichain_module,
    interval_members,
    interval_module,
    is_isomorphic,
)


def _ok(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


def _orbit_confirms(lat, power, shift):
    """S^power I_a = I_a[shift] for every injective, via derived orbits."""
    for a in lat.labels:
        orb = serre_orbit(lat, a)
        assert orb.period is not None, (a, "orbit has a non-stalk step")
        assert power % orb.period == 0, (a, orb.period, power)
        assert orb.total_shift * (power // orb.period) == shift, (a, orb.total_shift)


def test_acceptance_01_appendix_fixture():
    t0 = time.monotonic()
    lat = load_lattice(fixture_path("appendix9.json"))
    rep = combinatorial_serre_check(lat)
    assert rep.is_serre_formal
    assert rep.permutation == {
        "1": "9", "2": "2", "3": "3", "4": "4", "5": "7",
        "6": "6", "7": "5", "8": "8", "9": "1",
    }
    orb = serre_orbit(lat, "1")
    dims = [list(s.rep.dims) for s in orb.steps]
    shifts = [s.shift for s in orb.steps]
    assert dims[0] == [0, 0, 0, 1, 1, 0, 1, 0, 0] and shifts[0] == 2
    assert support_interval(lat, orb.steps[1].support) == IntervalRef("9", "9") and shifts[1] == 2  # P(9)
    assert support_interval(lat, orb.steps[2].support) == IntervalRef("1", "9") and shifts[2] == 0  # I(9)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"appendix check took {elapsed:.2f}s"
    _ok(1, f"appendix permutation (1 9)(5 7) and I(1) orbit, {elapsed:.2f}s")


def test_acceptance_02_fcy_a2_a3(serre_oracle):
    t0 = time.monotonic()
    for n, power, shift in ((2, 8, 6), (3, 10, 12)):
        for o in all_orientations(n):
            lat = tors_lattice(quiver_a(n, o))
            assert len(lat) == (5 if n == 2 else 14)
            _orbit_confirms(lat, power, shift)
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    _ok(2, f"S^8=[6] on A2 and S^10=[12] on all A3 orientations, {elapsed:.1f}s")


def test_acceptance_03_a1_special_case():
    t0 = time.monotonic()
    lat = tors_lattice(quiver_a(1, ""))
    assert len(lat) == 2
    _orbit_confirms(lat, 3, 1)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _ok(3, f"A1: S^3 I = I[1] on the 2-chain, {elapsed:.2f}s")


def test_acceptance_04_type_i():
    _orbit_confirms(gen_type_i(4), 5, 4)  # (N, h+1) for m = 4
    _orbit_confirms(gen_type_i(3), 8, 6)  # (2N, 2h+2) for m = 3
    _ok(4, "type I(4) is (4,5)-FCY and I(3) is (6,8)-FCY")


def test_acceptance_05_counting():
    for n, expected in ((2, 12), (3, 55)):
        q = linear_quiver(n)
        counts = {
            "mutable": len(mutable_intervals(q)),
            "triples": len(cluster_triples(q)),
            "trees": len(enumerate_trees(n)),
            "quads": len(enumerate_quads(n)),
        }
        assert set(counts.values()) == {expected}, counts
    _ok(5, "12 and 55 by four independent enumerations")


def test_acceptance_06_categorical_serre_integration(serre_oracle):
    t0 = time.monotonic()
    for o in all_orientations(3):
        q = quiver_a(3, o)
        eng = _engine(q)
        lat = eng.lat
        ivs = mutable_intervals(q)
        assert len(ivs) == 55
        for iv in ivs:
            M = interval_module(lat, IntervalRef(eng.mask_label(iv.lo), eng.mask_label(iv.hi)))
            res = serre_oracle(M)
            s = eng.serre_perm(iv)
            want = IntervalRef(eng.mask_label(s.lo), eng.mask_label(s.hi))
            assert isinstance(res, StalkResult), iv
            assert support_interval(lat, res.support) == want, iv
            assert res.shift == iv.k, iv
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0, f"took {elapsed:.1f}s"
    _ok(6, f"serre(M_I) = M_SI[k_I] for 4x55 A3 intervals, {elapsed:.1f}s")


def test_acceptance_07_interval_mutation_structure():
    q = linear_quiver(3)
    eng = _engine(q)
    muts = interval_mutations(q)
    assert len(muts) == (3 * len(mutable_intervals(q))) // 3 == 55
    for m in muts:
        mi = set(interval_members(eng, m.I))
        ma = set(interval_members(eng, m.A))
        mb = set(interval_members(eng, m.B))
        assert ma | mb == mi and not (ma & mb)
        assert m.A.lo == m.I.lo and m.B.hi == m.I.hi
    records = rotation_check(q)
    assert len(records) == 55
    _ok(7, "55 augmented intervals with disjoint-union and rotation dichotomy")


def test_acceptance_08_boolean_antichain_suite():
    lattices = [
        chain(2),
        boolean_lattice(2),
        boolean_lattice(3),
        build_lattice(
            ["0", "a", "b", "c", "1"],
            [("0", "a"), ("0", "b"), ("a", "c"), ("b", "1"), ("c", "1")],
        ),
        load_lattice(fixture_path("appendix9.json")),
        chain_product([3, 2]),
        gen_type_i(4),
        load_lattice(fixture_path("tamari4.json")),
    ]
    total = 0
    for lat in lattices:
        assert len(lat) <= 20
        for base in lat.labels:
            for ac in all_antichains_over(lat, base):
                if not is_boolean_antichain(lat, ac):
                    continue
                res = serre_by_resolution(antichain_module(lat, ac))
                assert isinstance(res, StalkResult)
                assert res.shift == len(ac.members)
                partner = boolean_partner(lat, ac)
                expected = dual_antichain_module(lat, partner)
                assert is_isomorphic(res.rep, expected)
                total += 1
    _ok(8, f"Serre image of {total} boolean antichain modules is M^beta_D[|C|]")


def test_acceptance_09_distributive_classification():
    for a, b in itertools.product(range(1, 5), repeat=2):
        rep = combinatorial_serre_check(chain_product([a, b]))
        assert rep.is_serre_formal, (a, b)
    kite = build_lattice(
        ["e", "a", "ab", "ac", "abc"],
        [("e", "a"), ("a", "ab"), ("a", "ac"), ("ab", "abc"), ("ac", "abc")],
    )
    assert not combinatorial_serre_check(kite).is_serre_formal
    _ok(9, "chain products pass, 5-element distributive non-divisor fails")


def test_acceptance_10_coxeter_derived_agreement(serre_oracle):
    lattices = [
        load_lattice(fixture_path("appendix9.json")),
        load_lattice(fixture_path("pentagon.json")),
        boolean_lattice(2),
        boolean_lattice(3),
        chain_product([3, 2]),
        chain_product([4, 2]),
        gen_type_i(3),
        gen_type_i(4),
        load_lattice(fixture_path("tamari4.json")),
    ]
    for lat in lattices:
        cc = cross_check(lat)
        assert cc.ok
        rep = cc.combinatorial
        assert rep.is_serre_formal
        for label, entry in cc.per_element.items():
            assert entry["pi"] == str(rep.permutation[label])
    _ok(10, f"Serre permutations and stalk vectors agree on {len(lattices)} lattices")


def test_acceptance_11_geometric_equivariance():
    for n in (1, 2, 3, 4):
        p = 2 * (n + 2)
        for q in enumerate_quads(n):
            assert stokes(p, _rotated(p, q)) == planar_dual(p // 2, stokes(p, q))
    for n in (1, 2, 3):
        quads = enumerate_quads(n)
        seen = set()
        rot_cycles = []
        for q in quads:
            if q in seen:
                continue
            cur, k = q, 0
            while True:
                cur = _rotated(2 * (n + 2), cur)
                k += 1
                seen.add(cur)
                if cur == q:
                    break
            rot_cycles.append(k)
        serre_cycles = serre_orbit_stats(linear_quiver(n))["cycle_lengths"]
        assert sorted(rot_cycles) == serre_cycles, n
    _ok(11, "stokes-rotation equivariance (n<=4) and matching cycle multisets (n<=3)")
