"""The closed form on support masks and the Koszul path against their
oracle, serre_by_resolution, on every antichain module; the dispatch rule
between the three paths; and the mask walks against the Coxeter check and
the oracle walks."""

import functools
import itertools
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from serrelab import derived, linalg
from serrelab.coxeter import combinatorial_serre_check, coxeter_matrix, cross_check
from serrelab.derived import GeneralComplexResult, StalkResult, serre, serre_by_resolution, serre_orbit
from serrelab.fields import QQ, PrimeField
from serrelab.lattice import (
    Antichain,
    IntervalRef,
    all_antichains_over,
    boolean_partner,
    build_lattice,
    chain_product,
    is_boolean_antichain,
    load_lattice,
    min_complement_antichain,
    product,
)
from serrelab.reps import (
    LatticeRep,
    antichain_module,
    direct_sum,
    dual_antichain_module,
    interval_module,
    is_isomorphic,
    simple_module,
    support_module,
)
from serrelab.typea import QuiverA, all_orientations, gen_tamari, run_typea_suite, tors_lattice

from conftest import FIXTURES, boolean_sublattice, fixture_path, routed_to_oracle

FIXTURE_FILES = sorted(f for f in os.listdir(FIXTURES) if f.endswith(".json"))


def _counted(monkeypatch, name):
    """Records every call of derived.<name> made through derived."""
    calls = []
    build = getattr(derived, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(derived, name, counted)
    return calls


def _constructed(monkeypatch, *classes):
    """Counts the instances of each of classes constructed, by class name."""
    counts = {}

    def count(cls):
        init = cls.__init__
        counts[cls.__name__] = 0

        def counted_init(self, *args, **kwargs):
            counts[cls.__name__] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted_init)

    for cls in classes:
        count(cls)
    return counts


@pytest.fixture
def resolutions(monkeypatch):
    """Counts the minimal projective resolutions built through derived."""
    return _counted(monkeypatch, "projective_resolution")


@pytest.fixture
def koszul(monkeypatch):
    """Counts the steps that serre_on_support sends down the Koszul path,
    each entering _koszul_image once, fallback or not."""
    return _counted(monkeypatch, "_koszul_image")


def _every_antichain(lat):
    """Every antichain over every base of lat."""
    for base in lat.labels:
        yield from all_antichains_over(lat, base)


def _interval_antichains(lat):
    """The antichain of every interval module of lat."""
    for lo in range(lat.n):
        for hi in lat.mask_members(lat.up_mask[lo]):
            yield min_complement_antichain(lat, IntervalRef(lat.labels[lo], lat.labels[hi]))


def _assert_same_image(fast, slow, where):
    """Same degree, dimension vector and isomorphism class."""
    assert isinstance(fast, StalkResult) == isinstance(slow, StalkResult), where
    if isinstance(slow, StalkResult):
        assert (fast.shift, fast.interval) == (slow.shift, slow.interval), where
        assert fast.dimension_vector() == slow.rep.dimension_vector(), where
        assert is_isomorphic(fast.rep, slow.rep), where
    else:
        assert isinstance(fast, GeneralComplexResult), where
        assert fast.cohomology == slow.cohomology, where


def _mk(k):
    """M_k: k pairwise incomparable atoms whose pairwise joins are the top."""
    atoms = [f"a{i}" for i in range(k)]
    return build_lattice(["0", *atoms, "1"], [("0", a) for a in atoms] + [(a, "1") for a in atoms])


def _differential(lat, field, antichains, resolutions, koszul):
    """serre vs the oracle on the antichain module of each of antichains;
    returns the number of calls that took the closed form, the Koszul path
    and the oracle.  A closed-form image must be the dual antichain module of
    the boolean partner, in degree -|C|.  A Koszul step either returns from
    its patterns, or exactly one minimal resolution follows it: the fallback
    of a stalk that is no antichain module.  A call that ended in the oracle
    has the oracle's image already, and is not compared with a second run."""
    branches = [0, 0, 0]
    for ac in antichains:
        M = antichain_module(lat, ac, field)
        where = (lat, field, ac)
        before = len(resolutions), len(koszul)
        fast = serre(M)
        minimal, kz = len(resolutions) - before[0], len(koszul) - before[1]
        assert minimal <= 1 and kz <= 1, where
        k = len(ac.members)
        boolean = k <= 16 and is_boolean_antichain(lat, ac)
        small = 2 ** k <= lat.n
        if minimal and not kz:
            assert not boolean and not small, where
            branches[2] += 1
            continue
        if kz:
            assert not boolean and small, where
            branches[1] += 1
            if minimal:
                assert isinstance(fast, StalkResult) and fast.support is None, where
                continue
        else:
            assert boolean, where
            partner = dual_antichain_module(lat, boolean_partner(lat, ac), field)
            assert fast.shift == k, where
            assert fast.dimension_vector() == partner.dimension_vector(), where
            branches[0] += 1
        _assert_same_image(fast, serre_by_resolution(M), where)
    return branches


def test_fast_paths_match_oracle_on_every_antichain_module(kite, pentagon, resolutions, koszul):
    cases = []
    for name in FIXTURE_FILES:  # among them Tamari(4)
        lat = load_lattice(fixture_path(name))
        cases += [(lat, QQ), (lat, PrimeField(3))]
    cases += [(tors_lattice(QuiverA(3, o)), QQ) for o in all_orientations(3)]
    cases.append((chain_product([3, 3, 3]), QQ))
    for lat in (product(kite, kite), product(pentagon, kite)):
        cases += [(lat, QQ), (lat, PrimeField(3))]
    cases.append((_mk(3), QQ))
    branches = [0, 0, 0]
    for lat, field in cases:
        counts = _differential(lat, field, _every_antichain(lat), resolutions, koszul)
        branches = [a + b for a, b in zip(branches, counts)]
    # Tamari(5) has too many antichain modules for the oracle; its intervals
    tamari5 = gen_tamari(5)
    counts = _differential(tamari5, QQ, _interval_antichains(tamari5), resolutions, koszul)
    branches = [a + b for a, b in zip(branches, counts)]
    # closed form, Koszul path and oracle all ran
    assert all(branches), branches


def test_eligible_interval_builds_no_resolution(pentagon, resolutions):
    M = interval_module(pentagon, IntervalRef("0", "c"))
    # isomorphic to M through nonidentity scalars on its cover maps
    two = QQ.of(2)
    maps = {k: [[two * x for x in row] for row in m] for k, m in M.maps.items()}
    scaled = LatticeRep(pentagon, M.dims, maps, QQ)
    fast = [serre(M), serre(scaled)]
    assert resolutions == []
    for res in fast:
        _assert_same_image(res, serre_by_resolution(M), "M_[0,c]")


def test_serre_finds_the_antichain_once(pentagon, monkeypatch):
    # the antichain that accepts M as an antichain module is the one its
    # Serre step works on
    M = interval_module(pentagon, IntervalRef("0", "c"))
    calls = _counted(monkeypatch, "support_antichain")
    serre(M)
    assert len(calls) == 1


def test_non_boolean_complement_takes_the_koszul_path(kite, resolutions, koszul):
    # M_[e,a] is the antichain module of {ab, ac}, whose meet is a, not e;
    # its Koszul resolution has 2^2 <= 5 summands
    M = interval_module(kite, IntervalRef("e", "a"))
    res = serre(M)
    assert (len(resolutions), len(koszul)) == (0, 1)
    _assert_same_image(res, serre_by_resolution(M), "M_[e,a]")


@pytest.mark.parametrize("k", range(3, 11))
def test_large_non_boolean_complement_goes_to_the_oracle(k, resolutions, koszul):
    # the bottom simple of M_k has C = the k atoms: 2^k > k + 2 summands
    # would make the Koszul complex far larger than the minimal resolution
    res = serre(simple_module(_mk(k), "0"))
    assert (len(resolutions), len(koszul)) == (1, 0)
    assert isinstance(res, StalkResult)


def test_non_interval_module_goes_to_the_oracle(pentagon, resolutions):
    M, _ = direct_sum([simple_module(pentagon, "a"), simple_module(pentagon, "a")])
    res = serre(M)
    assert len(resolutions) == 1
    assert isinstance(res, StalkResult) and res.interval is None


def test_rejected_thin_modules_go_to_the_oracle(pentagon, resolutions, koszul):
    # thin, but its support {a, b} has two minima
    two_minima, _ = direct_sum([simple_module(pentagon, "a"), simple_module(pentagon, "b")])
    # the support of M_[0,c] has the antichain shape, but the map 0 -> a is zero
    M = interval_module(pentagon, IntervalRef("0", "c"))
    maps = dict(M.maps)
    maps[(pentagon.index["0"], pentagon.index["a"])] = [[0]]
    zero_map = LatticeRep(pentagon, M.dims, maps, QQ)
    for N in (two_minima, zero_map):
        before = len(resolutions)
        res = serre(N)
        assert len(resolutions) == before + 1 and not koszul
        _assert_same_image(res, serre_by_resolution(N), N)


def test_product_request_builds_no_minimal_resolution(appendix9, resolutions, koszul, monkeypatch):
    # the orbits of check --gen product appendix9 appendix9 --derived: every
    # step is an antichain module, and the 34 with a non-boolean antichain
    # take the Koszul path.  Each step builds the subset-join table of its
    # antichain once, and both fast paths read it on indices, so the walk
    # constructs no label-level Antichain
    lat = product(appendix9, appendix9)
    gammas = _counted(monkeypatch, "_subset_joins")
    # Nor does a Koszul step build a module or a complex or take cohomology:
    # all 34 images are read off the simplex boundary at one rank per
    # element pattern
    cohomologies = _counted(monkeypatch, "cohomology")
    built = _constructed(monkeypatch, Antichain, LatticeRep, derived.ScalarComplex)
    orbits = [serre_orbit(lat, a) for a in lat.labels]
    assert sum(len(o.steps) for o in orbits) == 322
    assert (len(resolutions), len(koszul)) == (0, 34)
    assert len(gammas) == 322
    assert built == {"Antichain": 0, "LatticeRep": 0, "ScalarComplex": 0}
    assert cohomologies == []


@pytest.mark.parametrize("field", [QQ, PrimeField(3)])
def test_kite_product_orbits_build_nothing_and_match_the_oracle(kite, pentagon, field, koszul):
    # the non-stalk images of these walks come back as the dimension vectors
    # of their patterns: no module, complex, cohomology or minimal resolution
    for lat in (product(kite, kite), product(pentagon, kite)):
        with pytest.MonkeyPatch.context() as mp:
            called = [_counted(mp, name) for name in ("cohomology", "projective_resolution")]
            built = _constructed(mp, LatticeRep, derived.ScalarComplex)
            fast = {a: serre_orbit(lat, a, field=field) for a in lat.labels}
        assert called == [[], []] and built == {"LatticeRep": 0, "ScalarComplex": 0}
        with routed_to_oracle():
            slow = {a: serre_orbit(lat, a, field=field) for a in lat.labels}
        failures = [a for a, o in fast.items() if o.failure is not None]
        assert failures
        assert {a: _orbit_record(o) for a, o in fast.items()} == {
            a: _orbit_record(o) for a, o in slow.items()
        }
        for a in failures:
            assert fast[a].failure.cohomology == slow[a].failure.cohomology, a
    assert koszul


def test_oracle_fixture_routes_every_walk(serre_oracle, pentagon):
    # the fixture itself fails the test if a closed-form or Koszul step ran
    assert serre_orbit(pentagon, "a").period is not None
    assert cross_check(pentagon).ok
    suite = run_typea_suite(QuiverA(2, "L"))
    assert suite["checks"]["categorical_serre"] == {"ok": True, "failures": [], "total": 12}


def _orbit_record(orbit):
    steps = [(s.shift, s.interval, s.dimension_vector()) for s in orbit.steps]
    return orbit.period, orbit.total_shift, orbit.failure is None, steps


# random meet/join-closed sublattices of B4 through the Coxeter check, the
# mask orbits and the oracle orbits
@settings(max_examples=25, deadline=None)
@given(
    st.sets(st.integers(0, 15), min_size=1, max_size=8),
    st.sampled_from([QQ, PrimeField(3), PrimeField(5)]),
)
def test_b4_sublattices_agree_across_coxeter_masks_and_oracle(seed, field):
    lat, _ = boolean_sublattice(seed)
    report = combinatorial_serre_check(lat)
    fast = {a: serre_orbit(lat, a, field=field) for a in lat.labels}
    with routed_to_oracle():
        slow = {a: serre_orbit(lat, a, field=field) for a in lat.labels}
    assert {a: _orbit_record(o) for a, o in fast.items()} == {
        a: _orbit_record(o) for a, o in slow.items()
    }
    assert report.is_serre_formal == all(o.failure is None for o in fast.values())
    for a, traj in report.trajectories.items():
        # C^k [I_a] is the class of S^k I_a, in degree -(shifts so far) and
        # with one more sign per step from C[P_i] = -[I_i]
        orbit, shift = fast[a], 0
        for k, (vector, step) in enumerate(zip(traj.vectors[1:], orbit.steps), 1):
            shift += step.shift
            assert list(vector) == [(-1) ** (k + shift) * x for x in step.dimension_vector()]
        if traj.failed is None and traj.steps and orbit.failure is None:
            assert orbit.steps[traj.steps - 1].interval == IntervalRef(traj.target, lat.top_label)


@functools.lru_cache(maxsize=None)
def _product_koszul_steps(field):
    """(lattice, gamma) of each step that the orbits of
    product(appendix9, appendix9) over field send down the Koszul path."""
    lat = product(*[load_lattice(fixture_path("appendix9.json"))] * 2)
    steps = []
    image = derived._koszul_image

    def recorded(lat, gamma, field):
        steps.append((lat, gamma))
        return image(lat, gamma, field)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(derived, "_koszul_image", recorded)
        for a in lat.labels:
            serre_orbit(lat, a, field=field)
    return steps


def _module_mask(lat, gamma):
    """The support of the antichain module over gamma(empty) whose antichain
    is the gamma of the singletons."""
    mask = lat.up_mask[gamma[0]]
    for j in range(len(gamma).bit_length() - 1):
        mask &= ~lat.up_mask[gamma[1 << j]]
    return mask


@pytest.mark.parametrize("field", [QQ, PrimeField(2)])
def test_koszul_path_matches_oracle_on_the_product_request(field):
    # the only request whose Koszul steps reach |C| = 5 and 6; kite x kite
    # has 25 elements, so there 2^|C| <= |L| stops at |C| = 4
    steps = _product_koszul_steps(field)
    assert len(steps) == 34
    assert {len(gamma).bit_length() - 1 for _, gamma in steps} >= {5, 6}
    for lat, gamma in steps:
        mask = _module_mask(lat, gamma)
        fast = derived.serre_on_support(lat, mask, field)
        assert isinstance(fast, StalkResult) and fast.support is not None
        _assert_same_image(fast, serre_by_resolution(support_module(lat, mask, field)), gamma)


@pytest.mark.parametrize("field", [QQ, PrimeField(2)])
def test_koszul_cohomology_satisfies_the_euler_identity(appendix9, field):
    # sum_i (-1)^i dim H^{-i}(SM)(x) is the class of SM, which is -(C dim M)
    # because C[P_i] = -[I_i]; checked on the per-pattern cohomology of every
    # Koszul step, and in its stalk form (-1)^shift dim SM on every step
    lat = product(appendix9, appendix9)
    C = coxeter_matrix(lat).matrix

    def minus_coxeter(vector):
        return [-sum(c * v for c, v in zip(row, vector)) for row in C]

    for _, gamma in _product_koszul_steps(field):
        boundary = derived._boundary((len(gamma) - 1).bit_length())
        dim_m = [_module_mask(lat, gamma) >> x & 1 for x in range(lat.n)]
        euler = []
        for x in range(lat.n):
            pattern = sum(1 << s for s, g in enumerate(gamma) if lat.leq_i(x, g))
            dims, _ = derived._pattern_homology(boundary, field, pattern)
            euler.append(sum((-1) ** i * d for i, d in enumerate(dims)))
        assert euler == minus_coxeter(dim_m), gamma
    for a in lat.labels:
        dim_m = [lat.leq_i(x, lat.index[a]) for x in range(lat.n)]
        for step in serre_orbit(lat, a, field=field).steps:
            sign = (-1) ** step.shift
            assert [sign * d for d in step.dimension_vector()] == minus_coxeter(dim_m), a
            dim_m = step.dimension_vector()


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3)])
def test_boundary_is_the_signed_simplex_boundary(field):
    # the table, shared by every field, against the boundary of each face
    # written out, with (-1)^position for the removed vertex, and d o d = 0
    # over the field
    for k in range(1, 9):
        d, by_size = derived._boundary(k), derived._subsets(k)[0]
        assert len(d) == k + 1 and d[0] == []
        for i in range(1, k + 1):
            want = {}
            for face in itertools.combinations(range(k), i):
                for p in range(i):
                    facet = face[:p] + face[p + 1 :]
                    want[_bits(facet), _bits(face)] = (-1) ** p
            got = {
                (t, s): d[i][r][j]
                for r, t in enumerate(by_size[i - 1])
                for j, s in enumerate(by_size[i])
            }
            assert got == {key: want.get(key, 0) for key in got}, (k, i)
            assert linalg.is_zero(linalg.mat_mul(d[i - 1], d[i], field)), (k, i)


def _bits(vertices):
    return sum(1 << c for c in vertices)


def _pattern(k, faces):
    """The subsets of a k-set outside the simplicial complex generated by
    faces (each a string of vertices 1..k), as a bitmask over subsets."""
    generators = [sum(1 << (int(v) - 1) for v in face) for face in faces]
    delta = [s for s in range(1 << k) if any(s & g == s for g in generators)]
    return (1 << (1 << k)) - 1 - sum(1 << s for s in delta)


RP2 = ["123", "134", "145", "156", "162", "235", "346", "452", "563", "624"]


@pytest.mark.parametrize(
    "field, expected",
    [(QQ, [0] * 7), (PrimeField(3), [0] * 7), (PrimeField(2), [0, 0, 0, 1, 1, 0, 0])],
)
def test_pattern_homology_has_torsion_on_rp2(field, expected):
    # H^{-i} is the reduced homology H_{i-2} of Delta, here the 6-vertex
    # RP^2: H_1 and H_2 are F_2, and vanish over QQ and F_3
    dims, ranks = derived._pattern_homology(derived._boundary(6), field, _pattern(6, RP2))
    assert dims == expected and ranks is not None


@pytest.mark.parametrize("field", [QQ, PrimeField(2)])
def test_pattern_homology_on_spheres_cones_void_and_full(field):
    for k in range(2, 6):
        d = derived._boundary(k)
        full, top = (1 << (1 << k)) - 1, (1 << k) - 1
        # Delta the boundary of the simplex, a (k-2)-sphere: P = {C} and one
        # class in degree -k
        assert derived._pattern_homology(d, field, 1 << top)[0] == [0] * k + [1]
        # the cone with apex 1 over the boundary of the simplex on 2..k; the
        # void and full patterns (Delta the full simplex and the void complex)
        others = "".join(str(v) for v in range(2, k + 1))
        cone = _pattern(k, ["1" + others.replace(v, "") for v in others])
        for pattern in (0, full, cone):
            assert derived._pattern_homology(d, field, pattern) == ([0] * (k + 1), None)


def _up_set(k, generators):
    return sum(1 << s for s in range(1 << k) if any(g & s == g for g in generators))


def _induced_rank(d, field, s, big, small):
    """The rank of H^{-s}(big) -> H^{-s}(small) by plain linear algebra: the
    cycles of big, projected, against the boundaries of small."""
    by_size = derived._subsets(len(d) - 1)[0]

    def alive(pattern, i):
        subs = by_size[i] if 0 <= i < len(by_size) else []
        return [j for j, t in enumerate(subs) if pattern >> t & 1]

    def restricted(i, src, tgt):  # the differential out of degree -i
        return derived._restrict(d[i], [src], [tgt])[0]

    big_s, small_s, small_up = alive(big, s), alive(small, s), alive(small, s + 1)
    cycles = linalg.identity(len(big_s))
    if s and alive(big, s - 1):
        cycles = linalg.kernel_basis(restricted(s, big_s, alive(big, s - 1)), len(big_s), field)
    projected = [[z[big_s.index(j)] for j in small_s] for z in cycles]
    bounds = []
    if small_up and small_s:
        bounds = linalg.transpose(restricted(s + 1, small_up, small_s), len(small_up))

    def rank(vectors):
        return linalg.rank(linalg.transpose(vectors, len(small_s)), len(vectors), field) if vectors else 0

    return rank(bounds + projected) - rank(bounds)


@pytest.mark.parametrize("field", [QQ, PrimeField(2)])
def test_projection_rank_matches_the_induced_map(field):
    # the cover-map test of the Koszul path on random nested patterns, many of
    # whose maps are zero, against the map on homology built explicitly
    rng = random.Random(13)
    ranks = set()
    for k in (3, 4, 5):
        d = derived._boundary(k)
        for _ in range(60):
            big = _up_set(k, rng.sample(range(1 << k), rng.randint(1, 4)))
            small = big & _up_set(k, rng.sample(range(1 << k), rng.randint(1, 3)))
            homology = {p: derived._pattern_homology(d, field, p) for p in (big, small)}
            for s in range(k + 1):
                rank = derived._projection_rank(d, field, s, big, small, homology)
                assert rank == _induced_rank(d, field, s, big, small), (k, big, small, s)
                ranks.add(rank)
    assert {0, 1} <= ranks
