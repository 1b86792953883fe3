"""The closed-form and Koszul Serre paths on interval modules against their
oracle, serre_by_resolution, and the dispatch rule between the three paths."""

import os

import pytest

from serrelab import derived
from serrelab.derived import GeneralComplexResult, StalkResult, serre, serre_by_resolution
from serrelab.fields import QQ, PrimeField
from serrelab.lattice import IntervalRef, build_lattice, chain_product, load_lattice, product
from serrelab.reps import (
    LatticeRep,
    direct_sum,
    interval_module,
    is_isomorphic,
    simple_module,
)
from serrelab.typea import QuiverA, all_orientations, gen_tamari, tors_lattice

from conftest import FIXTURES, fixture_path

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


@pytest.fixture
def resolutions(monkeypatch):
    """Counts the minimal projective resolutions built through derived."""
    return _counted(monkeypatch, "projective_resolution")


@pytest.fixture
def koszul(monkeypatch):
    """Counts the antichain (Koszul) resolutions built through derived."""
    return _counted(monkeypatch, "antichain_resolution")


def _intervals(lat):
    for lo in range(lat.n):
        for hi in lat.mask_members(lat.up_mask[lo]):
            yield IntervalRef(lat.labels[lo], lat.labels[hi])


def _assert_same_image(fast, slow, where):
    assert isinstance(fast, StalkResult) == isinstance(slow, StalkResult), where
    if isinstance(slow, StalkResult):
        assert (fast.shift, fast.interval) == (slow.shift, slow.interval), where
        assert fast.rep.dims == slow.rep.dims, where
        assert is_isomorphic(fast.rep, slow.rep), where
    else:
        assert isinstance(fast, GeneralComplexResult), where
        assert fast.degrees() == slow.degrees(), where
        for d in slow.degrees():
            assert fast.cohomology[d].dims == slow.cohomology[d].dims, where


def _mk(k):
    """M_k: k pairwise incomparable atoms whose pairwise joins are the top."""
    atoms = [f"a{i}" for i in range(k)]
    return build_lattice(["0", *atoms, "1"], [("0", a) for a in atoms] + [(a, "1") for a in atoms])


def _differential(lat, field, resolutions, koszul):
    """serre vs the oracle on every interval module of lat; returns the number
    of calls that took the closed form, the Koszul path and the oracle."""
    branches = [0, 0, 0]
    for ref in _intervals(lat):
        M = interval_module(lat, ref, field)
        before = len(resolutions), len(koszul)
        fast = serre(M)
        minimal, kz = len(resolutions) - before[0], len(koszul) - before[1]
        assert minimal + kz <= 1, (lat, field, ref)
        branches[0 if not minimal + kz else 1 if kz else 2] += 1
        _assert_same_image(fast, serre_by_resolution(M), (lat, field, ref))
    return branches


def test_fast_paths_match_oracle_on_every_interval(kite, pentagon, resolutions, koszul):
    cases = []
    for name in FIXTURE_FILES:
        lat = load_lattice(fixture_path(name))
        cases += [(lat, QQ), (lat, PrimeField(3))]
    cases.append((gen_tamari(5), QQ))
    cases += [(tors_lattice(QuiverA(3, o)), QQ) for o in all_orientations(3)]
    cases.append((chain_product([3, 3, 3]), QQ))
    for lat in (product(kite, kite), product(pentagon, kite)):
        cases += [(lat, QQ), (lat, PrimeField(3))]
    cases.append((_mk(3), QQ))
    branches = [0, 0, 0]
    for lat, field in cases:
        for i, count in enumerate(_differential(lat, field, resolutions, koszul)):
            branches[i] += count
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
