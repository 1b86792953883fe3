"""The closed-form Serre functor on interval modules against its oracle,
serre_by_resolution, and the dispatch rule between the two paths."""

import os

import pytest

from serrelab import derived
from serrelab.derived import GeneralComplexResult, StalkResult, serre, serre_by_resolution
from serrelab.fields import QQ, PrimeField
from serrelab.lattice import IntervalRef, chain_product, load_lattice
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


@pytest.fixture
def resolutions(monkeypatch):
    """Counts the minimal projective resolutions built through derived."""
    calls = []
    build = derived.projective_resolution

    def counted(M):
        calls.append(M)
        return build(M)

    monkeypatch.setattr(derived, "projective_resolution", counted)
    return calls


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


def _differential(lat, field, resolutions):
    """serre vs the oracle on every interval module of lat; returns
    (closed-form calls, all calls)."""
    eligible = total = 0
    for ref in _intervals(lat):
        M = interval_module(lat, ref, field)
        before = len(resolutions)
        fast = serre(M)
        eligible += len(resolutions) == before
        _assert_same_image(fast, serre_by_resolution(M), (lat, field, ref))
        total += 1
    return eligible, total


def test_closed_form_matches_oracle_on_every_interval(resolutions):
    cases = []
    for name in FIXTURE_FILES:
        lat = load_lattice(fixture_path(name))
        cases += [(lat, QQ), (lat, PrimeField(3))]
    cases.append((gen_tamari(5), QQ))
    cases += [(tors_lattice(QuiverA(3, o)), QQ) for o in all_orientations(3)]
    cases.append((chain_product([3, 3, 3]), QQ))
    eligible = total = 0
    for lat, field in cases:
        e, t = _differential(lat, field, resolutions)
        eligible += e
        total += t
    # both branches ran: the kite (and others) have non-boolean complements
    assert 0 < eligible < total


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


def test_non_boolean_complement_goes_to_the_oracle(kite, resolutions):
    # M_[e,a] is the antichain module of {ab, ac}, whose meet is a, not e
    M = interval_module(kite, IntervalRef("e", "a"))
    serre(M)
    assert len(resolutions) == 1


def test_non_interval_module_goes_to_the_oracle(pentagon, resolutions):
    M, _ = direct_sum([simple_module(pentagon, "a"), simple_module(pentagon, "a")])
    res = serre(M)
    assert len(resolutions) == 1
    assert isinstance(res, StalkResult) and res.interval is None
