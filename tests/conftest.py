import os

import pytest

from serrelab import coxeter, derived, typea
from serrelab.lattice import build_lattice, load_lattice

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")


def fixture_path(name):
    return os.path.join(FIXTURES, name)


@pytest.fixture(scope="session")
def pentagon():
    return build_lattice(
        ["0", "a", "b", "c", "1"],
        [("0", "a"), ("0", "b"), ("a", "c"), ("b", "1"), ("c", "1")],
    )


@pytest.fixture(scope="session")
def appendix9():
    return load_lattice(fixture_path("appendix9.json"))


@pytest.fixture(scope="session")
def kite():
    # order ideals of the poset {a<b, a<c}: distributive but not a divisor lattice
    return build_lattice(
        ["e", "a", "ab", "ac", "abc"],
        [("e", "a"), ("a", "ab"), ("a", "ac"), ("ab", "abc"), ("ac", "abc")],
    )


@pytest.fixture
def serre_oracle(monkeypatch):
    """Route every Serre call of the derived, coxeter and typea layers through
    serre_by_resolution, the oracle, instead of the closed form; returns the
    oracle for direct calls and fails the test if the oracle never ran."""
    calls = []

    def oracle(M):
        calls.append(M)
        return derived.serre_by_resolution(M)

    for module in (derived, coxeter, typea):
        monkeypatch.setattr(module, "serre", oracle)
    yield oracle
    assert calls, "the oracle never ran"
