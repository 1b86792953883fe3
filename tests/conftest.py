import contextlib
import itertools
import os

import pytest

from serrelab import coxeter, derived, typea
from serrelab.fields import QQ
from serrelab.lattice import build_lattice, load_lattice
from serrelab.reps import support_module

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")


def fixture_path(name):
    return os.path.join(FIXTURES, name)


def boolean_sublattice(seed):
    """The meet/join closure of a set of subsets of {0..3}, as bitmasks, with
    its elements: a sublattice of B4 labelled by str(mask)."""
    members = set(seed)
    while True:
        new = set(members)
        for a, b in itertools.product(members, repeat=2):
            new.add(a & b)
            new.add(a | b)
        if new == members:
            break
        members = new
    elems = sorted(members)
    covers = []
    for a in elems:
        for b in elems:
            if a != b and a & b == a:
                if not any(c != a and c != b and a & c == a and c & b == c for c in elems):
                    covers.append((str(a), str(b)))
    return build_lattice([str(x) for x in elems], covers), elems


def constructed(monkeypatch, *classes):
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


@contextlib.contextmanager
def routed_to_oracle():
    """Route every Serre step of the derived, coxeter and typea layers through
    serre_by_resolution, the oracle: serre and serre_on_support, through which
    every fast Serre step enters, are replaced wherever a module holds them.
    Yields the oracle for direct calls.  Fails if the oracle never ran, or if
    the closed form (serre_support) or the Koszul path (_koszul_image) ran
    all the same."""
    calls, fast = [], []

    def oracle(M):
        calls.append(M)
        return derived.serre_by_resolution(M)

    def oracle_on_support(lat, mask, field=QQ):
        return oracle(support_module(lat, mask, field))

    def counted(name):
        real = getattr(derived, name)

        def fast_path(*args, **kwargs):
            fast.append(name)
            return real(*args, **kwargs)

        return fast_path

    with pytest.MonkeyPatch.context() as mp:
        for module in (derived, coxeter, typea):
            for name, stand_in in (("serre", oracle), ("serre_on_support", oracle_on_support)):
                if hasattr(module, name):
                    mp.setattr(module, name, stand_in)
        for name in ("serre_support", "_koszul_image"):
            mp.setattr(derived, name, counted(name))
        yield oracle
    assert calls, "the oracle never ran"
    assert not fast, f"a fast path ran under the oracle: {sorted(set(fast))}"


@pytest.fixture
def serre_oracle():
    """routed_to_oracle() for the length of one test."""
    with routed_to_oracle() as oracle:
        yield oracle
