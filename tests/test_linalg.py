import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from serrelab import linalg
from serrelab.fields import QQ, PrimeField


def F(x):
    return Fraction(x)


def test_rref_simple():
    A = [[F(2), F(4)], [F(1), F(2)]]
    R, pivots = linalg.rref(A, 2)
    assert pivots == [0]
    assert R[0] == [F(1), F(2)]
    assert all(x == 0 for x in R[1])


def test_kernel_and_solve():
    A = [[F(1), F(2), F(3)], [F(2), F(4), F(6)]]
    ker = linalg.kernel_basis(A, 3)
    assert len(ker) == 2
    for v in ker:
        assert all(x == 0 for x in linalg.mat_vec(A, v))
    x = linalg.solve(A, [F(6), F(12)], 3)
    assert x is not None
    assert linalg.mat_vec(A, x) == [F(6), F(12)]
    assert linalg.solve([[F(1)], [F(1)]], [F(1), F(2)], 1) is None


def test_extend_basis_and_coordinates():
    base = [[F(1), F(0), F(0)]]
    cands = [[F(2), F(0), F(0)], [F(0), F(1), F(0)], [F(1), F(1), F(0)]]
    idx = linalg.extend_basis(base, cands, 3)
    assert idx == [1]
    coords = linalg.coordinates(base + [cands[1]], [F(3), F(5), F(0)], 3)
    assert coords == [F(3), F(5)]


mats = st.integers(-4, 4).map(F)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(mats, min_size=3, max_size=3), min_size=1, max_size=4))
def test_rank_nullity(rows):
    n = 3
    r = linalg.rank(rows, n)
    ker = linalg.kernel_basis(rows, n)
    assert r + len(ker) == n
    for v in ker:
        assert all(x == 0 for x in linalg.mat_vec(rows, v))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.lists(st.integers(-6, 6), min_size=2, max_size=2), min_size=2, max_size=2))
def test_prime_field_matches_rationals_on_rank(rows):
    fp = PrimeField(32003)
    qrows = [[F(x) for x in row] for row in rows]
    prow = [[fp.of(x) for x in row] for row in rows]
    assert linalg.rank(qrows, 2, QQ) == linalg.rank(prow, 2, fp)


def test_prime_field_arithmetic():
    fp = PrimeField(7)
    a, b = fp.of(3), fp.of(5)
    assert a + b == fp.of(1)
    assert a * b == fp.of(1)
    assert (a / b).v == (3 * pow(5, 5, 7)) % 7
    assert -a == fp.of(4)
    assert bool(fp.zero) is False


def test_is_prime_matches_trial_division():
    from serrelab.fields import is_prime

    def trial(n):
        return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))

    assert [n for n in range(3000) if is_prime(n)] == [n for n in range(3000) if trial(n)]
    # Carmichael numbers and strong pseudoprimes to small bases are composite
    for n in (561, 1105, 1729, 2047, 3215031751, 3825123056546413051):
        assert not is_prime(n)
    assert is_prime(2**31 - 1) and is_prime(2**61 - 1)


def test_prime_field_rejects_composites_and_uncertified_sizes():
    for p in (-3, 0, 1, 4, 9, 561, 32001):
        with pytest.raises(ValueError):
            PrimeField(p)
    with pytest.raises(ValueError):
        PrimeField(2**127 - 1)  # prime, but beyond the exact Miller-Rabin range
