import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
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


class _FractionField:
    """QQ with every scalar a Fraction, as the rationals were before ints."""

    zero, one = Fraction(0), Fraction(1)

    def inv(self, x):
        return Fraction(1) / x


def _exact(values):
    return all(type(x) in (int, Fraction) for x in values)


int_rows = st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(st.integers(-5, 5), min_size=n, max_size=n), min_size=1, max_size=4)
)


@settings(max_examples=80, deadline=None)
@given(int_rows)
@example([[2, 1]])
@example([[3, 1], [1, 2]])
def test_int_scalars_stay_exact_and_match_fractions(rows):
    n = len(rows[0])
    fracs = [[F(x) for x in row] for row in rows]
    ff = _FractionField()
    R, pivots = linalg.rref(rows, n, QQ)
    assert _exact(x for row in R for x in row)
    assert (R, pivots) == linalg.rref(fracs, n, ff)
    ker = linalg.kernel_basis(rows, n, QQ)
    assert _exact(x for v in ker for x in v)
    assert ker == linalg.kernel_basis(fracs, n, ff)
    b = list(range(1, len(rows) + 1))
    x = linalg.solve(rows, b, n, QQ)
    assert x == linalg.solve(fracs, [F(y) for y in b], n, ff)
    if x is not None:
        assert _exact(x) and linalg.mat_vec(rows, x) == b


def test_rational_field_keeps_integral_scalars_as_ints():
    assert (QQ.zero, QQ.one) == (0, 1) and type(QQ.one) is int
    half, third = Fraction(1, 2), Fraction(1, 3)
    assert type(QQ.of(Fraction(6, 3))) is int and QQ.of(half) == half
    assert [QQ.inv(x) for x in (1, -1, Fraction(-1), 2, third, -2 * third)] == [1, -1, -1, half, 3, -3 * half]
    assert all(type(QQ.inv(x)) is int for x in (1, -1, Fraction(-1), third))
    fp = PrimeField(7)
    assert fp.inv(fp.of(3)) * fp.of(3) == fp.one


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
