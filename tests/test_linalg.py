import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from serrelab import linalg
from serrelab.fields import QQ, PrimeField, RationalField


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


class _FractionField(RationalField):
    """QQ with every scalar a Fraction, as the rationals were before ints."""

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
    half, third = Fraction(1, 2), Fraction(1, 3)
    assert type(QQ.of(Fraction(6, 3))) is int and QQ.of(half) == half
    assert [QQ.inv(x) for x in (1, -1, Fraction(-1), 2, third, -2 * third)] == [1, -1, -1, half, 3, -3 * half]
    assert all(type(QQ.inv(x)) is int for x in (1, -1, Fraction(-1), third))


def _canonical(values, p):
    return all(type(x) is int and 0 <= x < p for x in values)


def test_prime_field_arithmetic():
    # an F_p scalar is an int in [0, p), and of and inv return nothing else
    for p in (2, 3, 7, 32003):
        fp = PrimeField(p)
        assert (fp.of(-1), fp.of(p), fp.of(-p), fp.of(2 * p + 1)) == (p - 1, 0, 0, 1)
        units = [x for x in (1, 2, p - 1, p + 1, -1, -2, 5 * p - 3) if x % p]
        for x in units:
            y = fp.inv(x)
            assert _canonical([y], p) and y * x % p == 1, (p, x)
        for x in (0, p, -p):
            with pytest.raises(ZeroDivisionError):
                fp.inv(x)
    fp = PrimeField(7)
    assert fp.of(Fraction(1, 2)) == 4 and fp.of(Fraction(-3, 2)) == 2
    assert _canonical([fp.of(Fraction(6, 3)), fp.of(Fraction(-1, 3))], 7)
    with pytest.raises(ZeroDivisionError):
        fp.of(Fraction(1, 7))


class _Fp:
    """An element of F_p that reduces itself, as F_p scalars were before ints."""

    __slots__ = ("v", "p")

    def __init__(self, v, p):
        self.v, self.p = v % p, p

    def _lift(self, other):
        return other.v if isinstance(other, _Fp) else other

    def __add__(self, other):
        return _Fp(self.v + self._lift(other), self.p)

    __radd__ = __add__

    def __sub__(self, other):
        return _Fp(self.v - self._lift(other), self.p)

    def __mul__(self, other):
        return _Fp(self.v * self._lift(other), self.p)

    __rmul__ = __mul__

    def __neg__(self):
        return _Fp(-self.v, self.p)

    def __bool__(self):
        return self.v != 0


class _BoxedField(RationalField):
    """F_p on _Fp scalars through QQ's plain row operations, with inverses by
    Fermat's little theorem: the reference for PrimeField's reductions."""

    def __init__(self, p):
        self.p = p

    def of(self, x):
        return x if isinstance(x, _Fp) else _Fp(x, self.p)

    def inv(self, x):
        return _Fp(pow(x.v, self.p - 2, self.p), self.p)

    def reduced(self, A):
        return [[self.of(x) for x in row] for row in A]


def _unboxed(values):
    return [x.v if isinstance(x, _Fp) else x for x in values]


def _unreduced(p):
    """Entries k p + r with |k|, |r| <= 2: negative or at least p, mostly."""
    entry = st.builds(lambda k, r: k * p + r, st.integers(-2, 2), st.integers(-2, 2))
    return st.integers(1, 4).flatmap(
        lambda n: st.lists(st.lists(entry, min_size=n, max_size=n), min_size=1, max_size=4)
    )


@pytest.mark.parametrize("p", [2, 3, 5, 32003])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_prime_field_linear_algebra_matches_boxed_reference(p, data):
    rows = data.draw(_unreduced(p))
    b = data.draw(st.lists(st.integers(-3 * p, 3 * p), min_size=len(rows), max_size=len(rows)))
    n = len(rows[0])
    fp, ref = PrimeField(p), _BoxedField(p)
    R, pivots = linalg.rref(rows, n, fp)
    want_R, want_pivots = linalg.rref(rows, n, ref)
    assert pivots == want_pivots and R == [_unboxed(row) for row in want_R]
    assert _canonical((x for row in R for x in row), p)
    assert linalg.rank(rows, n, fp) == linalg.rank(rows, n, ref) == len(pivots)
    ker = linalg.kernel_basis(rows, n, fp)
    assert ker == [_unboxed(v) for v in linalg.kernel_basis(rows, n, ref)]
    assert _canonical((x for v in ker for x in v), p)
    for v in ker:
        assert not any(linalg.mat_vec(rows, v, fp))
    x = linalg.solve(rows, b, n, fp)
    want_x = linalg.solve(rows, b, n, ref)
    assert (x is None) == (want_x is None)
    if x is not None:
        assert x == _unboxed(want_x) and _canonical(x, p)
        assert linalg.mat_vec(rows, x, fp) == [y % p for y in b]
    cols = linalg.column_space_basis(rows, n, fp)
    assert _canonical((x for c in cols for x in c), p) and len(cols) == len(pivots)


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
