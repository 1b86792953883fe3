"""Exact coefficient fields: rationals (default) and prime fields F_p.

A QQ scalar is a Python int, or a Fraction once a quotient is not integral;
an F_p scalar is an int in [0, p).  0 and 1 are the same int in every field.
Arithmetic that can leave a field's scalars is written only here: `/`,
since int / int would give a float, and `% p`, since an int product or
difference leaves [0, p).  The linear algebra layer calls a field once per
matrix it reduces on entry (reduced), once per row operation (scaled,
minus_multiple) and once per dot product (dot), never once per scalar, and
inverts pivots through inv.  Other layers may add and multiply scalars as
ints, as long as the result goes through linear algebra, which reduces
every matrix on entry.  No floating point anywhere.
"""

from __future__ import annotations

from operator import mul

_Fraction = None  # fractions.Fraction, bound by _normalized on first use


def _normalized(*args):
    """Fraction(*args), or its numerator when it is integral.  Only a
    non-integral quotient needs fractions, so it is imported here, once."""
    global _Fraction
    if _Fraction is None:
        from fractions import Fraction as _Fraction
    q = _Fraction(*args)
    return q.numerator if q.denominator == 1 else q


class RationalField:
    """The field of exact rationals; elements are ints, or Fractions when not
    integral.  Ints and Fractions compare, hash and print alike, so the row
    operations are plain comprehensions."""

    name = "rational"

    def of(self, x):
        return x if type(x) is int else _normalized(x)

    def inv(self, x):
        if x == 1 or x == -1:
            return int(x)
        return _normalized(1, x)

    def reduced(self, A):
        """A copy of the matrix A in canonical scalars."""
        return [row[:] for row in A]

    def scaled(self, row, c):
        return [x * c for x in row]

    def minus_multiple(self, row, f, pivot):
        """row - f * pivot."""
        return [x - f * y for x, y in zip(row, pivot)]

    def dot(self, u, v):
        return sum(map(mul, u, v))

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")


QQ = RationalField()


# Miller-Rabin with the first 13 prime bases is exact below this bound, the
# least strong pseudoprime to all of them (Sorenson and Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; raises ValueError where it is not exact."""
    if n >= _MR_LIMIT:
        raise ValueError(f"p={n} is too large to certify as a prime")
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """F_p with a fixed prime p (default 32003, a standard computer-algebra
    prime); its scalars are the ints in [0, p), and every method returns
    them so."""

    def __init__(self, p: int = 32003):
        if not is_prime(p):
            raise ValueError(f"p={p} is not a prime")
        self.p = p
        self.name = f"fp:{p}"

    def of(self, x) -> int:
        if type(x) is int:
            return x % self.p
        q = _normalized(x)  # an int or a Fraction, both with a numerator and a denominator
        return q.numerator * self.inv(q.denominator) % self.p

    def inv(self, x) -> int:
        if x % self.p == 0:
            raise ZeroDivisionError("division by zero in F_p")
        return pow(x, -1, self.p)

    def reduced(self, A):
        p = self.p
        return [[x % p for x in row] for row in A]

    def scaled(self, row, c):
        p = self.p
        return [x * c % p for x in row]

    def minus_multiple(self, row, f, pivot):
        """row - f * pivot."""
        p = self.p
        return [(x - f * y) % p for x, y in zip(row, pivot)]

    def dot(self, u, v):
        return sum(map(mul, u, v)) % self.p

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))


def parse_field(spec: str):
    """Parse a CLI field spec: "rational" or "fp:P"."""
    if spec == "rational":
        return QQ
    if spec.startswith("fp:"):
        return PrimeField(int(spec[3:]))
    raise ValueError(f"unknown field spec {spec!r}")
