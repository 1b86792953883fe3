"""Exact coefficient fields: rationals (default) and prime fields F_p.

Scalars are self-operating objects: a QQ scalar is a Python int, or a
Fraction once a quotient is not integral; an F_p scalar is an FpElement
(below).  The linear algebra layer only needs +, -, *, == and truthiness for
"nonzero", and takes inverses through field.inv; `/` between scalars is
written only in this module, since int / int would give a float.  No
floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction


def _normalized(q: Fraction):
    return q.numerator if q.denominator == 1 else q


class RationalField:
    """The field of exact rationals; elements are ints, or Fractions when not
    integral.  Ints and Fractions compare, hash and print alike."""

    name = "rational"
    zero = 0
    one = 1

    def of(self, x):
        return x if type(x) is int else _normalized(Fraction(x))

    def inv(self, x):
        if x == 1 or x == -1:
            return int(x)
        return _normalized(Fraction(1, x))

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")


QQ = RationalField()


class FpElement:
    """Element of F_p; PrimeField checks that p is prime."""

    __slots__ = ("v", "p")

    def __init__(self, v: int, p: int):
        self.v = v % p
        self.p = p

    def _lift(self, other) -> "FpElement":
        if isinstance(other, FpElement):
            if other.p != self.p:
                raise ValueError("mixed characteristics")
            return other
        if isinstance(other, int):
            return FpElement(other, self.p)
        return NotImplemented

    def __add__(self, other):
        o = self._lift(other)
        return o if o is NotImplemented else FpElement(self.v + o.v, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        return o if o is NotImplemented else FpElement(self.v - o.v, self.p)

    def __rsub__(self, other):
        o = self._lift(other)
        return o if o is NotImplemented else FpElement(o.v - self.v, self.p)

    def __mul__(self, other):
        o = self._lift(other)
        return o if o is NotImplemented else FpElement(self.v * o.v, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return o
        if o.v == 0:
            raise ZeroDivisionError("division by zero in F_p")
        return FpElement(self.v * pow(o.v, self.p - 2, self.p), self.p)

    def __neg__(self):
        return FpElement(-self.v, self.p)

    def __bool__(self):
        return self.v != 0

    def __eq__(self, other):
        if isinstance(other, FpElement):
            return self.p == other.p and self.v == other.v
        if isinstance(other, int):
            return self.v == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.v, self.p))

    def __repr__(self):
        return f"{self.v}@{self.p}"


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
    """F_p with a fixed prime p (default 32003, a standard computer-algebra prime)."""

    def __init__(self, p: int = 32003):
        if not is_prime(p):
            raise ValueError(f"p={p} is not a prime")
        self.p = p
        self.name = f"fp:{p}"
        self.zero = FpElement(0, p)
        self.one = FpElement(1, p)

    def inv(self, x: FpElement) -> FpElement:
        return self.one / x

    def of(self, x) -> FpElement:
        if isinstance(x, FpElement):
            if x.p != self.p:
                raise ValueError("mixed characteristics")
            return x
        if isinstance(x, Fraction):
            return FpElement(x.numerator, self.p) / FpElement(x.denominator, self.p)
        return FpElement(int(x), self.p)

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
