"""Exact arithmetic in the degree-8 cyclotomic field Q(z), z = primitive 8th root of unity.

Elements are written a0 + a1*z + a2*z^2 + a3*z^3 with rational coefficients,
reduced by z^4 = -1.  The field contains i = z^2 and sqrt(2) = z - z^3, which
is exactly what the orthonormalizing change-of-basis matrices require.

Internally a scalar is four integer numerators over one positive common
denominator with the content gcd reduced to 1; that form is canonical, so
equality and hashing are structural.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def _reduce(num: tuple[int, int, int, int], den: int) -> tuple[tuple[int, int, int, int], int]:
    if den == 0:
        raise ZeroDivisionError("zero denominator")
    if den < 0:
        num = (-num[0], -num[1], -num[2], -num[3])
        den = -den
    g = gcd(gcd(abs(num[0]), abs(num[1])), gcd(abs(num[2]), abs(num[3])))
    g = gcd(g, den)
    if g > 1:
        num = (num[0] // g, num[1] // g, num[2] // g, num[3] // g)
        den //= g
    if num == (0, 0, 0, 0):
        den = 1
    return num, den


def _mul4(a: tuple[int, int, int, int], b: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
    # negacyclic convolution: z^4 = -1
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (
        a0 * b0 - a1 * b3 - a2 * b2 - a3 * b1,
        a0 * b1 + a1 * b0 - a2 * b3 - a3 * b2,
        a0 * b2 + a1 * b1 + a2 * b0 - a3 * b3,
        a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0,
    )


class CycScalar:
    """An element of Q(z) with exact structural equality."""

    __slots__ = ("num", "den")

    def __init__(self, a0=0, a1=0, a2=0, a3=0):
        coeffs = [Fraction(a) for a in (a0, a1, a2, a3)]
        den = 1
        for c in coeffs:
            den = den * c.denominator // gcd(den, c.denominator)
        num = tuple(int(c * den) for c in coeffs)
        self.num, self.den = _reduce(num, den)

    @classmethod
    def _raw(cls, num: tuple[int, int, int, int], den: int) -> "CycScalar":
        self = object.__new__(cls)
        self.num, self.den = _reduce(num, den)
        return self

    @classmethod
    def zero(cls) -> "CycScalar":
        return cls._raw((0, 0, 0, 0), 1)

    @classmethod
    def one(cls) -> "CycScalar":
        return cls._raw((1, 0, 0, 0), 1)

    @classmethod
    def zeta(cls) -> "CycScalar":
        return cls._raw((0, 1, 0, 0), 1)

    @classmethod
    def i(cls) -> "CycScalar":
        return cls._raw((0, 0, 1, 0), 1)

    @classmethod
    def sqrt2(cls) -> "CycScalar":
        return cls._raw((0, 1, 0, -1), 1)

    @property
    def coeffs(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        """The four rational coefficients, each reduced by Fraction."""
        d = self.den
        return tuple(Fraction(n, d) for n in self.num)

    def is_zero(self) -> bool:
        return self.num == (0, 0, 0, 0)

    def is_rational(self) -> bool:
        return self.num[1] == self.num[2] == self.num[3] == 0

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return Fraction(self.num[0], self.den)

    def __add__(self, other):
        other = as_cyc(other)
        if other is NotImplemented:
            return NotImplemented
        da, db = self.den, other.den
        g = gcd(da, db)
        la, lb = db // g, da // g
        num = tuple(x * la + y * lb for x, y in zip(self.num, other.num))
        return CycScalar._raw(num, da * la)

    __radd__ = __add__

    def __sub__(self, other):
        other = as_cyc(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return CycScalar._raw(tuple(-x for x in self.num), self.den)

    def __mul__(self, other):
        other = as_cyc(other)
        if other is NotImplemented:
            return NotImplemented
        return CycScalar._raw(_mul4(self.num, other.num), self.den * other.den)

    __rmul__ = __mul__

    def conjugates_product(self) -> "CycScalar":
        """Product of the three nontrivial Galois conjugates of self."""
        a0, a1, a2, a3 = self.num
        s3 = (a0, a3, -a2, a1)    # z -> z^3
        s5 = (a0, -a1, a2, -a3)   # z -> z^5 = -z
        s7 = (a0, -a3, -a2, -a1)  # z -> z^7 = -z^3
        num = _mul4(_mul4(s3, s5), s7)
        return CycScalar._raw(num, self.den ** 3)

    def inv(self) -> "CycScalar":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(z)")
        conj = self.conjugates_product()
        norm = _mul4(self.num, conj.num)
        # self * (product of conjugates) is the rational field norm
        assert norm[1] == norm[2] == norm[3] == 0
        return CycScalar._raw(tuple(c * self.den for c in conj.num), norm[0])

    def __truediv__(self, other):
        other = as_cyc(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        return as_cyc(other) * self.inv()

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inv() ** (-k)
        out = CycScalar.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        other = as_cyc(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        return f"CycScalar({', '.join(str(c) for c in self.coeffs)})"

    def __str__(self):
        terms = []
        for n, power in zip(self.num, ("", "z", "z^2", "z^3")):
            if n == 0:
                continue
            mag = abs(n)
            body = power if (mag == 1 and power) else (f"{mag}*{power}" if power else str(mag))
            terms.append(("- " if n < 0 else "+ ") + body)
        if not terms:
            return "0"
        lead = terms[0].replace("+ ", "", 1).replace("- ", "-", 1)
        expr = " ".join([lead] + terms[1:])
        if self.den != 1:
            expr = f"({expr})/{self.den}" if len(terms) > 1 else f"{expr}/{self.den}"
        return expr


def as_cyc(x) -> "CycScalar":
    """Coerce ints and Fractions to CycScalar; NotImplemented on foreign types."""
    if isinstance(x, CycScalar):
        return x
    if isinstance(x, int):
        return CycScalar._raw((int(x), 0, 0, 0), 1)   # int(x): no bool in the tuple
    if isinstance(x, Fraction):
        return CycScalar(x)
    return NotImplemented
