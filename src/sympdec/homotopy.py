"""Homotopy groups of the classical complex groups in their tabulated ranges.

There is one table per family, in TABLES: a case function that states the
family's cases once and returns the plain tuple (kind, group, provenance
template, template arguments).  pi_table, the one public lookup, wraps that
tuple in a TableAnswer, an exact group description whose provenance names
the table rule used and is formatted when it is read, so a lookup whose
text nobody reads formats none; induced reads the case functions directly.
Degrees outside a family's tabulated range come back as an explicit
out-of-range marker, never as a guess; three unstable special orthogonal
degrees are recorded as torsion-only markers because only that much is
tabulated.

Every group an answer names is the trivial group, Z or Z/2, built once and
shared (FgAbGroup is immutable), except the cyclic group of the first
unstable symplectic degree, built per query from its order.
"""

from __future__ import annotations

import sys
from functools import cache
from math import factorial
from typing import NamedTuple

from sympdec.abgroup import FgAbGroup

GROUP = "group"
TORSION_ONLY = "torsion-only"
OUT_OF_RANGE = "out-of-range"

_TRIVIAL, _Z, _Z2 = FgAbGroup(()), FgAbGroup((0,)), FgAbGroup((2,))

# stable tables, indexed by degree mod 8
_SP_STABLE = {0: _TRIVIAL, 1: _TRIVIAL, 2: _TRIVIAL, 3: _Z, 4: _Z2, 5: _Z2, 6: _TRIVIAL, 7: _Z}
_SO_STABLE = {0: _Z2, 1: _Z2, 2: _TRIVIAL, 3: _Z, 4: _TRIVIAL, 5: _TRIVIAL, 6: _TRIVIAL, 7: _Z}

# unstable special orthogonal degrees (i, n) recorded only as torsion; lifting
# reads its small odd no-section cases off them
SO_TORSION_PAIRS = {(7, 3), (11, 5), (15, 7)}


class TableAnswer(NamedTuple):
    """A table's answer: the kind (GROUP, TORSION_ONLY or OUT_OF_RANGE), the
    group (None unless the kind is GROUP), and the provenance, kept as a
    str.format template and its arguments and formatted when read."""

    kind: str
    group: FgAbGroup | None
    template: str
    args: tuple = ()

    @property
    def provenance(self) -> str:
        return self.template.format(*self.args)


# the provenance of each symplectic case that answers a group, in the order
# _sp tests them; the center quotient states the same cases above degree 1
# behind one prefix, joined here once rather than at every lookup
_SP_NOTES = ("symplectic stable table (8-periodic), i = {} < 4n = {}",
             "symplectic boundary degree {}: Z/2 for odd n, trivial for even n (n = {})",
             "first unstable symplectic degree 4n+2: cyclic of order (2n+1)!{}")
_PSP_NOTES = tuple("center quotient agrees above degree 1; " + note for note in _SP_NOTES)


def _sp(i: int, n: int, notes: tuple = _SP_NOTES) -> tuple:
    _check(i, n)
    if i < 4 * n:
        return GROUP, _SP_STABLE[i % 8], notes[0], (i, 4 * n)
    if i in (4 * n, 4 * n + 1):
        return GROUP, _Z2 if n % 2 else _TRIVIAL, notes[1], (i, n)
    if i == 4 * n + 2:
        digits = sys.get_int_max_str_digits() or 4300
        largest = _largest_printable_sp_n(digits)
        if n > largest:
            raise ValueError(
                f"order (2n+1)!{'*2' if n % 2 else ''} of degree 4n+2 = {i} has more "
                f"than {digits} digits, the integer string conversion limit; "
                f"n <= {largest} prints")
        order = factorial(2 * n + 1) * (2 if n % 2 else 1)
        return GROUP, FgAbGroup((order,)), notes[2], (" doubled for odd n" if n % 2 else "",)
    return (OUT_OF_RANGE, None,
            "degree {} beyond tabulated symplectic range 4n+2 = {}", (i, 4 * n + 2))


@cache
def _largest_printable_sp_n(digits: int) -> int:
    """Largest n whose degree-4n+2 order has at most `digits` decimal digits.

    The order grows with n, so one pass of exact multiplications finds the
    threshold; the factorial of a larger n is never computed.
    """
    bound = 10 ** digits          # an order has more than `digits` digits iff >= bound
    n, f = 0, 1                   # f = (2n+1)!
    while True:
        f *= (2 * n + 2) * (2 * n + 3)
        if f * (2 if (n + 1) % 2 else 1) >= bound:
            return n
        n += 1


def _psp(i: int, n: int) -> tuple:
    if i > 1:
        return _sp(i, n, _PSP_NOTES)
    _check(i, n)
    if i == 0:
        return GROUP, _TRIVIAL, "projective symplectic group is connected", ()
    return GROUP, _Z2, "fundamental group of the center quotient is Z/2", ()


def _so(i: int, n: int) -> tuple:
    _check(i, n)
    if i == 0:
        return GROUP, _TRIVIAL, "special orthogonal group is connected", ()
    if i < n - 1:
        return (GROUP, _SO_STABLE[i % 8],
                "orthogonal stable table (8-periodic), i = {} < n-1 = {}", (i, n - 1))
    if (i, n) in SO_TORSION_PAIRS:
        return (TORSION_ONLY, None,
                "unstable degree ({}, {}) recorded as torsion-only", (i, n))
    return (OUT_OF_RANGE, None,
            "degree {} beyond tabulated orthogonal range n-2 = {}", (i, n - 2))


def _o(i: int, n: int) -> tuple:
    if i != 0:
        return _so(i, n)
    _check(i, n)
    return GROUP, _Z2, "orthogonal group has two components", ()


def _u(i: int, n: int) -> tuple:
    _check(i, n)
    if i >= 2 * n:
        return (OUT_OF_RANGE, None,
                "degree {} beyond tabulated unitary range 2n-1 = {}", (i, 2 * n - 1))
    if i == 0:
        return GROUP, _TRIVIAL, "unitary group is connected", ()
    return (GROUP, _Z if i % 2 else _TRIVIAL,
            "unitary stable table (2-periodic), i = {} < 2n = {}", (i, 2 * n))


# one case function per family: sp the rank-n symplectic group (matrices of
# size 2n), psp its quotient by the center, so and o the special and full
# orthogonal groups, u = gl the unitary group U(n) ~ GL(n, C) below degree 2n
TABLES = {"sp": _sp, "psp": _psp, "so": _so, "o": _o, "u": _u, "gl": _u}
FAMILIES = tuple(TABLES)


def pi_table(family: str, i: int, n: int, space: str = "group") -> TableAnswer:
    """pi_i of the family's group of size n, or of its classifying space when
    space is 'classifying', as a TableAnswer.

    The classifying space shifts the degree, pi_i B G = pi_{i-1} G, with one
    recorded exception: for the projective symplectic family at degree 4n+4
    the shifted degree lies one past the boundary pair, and the value Z/2 is
    stored as a fixed constant rather than derived from the stable table.
    The size is checked before that constant, as the tables check it.
    """
    if space not in ("group", "classifying"):
        raise ValueError(f"unknown space {space!r}")
    if family not in TABLES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    if space == "group":
        return TableAnswer(*TABLES[family](i, n))
    if i < 1:
        raise ValueError("classifying-space degrees start at 1")
    _check(i - 1, n)
    if family == "psp" and i == 4 * n + 4:
        return TableAnswer(GROUP, _Z2,
                           "recorded constant: degree 4n+4 of the projective symplectic "
                           "classifying space is Z/2 (one past the shifted boundary pair)")
    kind, group, template, args = TABLES[family](i - 1, n)
    return TableAnswer(kind, group, "classifying-space shift to degree {}; " + template,
                       (i - 1, *args))


def _check(i: int, n: int):
    if i < 0:
        raise ValueError("degree must be nonnegative")
    if n < 1:
        raise ValueError("size parameter must be positive")
