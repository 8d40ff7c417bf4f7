"""Finitely generated abelian groups as ordered lists of cyclic orders.

Order 0 stands for Z and k >= 2 for Z/k; order 1 is rejected so every
generator is honest.  The factor order is meaningful (homomorphism matrices
are written on these generators), so equality is structural, not an
isomorphism-class comparison.

The public constructor accepts integers only (operator.index, so a float
raises TypeError) and checks every order.  The private FgAbGroup._raw takes
a tuple of orders already checked, for results that are valid whenever
their inputs are, such as FgAbGroup.product.
"""

from __future__ import annotations

from operator import index


class FgAbGroup:
    __slots__ = ("factors",)

    def __init__(self, factors=()):
        factors = tuple(map(index, factors))
        for f in factors:
            if f == 1 or f < 0:
                raise ValueError(f"invalid cyclic order {f}; use 0 for Z or k >= 2 for Z/k")
        _set_factors(self, factors)

    @classmethod
    def _raw(cls, factors: tuple[int, ...]) -> "FgAbGroup":
        """The group on factors, a tuple of ints each 0 or >= 2, taken unchecked."""
        self = object.__new__(cls)
        _set_factors(self, factors)
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def product(cls, *groups: "FgAbGroup") -> "FgAbGroup":
        factors: tuple[int, ...] = ()
        for g in groups:
            factors += g.factors
        return cls._raw(factors)

    @property
    def ngens(self) -> int:
        return len(self.factors)

    def __eq__(self, other):
        if not isinstance(other, FgAbGroup):
            return NotImplemented
        return self.factors == other.factors

    def __hash__(self):
        return hash(self.factors)


# the slot's own descriptor stores the field past the immutability guard
_set_factors = FgAbGroup.__dict__["factors"].__set__
