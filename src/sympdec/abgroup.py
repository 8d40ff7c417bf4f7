"""Finitely generated abelian groups as ordered lists of cyclic orders.

Order 0 stands for Z and k >= 2 for Z/k; order 1 is rejected so every
generator is honest.  The factor order is meaningful (homomorphism matrices
are written on these generators), so equality is structural, not an
isomorphism-class comparison.
"""

from __future__ import annotations


class FgAbGroup:
    __slots__ = ("factors",)

    def __init__(self, factors=()):
        factors = tuple(int(f) for f in factors)
        for f in factors:
            if f == 1 or f < 0:
                raise ValueError(f"invalid cyclic order {f}; use 0 for Z or k >= 2 for Z/k")
        object.__setattr__(self, "factors", factors)

    def __setattr__(self, name, value):
        raise AttributeError("FgAbGroup is immutable")

    @classmethod
    def product(cls, *groups: "FgAbGroup") -> "FgAbGroup":
        factors: tuple[int, ...] = ()
        for g in groups:
            factors += g.factors
        return cls(factors)

    @property
    def ngens(self) -> int:
        return len(self.factors)

    def __eq__(self, other):
        if not isinstance(other, FgAbGroup):
            return NotImplemented
        return self.factors == other.factors

    def __hash__(self):
        return hash(self.factors)
