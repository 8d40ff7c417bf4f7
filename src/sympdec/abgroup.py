"""Finitely generated abelian groups as ordered lists of cyclic orders.

Order 0 stands for Z and k >= 2 for Z/k; order 1 is rejected so every
generator is honest.  The factor order is meaningful (homomorphism matrices
are written on these generators), so equality is structural; use canonical()
or is_isomorphic_to() for isomorphism-class comparisons.
"""

from __future__ import annotations

from math import gcd


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
    def trivial(cls) -> "FgAbGroup":
        return cls(())

    @classmethod
    def free(cls, rank: int = 1) -> "FgAbGroup":
        return cls((0,) * rank)

    @classmethod
    def cyclic(cls, order: int) -> "FgAbGroup":
        return cls((order,))

    @classmethod
    def product(cls, *groups: "FgAbGroup") -> "FgAbGroup":
        factors: tuple[int, ...] = ()
        for g in groups:
            factors += g.factors
        return cls(factors)

    @property
    def ngens(self) -> int:
        return len(self.factors)

    @property
    def free_rank(self) -> int:
        return sum(1 for f in self.factors if f == 0)

    def is_finite(self) -> bool:
        return self.free_rank == 0

    def canonical(self) -> "FgAbGroup":
        """Free factors first, torsion as an ascending divisibility chain."""
        torsion = [f for f in self.factors if f]
        # pairwise gcd/lcm sweeps converge to invariant factors without
        # ever factoring the orders (they can be huge factorials here)
        changed = True
        while changed:
            changed = False
            for i in range(len(torsion)):
                for j in range(i + 1, len(torsion)):
                    x, y = torsion[i], torsion[j]
                    if y % x:
                        g = gcd(x, y)
                        torsion[i], torsion[j] = g, x * y // g
                        changed = True
        torsion = [f for f in sorted(torsion) if f != 1]
        return FgAbGroup((0,) * self.free_rank + tuple(torsion))

    def is_isomorphic_to(self, other: "FgAbGroup") -> bool:
        return self.canonical().factors == other.canonical().factors

    def __eq__(self, other):
        if not isinstance(other, FgAbGroup):
            return NotImplemented
        return self.factors == other.factors

    def __hash__(self):
        return hash(self.factors)

    def __repr__(self):
        return f"FgAbGroup({self.factors!r})"

    def __str__(self):
        if not self.factors:
            return "0"
        return " x ".join("Z" if f == 0 else f"Z/{f}" for f in self.factors)
