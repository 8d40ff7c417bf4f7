from fractions import Fraction

import pytest

from sympdec.abgroup import FgAbGroup
from sympdec.induced import AbHom
from sympdec.intmatrix import IntMatrix

from oracles import canonical, isomorphic


def test_rejects_order_one_and_negatives():
    with pytest.raises(ValueError):
        FgAbGroup((1,))
    with pytest.raises(ValueError):
        FgAbGroup((-2,))


def test_rejects_non_integer_orders():
    for bad in (2.5, 2.0, Fraction(4, 1), "2"):
        with pytest.raises(TypeError):
            FgAbGroup((0, bad))
    assert FgAbGroup((True * 2, 0)).factors == (2, 0)


def test_homs_into_non_integer_orders_are_refused():
    # 2.7 used to truncate to Z/2, so this hom mapped into Z/2
    with pytest.raises(TypeError):
        AbHom(FgAbGroup((0,)), FgAbGroup((2.7,)), IntMatrix(1, 1, [1]))


def test_canonical_invariant_factors():
    # the tests' isomorphism-class oracle
    g = FgAbGroup((12, 2, 3, 0))
    assert canonical(g) == FgAbGroup((0, 6, 12))
    assert canonical(FgAbGroup((2, 3))) == FgAbGroup((6,))
    assert canonical(FgAbGroup((2, 4))) == FgAbGroup((2, 4))
    assert canonical(FgAbGroup(())) == FgAbGroup(())


def test_order_of_factors_is_preserved_structurally():
    assert FgAbGroup((2, 0)) != FgAbGroup((0, 2))
    assert isomorphic(FgAbGroup((2, 0)), FgAbGroup((0, 2)))
    assert not isomorphic(FgAbGroup((4,)), FgAbGroup((2, 2)))
    with pytest.raises(AttributeError):
        FgAbGroup((2,)).factors = (3,)


def test_product_and_ranks():
    g = FgAbGroup.product(FgAbGroup((0,)), FgAbGroup((2,)), FgAbGroup(()))
    assert g == FgAbGroup((0, 2)) and hash(g) == hash(FgAbGroup((0, 2)))
    assert g.ngens == 2 and g.factors == (0, 2)
    assert FgAbGroup.product().ngens == 0


def test_huge_orders_canonicalize_without_factoring():
    from math import factorial
    big = factorial(199) * 2
    g = FgAbGroup((big, 2))
    assert canonical(g) == FgAbGroup((2, big))
