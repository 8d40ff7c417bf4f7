import operator
import re
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st
from sympy import ZZ, Matrix
from sympy.matrices.normalforms import invariant_factors

from sympdec.abgroup import FgAbGroup
from sympdec.errors import (
    BadBezoutError,
    EvenNError,
    MalformedHomError,
    NotCoprimeError,
    OutOfRangeError,
    ShapeMismatchError,
    SympdecError,
)
from sympdec.homotopy import GROUP, OUT_OF_RANGE, TORSION_ONLY, pi_table
from sympdec.induced import (
    _PLANS,
    FORMULAS,
    REQUIRED,
    AbHom,
    ZDependent,
    _bind,
    _build,
    _groups,
    _hom,
    _presentation_matrix,
    compose,
    describe,
    diagonal_hom,
    homs,
    is_isomorphism,
)
from sympdec.intmatrix import IntMatrix, smith_normal_form
from sympdec.lifting import bezout_uv

from oracles import hom, isomorphic

Z = FgAbGroup((0,))
Z2 = FgAbGroup((2,))
T = FgAbGroup(())


def abhom(src, tgt, rows):
    return AbHom(FgAbGroup(src), FgAbGroup(tgt),
                 IntMatrix(len(rows), len(rows[0]), [x for row in rows for x in row]))


# -- AbHom mechanics -----------------------------------------------------------

def test_well_definedness_enforced():
    with pytest.raises(MalformedHomError):
        abhom((2,), (0,), [[1]])          # Z/2 cannot map onto a free generator
    with pytest.raises(MalformedHomError):
        abhom((2,), (4,), [[1]])          # order 2 image would have order 4
    abhom((2,), (4,), [[2]])              # fine: 2 has order 2 in Z/4
    abhom((4,), (2,), [[1]])              # fine: quotient
    with pytest.raises(MalformedHomError):
        abhom((0,), (0, 0), [[1]])        # wrong shape


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([0, 2, 3, 4, 6, 12]), max_size=3),
       st.lists(st.sampled_from([0, 2, 3, 4, 6, 12]), max_size=3), st.data())
def test_well_definedness_property(src, tgt, data):
    entries = data.draw(st.lists(st.integers(-30, 30), min_size=len(src) * len(tgt),
                                 max_size=len(src) * len(tgt)))

    def killed(a, x, t):
        """a * x == 0 in Z/t (in Z for t = 0)."""
        return a * x % t == 0 if t else a * x == 0

    # column c is the image of generator c; each finite-order generator needs
    # its order a to kill every coordinate of that image
    sound = all(killed(a, entries[r * len(src) + c], t)
                for c, a in enumerate(src) if a for r, t in enumerate(tgt))
    make = lambda: AbHom(FgAbGroup(src), FgAbGroup(tgt), IntMatrix(len(tgt), len(src), entries))
    if not sound:
        with pytest.raises(MalformedHomError):
            make()
        return
    h = make()
    got = h.matrix.row_lists()
    for r, t in enumerate(tgt):
        for c, a in enumerate(src):
            e, x = got[r][c], entries[r * len(src) + c]
            assert (e - x) % t == 0 if t else e == x        # the same map, reduced
            assert not a or killed(a, e, t)


def test_equal_maps_compare_and_hash_equal_and_no_field_is_assigned():
    h = abhom((0, 2), (4, 0), [[1, 0], [3, 0]])
    for name, value in (("source", Z), ("target", Z), ("matrix", h.matrix), ("_key", ()),
                        ("_hash", 0), ("other", 1)):
        with pytest.raises(AttributeError):
            setattr(h, name, value)
    # built apart, from entries that reduce to the same ones
    same = abhom((0, 2), (4, 0), [[5, -4], [3, 0]])
    assert same is not h and same == h and hash(same) == hash(h)
    assert {h: 1}[same] == 1
    for other in (abhom((0, 2), (4, 0), [[1, 0], [2, 0]]),     # one entry
                  abhom((0, 2), (4, 0), [[2, 0], [3, 0]]),     # one entry, in Z/4
                  abhom((0, 2), (5, 0), [[1, 0], [3, 0]]),     # one target order
                  abhom((0, 2), (0, 4), [[1, 0], [3, 0]]),     # the target orders swapped
                  abhom((0, 4), (4, 0), [[1, 0], [3, 0]])):    # one source order
        assert other != h and h != other and not other == h
    assert h != (h.source, h.target, h.matrix)


def test_entries_reduced_mod_target_orders():
    h = abhom((2,), (2,), [[7]])
    assert h.matrix.row_lists() == [[1]]
    h = abhom((0,), (5,), [[-3]])
    assert h.matrix.row_lists() == [[2]]


def onto(h: AbHom) -> bool:
    """Every invariant factor of the presentation is 1, one per target generator."""
    factors = smith_normal_form(_presentation_matrix(h))
    return len(factors) == h.target.ngens and all(x == 1 for x in factors)


def sympy_iso(h: AbHom) -> bool:
    """The reference verdict: h is onto when sympy finds only unit invariant
    factors in its presentation, and an epimorphism between isomorphic
    finitely generated abelian groups is an isomorphism (they are Hopfian)."""
    p = _presentation_matrix(h)
    factors = invariant_factors(Matrix(p.rows, p.cols, p.data), domain=ZZ)
    return (len(factors) == h.target.ngens and all(x == 1 for x in factors)
            and isomorphic(h.source, h.target))


def test_zero_dimensional_homs():
    h = AbHom(T, T, IntMatrix(0, 0, []))
    assert is_isomorphism(h) and onto(h)
    kill = AbHom(Z2, T, IntMatrix(0, 1, []))
    assert onto(kill) and not is_isomorphism(kill)
    miss = AbHom(T, Z2, IntMatrix(1, 0, []))
    assert not onto(miss) and not is_isomorphism(miss)


def test_iso_predicates_on_knowns():
    assert is_isomorphism(abhom((0, 2, 4), (0, 2, 4), [[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    doubling = abhom((0,), (0,), [[2]])
    assert not onto(doubling) and not is_isomorphism(doubling)
    project = abhom((0,), (2,), [[1]])
    assert onto(project) and not is_isomorphism(project)
    # invertible integer 2x2 with unit determinant
    unit = abhom((0, 0), (0, 0), [[9, 4], [16, 7]])
    assert is_isomorphism(unit)
    non_unit = abhom((0, 0), (0, 0), [[9, 4], [64, 7]])
    assert not is_isomorphism(non_unit)
    # swap of torsion factors
    swap = abhom((2, 2), (2, 2), [[0, 1], [1, 0]])
    assert is_isomorphism(swap)
    collapse = abhom((2, 2), (2, 2), [[1, 1], [0, 0]])
    assert not is_isomorphism(collapse)
    # mixed free and torsion: (x, y) -> (3x, x + y) is injective, misses (1, 0)
    mixed = abhom((0, 2), (0, 2), [[3, 0], [1, 1]])
    assert not onto(mixed) and not is_isomorphism(mixed)


def test_each_count_decides_alone():
    # Z -> 0 is onto with equal torsion orders, but the ranks differ
    rank = AbHom(Z, T, IntMatrix(0, 1, []))
    assert onto(rank) and not is_isomorphism(rank)
    # Z/2 x Z -> Z by (0, 1): the Z/2 summand dies, so it is onto with equal
    # ranks, but the torsion orders differ
    torsion = abhom((2, 0), (0,), [[0, 1]])
    assert onto(torsion) and not is_isomorphism(torsion)
    # Z/2 x Z/3 -> Z/6: an isomorphism whose factor lists differ
    crt = abhom((2, 3), (6,), [[3, 2]])
    assert crt.source != crt.target and onto(crt) and is_isomorphism(crt)
    # Z/4 -> Z/2 x Z/2: both counts agree, but the image is the diagonal
    diagonal = abhom((4,), (2, 2), [[1], [1]])
    assert not onto(diagonal) and not is_isomorphism(diagonal)
    for h in (rank, torsion, crt, diagonal):
        assert is_isomorphism(h) == sympy_iso(h), h


def test_isomorphism_agrees_with_its_two_halves(golden_homs):
    isos = 0
    for h in golden_homs:
        iso = is_isomorphism(h)
        assert iso == sympy_iso(h), h
        isos += iso
    assert 0 < isos < len(golden_homs)


ORDERS = st.sampled_from([0, 2, 3, 4, 6])


@st.composite
def well_defined_homs(draw):
    """Maps between products of up to three cyclic groups of order 0, 2, 3, 4
    or 6: entry (r, c) is a multiple of t / gcd(a, t) for source order a and
    target order t, and 0 when a is finite and t is not."""
    src, tgt = draw(st.lists(ORDERS, max_size=3)), draw(st.lists(ORDERS, max_size=3))
    data = []
    for t in tgt:
        for a in src:
            k = draw(st.integers(-3, 3))
            data.append(k * (t // gcd(a, t)) if a and t else 0 if a else k)
    return AbHom(FgAbGroup(src), FgAbGroup(tgt), IntMatrix(len(tgt), len(src), data))


@settings(max_examples=400, deadline=None)
@given(well_defined_homs())
def test_isomorphism_agrees_with_sympy_on_composite_torsion(h):
    assert is_isomorphism(h) == sympy_iso(h), h


def test_compose_and_stack():
    double = abhom((0,), (0,), [[2]])
    triple = abhom((0,), (0,), [[3]])
    assert compose(double, triple).matrix.row_lists() == [[6]]
    # the composite is reduced modulo the target order: 3 * 3 = 1 in Z/4
    assert compose(abhom((0,), (4,), [[3]]), triple).matrix.row_lists() == [[1]]
    with pytest.raises(MalformedHomError):
        compose(double, AbHom(T, Z2, IntMatrix(1, 0, [])))
    d = diagonal_hom(Z2)
    assert d.matrix.row_lists() == [[1], [1]]


# -- formula emitters ----------------------------------------------------------

def test_direct_sum_formula():
    h = hom("direct-sum", 3, m=2, n=3)
    assert (h.source, h.target) == (FgAbGroup((0, 0)), Z)
    assert h.matrix.row_lists() == [[1, 1]]
    h = hom("direct-sum", 4, m=2, n=3)
    assert (h.source, h.target) == (FgAbGroup((2, 2)), Z2)
    assert h.matrix.row_lists() == [[1, 1]]
    h = hom("direct-sum", 2, m=2, n=3)
    assert h.source == T and h.target == T
    with pytest.raises(OutOfRangeError):
        hom("direct-sum", 10, m=2, n=3)


def test_r_fold_formula():
    assert is_isomorphism(hom("r-fold", 3, n=2, r=1))
    assert hom("r-fold", 3, n=2, r=5).matrix.row_lists() == [[5]]
    assert hom("r-fold", 4, n=2, r=2).matrix.row_lists() == [[0]]
    with pytest.raises(OutOfRangeError):
        hom("r-fold", 10, n=2, r=3)


def test_doubling_formula():
    assert hom("doubling", 3, n=9).matrix.row_lists() == [[2]]
    h = hom("doubling", 1, n=9)
    assert (h.source, h.target) == (Z2, T)
    h = hom("doubling", 4, n=9)
    assert (h.source, h.target) == (T, Z2)
    assert hom("doubling", 7, n=11).matrix.row_lists() == [[2]]
    with pytest.raises(OutOfRangeError):
        hom("doubling", 8, n=9)


def test_tensor_sp_o_formula():
    assert hom("tensor-sp-o", 3, m=2, n=5).matrix.row_lists() == [[5, 4]]
    # degree 4 mod 8: the orthogonal factor is trivial, odd n reduces to 1
    h = hom("tensor-sp-o", 4, m=2, n=9)
    assert h.source == Z2 and h.matrix.row_lists() == [[1]]
    h = hom("tensor-sp-o", 2, m=2, n=9)
    assert h.source == T and h.target == T
    with pytest.raises(OutOfRangeError):
        hom("tensor-sp-o", 4, m=2, n=5)


def test_tensor_quotient_formula():
    with pytest.raises(EvenNError):
        hom("tensor-quotient", 3, m=1, n=4)
    h = hom("tensor-quotient", 1, m=2, n=5)
    assert h.source == FgAbGroup((2, 2)) and h.target == Z2
    assert h.matrix.row_lists() == [[0, 0]]
    h = hom("tensor-quotient", 0, m=2, n=5)
    assert h.source == T and h.target == T
    assert hom("tensor-quotient", 3, m=1, n=5).matrix.row_lists() == [[5, 2]]
    h = hom("tensor-quotient", 5, m=2, n=11)
    assert h.source == Z2 and h.matrix.row_lists() == [[1]]
    with pytest.raises(OutOfRangeError):
        hom("tensor-quotient", 3, m=1, n=3)   # orthogonal side below its stable range


def test_tensor_sp_sp_formula():
    assert hom("tensor-sp-sp", 3, m=2, n=3).matrix.row_lists() == [[3, 2]]
    assert hom("tensor-sp-sp", 7, m=2, n=3).matrix.row_lists() == [[12, 8]]
    h = hom("tensor-sp-sp", 4, m=2, n=3)
    assert h.source == FgAbGroup((2, 2)) and h.target == T
    with pytest.raises(OutOfRangeError):
        hom("tensor-sp-sp", 3, m=3, n=2)      # needs m <= n
    with pytest.raises(OutOfRangeError):
        hom("tensor-sp-sp", 3, m=1, n=1)      # target below its stable range


def test_square_tensor_formula():
    assert hom("square-tensor", 3, m=2).matrix.row_lists() == [[4]]
    assert hom("square-tensor", 7, m=2).matrix.row_lists() == [[16]]
    h = hom("square-tensor", 5, m=2)
    assert h.source == Z2 and h.target == T
    with pytest.raises(OutOfRangeError):
        hom("square-tensor", 3, m=1)


def test_square_tensor_is_two_variable_on_the_diagonal():
    for m in (2, 3, 4):
        for i in range(0, 4 * m + 2):
            square = hom("square-tensor", i, m=m)
            composed = compose(hom("tensor-sp-sp", i, m=m, n=m),
                               diagonal_hom(pi_table("sp", i, m).group))
            assert square.matrix.row_lists() == composed.matrix.row_lists(), (i, m)
            assert square.source == composed.source and square.target == composed.target


def test_tensor_formula_decomposes_into_left_and_right_parts():
    for m in (1, 2):
        for n in (5, 9):
            for i in range(0, min(4 * m + 2, n - 1)):
                tensor = hom("tensor-sp-o", i, m=m, n=n)
                left = hom("r-fold", i, n=m, r=n)
                right = hom("doubling", i, n=n)
                lm, rm = left.matrix.row_lists(), right.matrix.row_lists()
                cols = [[row[c] for row in lm] for c in range(left.matrix.cols)]
                cols += [[m * row[c] for row in rm] for c in range(right.matrix.cols)]
                assert tensor.matrix.cols == len(cols)
                got = tensor.matrix.row_lists()
                for c, vals in enumerate(cols):
                    for r, val in enumerate(vals):
                        order = tensor.target.factors[r]
                        assert got[r][c] == (val % order if order else val)


# -- auxiliary and pairing maps --------------------------------------------------

def test_ttilde_cases():
    # (m, n) = (2, 9): u = 4, v = 7 satisfy 7*9 - 4*16 = -1
    assert hom("ttilde", 3, m=2, n=9, u=4, v=7).matrix.row_lists() == [[16, 7]]
    h = hom("ttilde", 4, m=2, n=9, u=4, v=7)
    assert h.source == Z2 and h.target == T
    h = hom("ttilde", 2, m=2, n=9, u=4, v=7)
    assert h.source == T and h.target == T
    # degree 9 = 1 mod 8 needs n - 1 > 9: use (2, 13) with u = 4, v = 5
    h = hom("ttilde", 9, m=2, n=13, u=4, v=5)
    assert h.source == Z2 and h.matrix.row_lists() == [[1]]
    h = hom("ttilde", 8, m=2, n=13, u=4, v=5)
    assert h.source == Z2 and h.matrix.row_lists() == [[1]]
    with pytest.raises(BadBezoutError):
        hom("ttilde", 3, m=2, n=9, u=1, v=1)
    with pytest.raises(OutOfRangeError):
        hom("ttilde", 8, m=2, n=9, u=4, v=7)


def test_ttilde_degree_one_threads_z():
    pinned = hom("ttilde", 1, m=2, n=9, u=4, v=7, z=1)
    assert pinned.matrix.row_lists() == [[1, 1]]
    both = hom("ttilde", 1, m=2, n=9, u=4, v=7)
    assert isinstance(both, ZDependent)
    assert both.z0.matrix.row_lists() == [[0, 1]]
    assert both.z1.matrix.row_lists() == [[1, 1]]
    for _, h in both.candidates:
        assert onto(h)


def test_j_degree_two_is_invertible_for_both_z():
    both = hom("J", 2, m=2, n=9)
    assert isinstance(both, ZDependent)
    assert both.z0.matrix.row_lists() == [[1, 0], [0, 1]]
    assert both.z1.matrix.row_lists() == [[1, 0], [1, 1]]
    for _, h in both.candidates:
        assert is_isomorphism(h)


def test_j_unit_determinant_in_free_degrees():
    # classifying degree 4 mod 8 gives the 2x2 integer matrix with unit determinant
    for m, n in [(2, 9), (3, 11), (4, 13)]:
        from sympdec.lifting import bezout_uv
        w = bezout_uv(m, n)
        h = hom("J", 4, m=m, n=n, u=w.u, v=w.v)
        ((a, b), (c, d)) = h.matrix.row_lists()
        det = a * d - b * c
        assert det == n * w.v - 4 * w.u * m * m
        assert det in (1, -1)
        assert is_isomorphism(h)


def test_j_is_isomorphism_away_from_multiples_of_eight():
    for m, n in [(2, 9), (3, 11)]:
        for i in range(1, min(4 * m + 3, n)):
            if i % 8 == 0:
                continue
            for z in (0, 1):
                assert is_isomorphism(hom("J", i, m=m, n=n, z=z)), (m, n, i, z)


def test_j_fails_at_multiples_of_eight():
    assert not is_isomorphism(hom("J", 8, m=2, n=9, z=0))


def test_j_input_validation():
    with pytest.raises(EvenNError):
        hom("J", 4, m=3, n=8)
    with pytest.raises(NotCoprimeError):
        hom("J", 4, m=3, n=9)
    with pytest.raises(OutOfRangeError):
        hom("J", 9, m=2, n=9)
    with pytest.raises(OutOfRangeError):
        hom("J", 0, m=2, n=9)


def test_hom_takes_exactly_the_entry_params():
    with pytest.raises(TypeError, match="doubling takes n"):
        hom("doubling", 3, n=9, m=2)            # a name the entry does not take
    with pytest.raises(TypeError, match="r-fold takes n, r"):
        hom("r-fold", 3, n=2)                   # a required name missing
    with pytest.raises(TypeError):
        hom("J", 4, n=9)
    # optional names may be left out or passed as None; a required one passed
    # as None counts as left out
    assert hom("J", 4, m=2, n=9, u=None, v=None, z=None) == hom("J", 4, m=2, n=9)
    with pytest.raises(TypeError, match="doubling takes n"):
        hom("doubling", 3, n=None)
    with pytest.raises(TypeError, match="J takes m, n, u, v, z"):
        hom("J", 3, m=0, n=None)


def test_lone_u_or_v_is_replaced_by_the_witness():
    # the witness of (2, 9) is u = 4, v = 7; a lone u or v is not half-used
    witness = hom("J", 4, m=2, n=9)
    assert hom("J", 4, m=2, n=9, u=5) == witness
    assert hom("J", 4, m=2, n=9, v=5) == witness
    assert hom("J", 4, m=2, n=9, u=4, v=7) == witness
    assert hom("ttilde", 3, m=2, n=9, u=1) == hom("ttilde", 3, m=2, n=9, u=4, v=7)


def test_every_emitted_hom_is_well_defined():
    # construction would raise if any matrix violated the invariant
    for m in (1, 2, 3):
        for n in (5, 9, 11):
            for i in range(0, min(4 * m + 2, n - 1)):
                hom("tensor-sp-o", i, m=m, n=n)
                hom("tensor-quotient", i, m=m, n=n)
                hom("direct-sum", i, m=m, n=n)
                hom("r-fold", i, n=n, r=3)
                hom("doubling", i, n=n)


def _period_params(op):
    """Parameter sets of an entry over a grid: m <= 6, 3 <= n < 50, r <= 3,
    u and v from the Bezout witness, each z."""
    names = FORMULAS[op].params
    values = {"m": range(1, 7), "n": range(3, 50), "r": range(1, 4),
              "u": (None,), "v": (None,), "z": (0, 1)}
    for combo in product(*(values[q] for q in names)):
        yield dict(zip(names, combo))


def _window_maps(op, params):
    """The map at each degree of the entry's window.

    The window is the run of degrees from the entry's bottom degree up to
    its first refused one.  None when the parameters fail a precondition of
    the entry; a part refusing a degree inside the window is an error.
    """
    maps, i = {}, FORMULAS[op].shift
    while True:
        try:
            h = hom(op, i, **params)
        except OutOfRangeError as exc:
            if str(exc).startswith("violated bound"):
                return maps
            raise
        except (SympdecError, ValueError):
            return None
        maps[i] = h
        i += 1


@pytest.mark.parametrize("op", tuple(FORMULAS))
def test_every_entry_is_eight_periodic_from_its_declared_degree(op):
    f = FORMULAS[op]
    start, checked, tight = f.period_from, 0, f.period_from <= f.shift
    for params in _period_params(op):
        maps = _window_maps(op, params)
        if maps is None:
            continue
        for i in maps:
            if i + 8 in maps and i >= start:
                assert maps[i] == maps[i + 8], (op, params, i)
                checked += 1
        # the start is tight: one degree lower, some map does not repeat
        if start - 1 in maps and start + 7 in maps and maps[start - 1] != maps[start + 7]:
            tight = True
    assert checked >= 50 and tight, (op, checked)


def test_source_names_follow_generators():
    # pi_4 O(9) = 0 has no generator, so it names none
    body = describe("tensor-sp-o", 4, m=2, n=9)
    assert body["source_names"] == ["pi_4 Sp(2)"]
    body = describe("tensor-sp-o", 3, m=2, n=9)
    assert body["source_names"] == ["pi_3 Sp(2)", "pi_3 O(9)"]
    assert body["target_names"] == ["pi_3 Sp(18)"]
    # J at degree 2 is z-dependent; both candidates carry the names and the bound
    body = describe("J", 2, m=2, n=9)
    assert body["z_dependent"] and set(body["candidates"]) == {"0", "1"}
    for z, h in hom("J", 2, m=2, n=9).candidates:
        c = body["candidates"][str(z)]
        assert c["source_names"] == ["pi_2 B PSp(2)", "pi_2 B SO(9)"]
        assert c["target_names"] == ["pi_2 B PSp(18)", "pi_2 B SO(127)"]
        assert c["valid_range"] == "0 < i < min(4m+3, n) = 9"
        assert c["matrix"] == h.matrix.row_lists()
        assert f"z = {z}" in c["provenance"]


# -- runs of degrees from one binding -------------------------------------------

def _run_params(op):
    """Parameter sets of an entry over a small grid: m <= 4, 3 <= n <= 17,
    r <= 3; u and v defaulted, given as the witness, and given as another
    solution (u + n, v + 4m^2); z unset and pinned to each value."""
    names = FORMULAS[op].params
    values = {"m": range(1, 5), "n": range(3, 18), "r": range(0, 4)}
    for combo in product(*(values[q] for q in names if q in values)):
        p = dict(zip((q for q in names if q in values), combo))
        if "u" not in names:
            yield p
            continue
        try:
            w = bezout_uv(p["m"], p["n"])
        except (SympdecError, ValueError):
            yield p
            continue
        for uv in ({}, {"u": w.u, "v": w.v}, {"u": w.u + w.n, "v": w.v + 4 * w.m * w.m}):
            for z in ({}, {"z": 0}, {"z": 1}):
                yield {**p, **uv, **z}


def _error(build):
    with pytest.raises((SympdecError, ValueError, TypeError)) as exc:
        build()
    return type(exc.value), str(exc.value)


def test_the_build_reads_each_part_as_the_public_table_answers():
    """_groups, which reads a table's case function, against pi_table's
    answer, for every part of every entry: the same group, or an error that
    carries the answer's provenance."""
    kinds = set()
    for op, f in FORMULAS.items():
        parts = zip(f.sources + f.targets, _PLANS[op][2] + _PLANS[op][3])
        for (family, _), (case, name, size, _) in parts:
            # 3, 5 and 7 reach the torsion-only orthogonal degrees
            for k in (1, 2, 3, 4, 5, 7, 9, 16):
                for degree in range(4 * k + 6):
                    answer = pi_table(family, degree, k)
                    kinds.add((family, answer.kind))
                    if answer.kind == GROUP:
                        assert _groups([(case, name, size, k)], degree) == [answer.group]
                        continue
                    with pytest.raises(OutOfRangeError) as exc:
                        _groups([(case, name, size, k)], degree)
                    assert answer.provenance in str(exc.value), (op, family, k, degree)
    assert kinds >= {(family, kind) for family in ("sp", "psp", "so", "o")
                     for kind in (GROUP, OUT_OF_RANGE)}
    assert {("so", TORSION_ONLY), ("o", TORSION_ONLY)} <= kinds


@pytest.mark.parametrize("op", tuple(FORMULAS))
def test_a_run_builds_what_each_degree_builds_alone(op):
    runs = 0
    for params in _run_params(op):
        maps = _window_maps(op, params)
        if not maps:
            continue
        # the window up, then down again: no degree may see another's groups
        degrees = [*maps, *reversed(maps)]
        assert list(homs(op, degrees, **params)) == [(i, maps[i]) for i in degrees], params
        runs += 1
    assert runs >= 4, (op, runs)


@pytest.mark.parametrize("op", tuple(FORMULAS))
def test_a_run_raises_what_the_single_build_raises(op):
    raised, bottom = 0, FORMULAS[op].shift
    for params in _run_params(op):
        maps = _window_maps(op, params)
        if not maps:
            # a precondition fails: the run refuses as its first degree does
            want = _error(lambda: hom(op, bottom, **params))
            assert _error(lambda: list(homs(op, [bottom, bottom + 1], **params))) == want
            raised += 1
            continue
        # the run yields the window, then refuses the first degree past it
        top = bottom + len(maps)
        run = homs(op, [*maps, top, bottom], **params)
        assert [next(run) for _ in maps] == list(maps.items())
        assert _error(lambda: next(run)) == _error(lambda: hom(op, top, **params))
    assert raised or op in ("direct-sum", "doubling", "square-tensor", "tensor-sp-o"), op
    # a name the entry does not take, or a required one left out
    for bad in ({"q": 1}, {q: None for q in FORMULAS[op].params}):
        want = _error(lambda: hom(op, bottom, **bad))
        assert want[0] is TypeError
        assert _error(lambda: list(homs(op, [bottom], **bad))) == want


def test_the_window_is_checked_before_the_checks_listed_after_it():
    # J lists its Bezout check after the window, r-fold its r >= 1 check before
    for build in (lambda: hom("J", 99, m=2, n=9, u=1, v=1),
                  lambda: list(homs("J", [99], m=2, n=9, u=1, v=1))):
        with pytest.raises(OutOfRangeError, match=r"^violated bound: 0 < i < min\(4m\+3, n\) = 9$"):
            build()
    for build in (lambda: hom("J", 3, m=2, n=9, u=1, v=1),
                  lambda: list(homs("J", [3], m=2, n=9, u=1, v=1))):
        with pytest.raises(BadBezoutError):
            build()
    for build in (lambda: hom("r-fold", 99, n=2, r=0),
                  lambda: list(homs("r-fold", [99], n=2, r=0))):
        with pytest.raises(OutOfRangeError, match=r"^violated bound: r >= 1$"):
            build()


def test_a_run_runs_post_window_checks_at_its_first_degree():
    # (1, 1) is no Bezout witness of (2, 9), and degree 3 lies inside J's window
    run = homs("J", [3, 4, 5], m=2, n=9, u=1, v=1)
    with pytest.raises(BadBezoutError):
        next(run)
    # the witness passes them at the first degree, and every degree is built
    w = bezout_uv(2, 9)
    assert [i for i, _ in homs("J", [3, 4, 5], m=2, n=9, u=w.u, v=w.v)] == [3, 4, 5]


_RELATIONS = {"<": operator.lt, ">=": operator.ge}


def _holds(i, clause):
    """Whether degree i meets one clause of a window bound, as the errors print
    it: "i >= 0", "i < n-1 = 8" or "0 < i < min(4m+3, n) = 9"; a named limit
    takes the value after "=", a numeral its own."""
    text, _, limit = clause.partition(" = ")
    terms = re.split(r" (<|>=) ", text)
    values = [i if t == "i" else int(t) if t.isdigit() else int(limit) for t in terms[::2]]
    return all(_RELATIONS[rel](a, b) for a, rel, b in zip(values, terms[1::2], values[1:]))


def test_a_negative_degree_is_refused_by_a_bound_it_violates():
    # the reader itself: -1 meets an upper bound, and only the stated lower ones refuse it
    assert _holds(-1, "i < n-1 = 8") and _holds(-1, "i < min(4m+2, n-1) = 8")
    assert not _holds(-1, "i >= 0") and not _holds(-1, "0 < i < min(4m+3, n) = 9")
    sizes = {"m": 2, "n": 9, "r": 3}
    for op in FORMULAS:
        params = {q: sizes[q] for q in REQUIRED[op]}
        for build in (lambda: hom(op, -1, **params), lambda: list(homs(op, [-1], **params))):
            with pytest.raises(OutOfRangeError) as exc:
                build()
            text = str(exc.value)
            assert text.startswith("violated bound: "), (op, text)
            clauses = text.removeprefix("violated bound: ").split(" and ")
            assert not all(_holds(-1, c) for c in clauses), (op, text)


# -- the build's one checking pass against the public constructors -------------

def _public(sources, targets, rows) -> AbHom:
    """The map a rule's rows give, stated through the public constructors:
    each coefficient repeated over its parts' generators."""
    data = [c for t, row in zip(targets, rows) for _ in t.factors
            for s, c in zip(sources, row) for _ in s.factors]
    source = FgAbGroup([a for s in sources for a in s.factors])
    target = FgAbGroup([t for g in targets for t in g.factors])
    return AbHom(source, target, IntMatrix(target.ngens, source.ngens, data))


@pytest.mark.parametrize("op", tuple(FORMULAS))
def test_rule_builds_match_the_public_constructors(op):
    """Over a grid of params and every degree of each window: the build's map
    equals the public one, field by field; a float coefficient raises
    TypeError and a short row ShapeMismatchError on both paths, and an
    ill-defined coefficient MalformedHomError with the same text."""
    sizes = {"m": (1, 2, 3), "n": (3, 4, 5, 9, 11, 17), "r": (1, 3)}
    names = REQUIRED[op]
    compared = floats = 0
    for combo in product(*(sizes[q] for q in names)):
        params = dict(zip(names, combo))
        maps = _window_maps(op, params)
        if maps is None:
            continue
        for i in maps:
            _, sources, targets, rules = _build(_bind(op, params), i)
            for rows, _, _ in rules:
                h, want = _hom(sources, targets, rows), _public(sources, targets, rows)
                assert h == want and hash(h) == hash(want), (op, params, i)
                assert (h.source, h.target) == (want.source, want.target)
                assert h.matrix.row_lists() == want.matrix.row_lists()
                compared += 1
                # a float on each entry the coefficients reach, one at a time
                for r, t in enumerate(targets):
                    for c, s in enumerate(sources):
                        if not (t.factors and s.factors):
                            continue
                        bad = [list(row) for row in rows]
                        bad[r][c] += 0.5
                        assert _error(lambda: _hom(sources, targets, bad))[0] is TypeError
                        assert _error(lambda: _public(sources, targets, bad))[0] is TypeError
                        floats += 1
    assert compared >= 20 and floats >= 3, (op, compared, floats)


def test_the_build_refuses_what_the_public_constructors_refuse():
    cases = [([Z2, Z], [Z], [(1, 0)]),                 # Z/2 onto a free generator
             ([Z, Z2], [Z2, Z], [(1, 1), (0, 3)]),     # the second column is ill-defined twice
             ([Z2], [FgAbGroup((4,))], [(1,)]),        # order 2 with an image of order 4
             ([Z, Z2, Z2], [Z2, Z], [(5, 3, 1), (0, 0, 7)])]
    for sources, targets, rows in cases:
        want = _error(lambda: _public(sources, targets, rows))
        assert want[0] is MalformedHomError
        assert _error(lambda: _hom(sources, targets, rows)) == want
    # a row one coefficient short: the entries the public matrix would miss
    short = _error(lambda: _hom([Z, Z], [Z], [(1,)]))
    assert short == (ShapeMismatchError, "expected 2 entries, got 1")
    with pytest.raises(ShapeMismatchError, match="^expected 2 entries, got 1$"):
        IntMatrix(1, 2, [1])
