import sys
from math import factorial

import pytest

from sympdec.abgroup import FgAbGroup
from sympdec.homotopy import (
    GROUP,
    OUT_OF_RANGE,
    TORSION_ONLY,
    pi_classifying,
    pi_o,
    pi_psp,
    pi_so,
    pi_sp,
    pi_table,
    pi_u_gl,
)

Z = FgAbGroup((0,))
Z2 = FgAbGroup((2,))
T = FgAbGroup(())


def test_sp_stable_values():
    for n in (1, 2, 3):
        assert pi_sp(3, n).group == Z
    assert pi_sp(4, 2).group == Z2
    assert pi_sp(5, 2).group == Z2
    for i in (0, 1, 2, 6):
        assert pi_sp(i, 2).group == T
    assert pi_sp(7, 2).group == Z
    assert pi_sp(11, 3).group == Z


def test_sp_boundary_parity():
    assert pi_sp(4, 1).group == Z2
    assert pi_sp(5, 1).group == Z2
    assert pi_sp(8, 2).group == T
    assert pi_sp(9, 2).group == T
    assert pi_sp(12, 3).group == Z2
    for n in range(1, 8):
        assert pi_sp(4 * n, n).group == pi_sp(4 * n + 1, n).group


def test_sp_first_unstable():
    assert pi_sp(6, 1).group == FgAbGroup((12,))
    assert pi_sp(10, 2).group == FgAbGroup((factorial(5),))
    assert pi_sp(14, 3).group == FgAbGroup((factorial(7) * 2,))


def test_sp_first_unstable_order_refused_past_the_digit_limit():
    # 778 is the largest n whose order (2n+1)!(*2) prints at the default 4300 digits
    assert len(str(pi_sp(4 * 778 + 2, 778).group.factors[0])) <= 4300
    for n in (779, 780, 10**8, 10**18):
        for table in (pi_sp, pi_psp):
            with pytest.raises(ValueError, match="more than 4300 digits"):
                table(4 * n + 2, n)
        with pytest.raises(ValueError, match="4300 digits"):
            pi_classifying("sp", 4 * n + 3, n)
    old = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(1000)
        with pytest.raises(ValueError, match="more than 1000 digits.*n <= 224 prints"):
            pi_sp(4 * 225 + 2, 225)
        assert len(str(pi_sp(4 * 224 + 2, 224).group.factors[0])) <= 1000
        sys.set_int_max_str_digits(0)   # unlimited conversion still refuses at 4300
        with pytest.raises(ValueError, match="more than 4300 digits"):
            pi_sp(4 * 779 + 2, 779)
    finally:
        sys.set_int_max_str_digits(old)


def test_sp_out_of_range():
    assert pi_sp(7, 1).kind == OUT_OF_RANGE
    assert pi_sp(100, 3).kind == OUT_OF_RANGE


def test_sp_eight_periodicity_in_stable_range():
    for i in range(0, 24):
        assert pi_sp(i, 10).group == pi_sp(i + 8, 10).group


def test_psp():
    assert pi_psp(0, 2).group == T
    for n in (1, 4, 9):
        assert pi_psp(1, n).group == Z2
    for i in range(2, 12):
        assert pi_psp(i, 3).group == pi_sp(i, 3).group


def test_so_table():
    assert pi_so(3, 9).group == Z
    assert pi_so(1, 9).group == Z2
    assert pi_so(8, 11).group == Z2
    assert pi_so(2, 9).group == T
    assert pi_so(0, 9).group == T
    assert pi_o(0, 9).group == Z2
    assert pi_o(5, 9).group == pi_so(5, 9).group


def test_so_torsion_markers():
    assert pi_so(7, 3).kind == TORSION_ONLY
    assert pi_so(11, 5).kind == TORSION_ONLY
    assert pi_so(15, 7).kind == TORSION_ONLY
    assert pi_so(7, 5).kind == OUT_OF_RANGE
    assert pi_so(3, 3).kind == OUT_OF_RANGE


def test_u_gl_table():
    assert pi_u_gl(3, 4).group == Z
    assert pi_u_gl(2, 4).group == T
    assert pi_u_gl(7, 8).group == Z
    assert pi_u_gl(8, 4).kind == OUT_OF_RANGE
    assert pi_table("gl", 5, 4).group == Z


def test_classifying_shift():
    assert pi_classifying("psp", 2, 4).group == Z2
    assert pi_classifying("so", 1, 5).group == T
    assert pi_classifying("sp", 4, 2).group == pi_sp(3, 2).group
    for fam in ("sp", "psp", "so", "o", "u"):
        for i in range(1, 8):
            inner = pi_table(fam, i - 1, 9)
            outer = pi_classifying(fam, i, 9)
            assert outer.kind == inner.kind
            if inner.kind == GROUP:
                assert outer.group == inner.group


def test_classifying_recorded_constant():
    # only the projective symplectic family carries the recorded value
    for m in (1, 2, 5):
        assert pi_classifying("psp", 4 * m + 4, m).group == Z2
    assert pi_classifying("sp", 8, 1).kind == OUT_OF_RANGE


def test_provenance_is_always_present():
    for ans in (pi_sp(3, 1), pi_sp(99, 1), pi_so(7, 3), pi_classifying("psp", 8, 1)):
        assert ans.provenance


def test_json_shapes():
    assert pi_sp(6, 1).to_json() == {
        "group": [12],
        "provenance": pi_sp(6, 1).provenance,
    }
    assert pi_so(7, 3).to_json()["group"] == "torsion-only"
    assert pi_sp(50, 1).to_json()["group"] == "out-of-range"


def test_bad_queries():
    with pytest.raises(ValueError):
        pi_sp(-1, 2)
    with pytest.raises(ValueError):
        pi_sp(3, 0)
    with pytest.raises(ValueError):
        pi_table("nope", 3, 2)
    with pytest.raises(ValueError):
        pi_classifying("sp", 0, 2)
