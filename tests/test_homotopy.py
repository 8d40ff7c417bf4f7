import json
import sys
from math import factorial

import pytest

from sympdec import cli
from sympdec.abgroup import FgAbGroup
from sympdec.homotopy import GROUP, OUT_OF_RANGE, TORSION_ONLY, pi_table

from oracles import tabulated

Z = FgAbGroup((0,))
Z2 = FgAbGroup((2,))
T = FgAbGroup(())


def test_sp_stable_values():
    for n in (1, 2, 3):
        assert pi_table("sp", 3, n).group == Z
    assert pi_table("sp", 4, 2).group == Z2
    assert pi_table("sp", 5, 2).group == Z2
    for i in (0, 1, 2, 6):
        assert pi_table("sp", i, 2).group == T
    assert pi_table("sp", 7, 2).group == Z
    assert pi_table("sp", 11, 3).group == Z


def test_sp_boundary_parity():
    assert pi_table("sp", 4, 1).group == Z2
    assert pi_table("sp", 5, 1).group == Z2
    assert pi_table("sp", 8, 2).group == T
    assert pi_table("sp", 9, 2).group == T
    assert pi_table("sp", 12, 3).group == Z2
    for n in range(1, 8):
        assert pi_table("sp", 4 * n, n).group == pi_table("sp", 4 * n + 1, n).group


def test_sp_first_unstable():
    assert pi_table("sp", 6, 1).group == FgAbGroup((12,))
    assert pi_table("sp", 10, 2).group == FgAbGroup((factorial(5),))
    assert pi_table("sp", 14, 3).group == FgAbGroup((factorial(7) * 2,))


def test_sp_first_unstable_order_refused_past_the_digit_limit():
    # 778 is the largest n whose order (2n+1)!(*2) prints at the default 4300 digits
    assert len(str(pi_table("sp", 4 * 778 + 2, 778).group.factors[0])) <= 4300
    for n in (779, 780, 10**8, 10**18):
        for family in ("sp", "psp"):
            with pytest.raises(ValueError, match="more than 4300 digits"):
                pi_table(family, 4 * n + 2, n)
        with pytest.raises(ValueError, match="4300 digits"):
            pi_table("sp", 4 * n + 3, n, "classifying")
    old = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(1000)
        with pytest.raises(ValueError, match="more than 1000 digits.*n <= 224 prints"):
            pi_table("sp", 4 * 225 + 2, 225)
        assert len(str(pi_table("sp", 4 * 224 + 2, 224).group.factors[0])) <= 1000
        sys.set_int_max_str_digits(0)   # unlimited conversion still refuses at 4300
        with pytest.raises(ValueError, match="more than 4300 digits"):
            pi_table("sp", 4 * 779 + 2, 779)
    finally:
        sys.set_int_max_str_digits(old)


def test_sp_out_of_range():
    assert pi_table("sp", 7, 1).kind == OUT_OF_RANGE
    assert pi_table("sp", 100, 3).kind == OUT_OF_RANGE


def test_sp_eight_periodicity_in_stable_range():
    for i in range(0, 24):
        assert pi_table("sp", i, 10).group == pi_table("sp", i + 8, 10).group


def test_psp():
    assert pi_table("psp", 0, 2).group == T
    for n in (1, 4, 9):
        assert pi_table("psp", 1, n).group == Z2
    for i in range(2, 12):
        assert pi_table("psp", i, 3).group == pi_table("sp", i, 3).group


def test_so_table():
    assert pi_table("so", 3, 9).group == Z
    assert pi_table("so", 1, 9).group == Z2
    assert pi_table("so", 8, 11).group == Z2
    assert pi_table("so", 2, 9).group == T
    assert pi_table("so", 0, 9).group == T
    assert pi_table("o", 0, 9).group == Z2
    assert pi_table("o", 5, 9).group == pi_table("so", 5, 9).group


def test_so_torsion_markers():
    assert pi_table("so", 7, 3).kind == TORSION_ONLY
    assert pi_table("so", 11, 5).kind == TORSION_ONLY
    assert pi_table("so", 15, 7).kind == TORSION_ONLY
    assert pi_table("so", 7, 5).kind == OUT_OF_RANGE
    assert pi_table("so", 3, 3).kind == OUT_OF_RANGE


def test_u_gl_table():
    assert pi_table("u", 3, 4).group == Z
    assert pi_table("u", 2, 4).group == T
    assert pi_table("u", 7, 8).group == Z
    assert pi_table("u", 8, 4).kind == OUT_OF_RANGE
    assert pi_table("gl", 5, 4).group == Z


def test_classifying_shift():
    assert pi_table("psp", 2, 4, "classifying").group == Z2
    assert pi_table("so", 1, 5, "classifying").group == T
    assert pi_table("sp", 4, 2, "classifying").group == pi_table("sp", 3, 2).group
    for fam in ("sp", "psp", "so", "o", "u"):
        for i in range(1, 8):
            inner = pi_table(fam, i - 1, 9)
            outer = pi_table(fam, i, 9, "classifying")
            assert outer.kind == inner.kind
            if inner.kind == GROUP:
                assert outer.group == inner.group


def test_classifying_recorded_constant():
    # only the projective symplectic family carries the recorded value
    for m in (1, 2, 5):
        assert pi_table("psp", 4 * m + 4, m, "classifying").group == Z2
    assert pi_table("sp", 8, 1, "classifying").kind == OUT_OF_RANGE


def test_tables_match_the_oracle():
    """Every family, both spaces, -1 <= n <= 12 and 0 <= i <= max(4n+5, 9),
    against the tables stated independently in oracles.tabulated; the sizes
    below 1 are refused at every degree, the recorded constants' included."""
    kinds = set()
    for family in ("sp", "psp", "so", "o", "u", "gl"):
        for space in ("group", "classifying"):
            for n in range(-1, 13):
                for i in range(max(4 * n + 6, 10)):
                    expected = tabulated(family, i, n, space)
                    if expected is None:
                        with pytest.raises(ValueError):
                            pi_table(family, i, n, space)
                        continue
                    answer = pi_table(family, i, n, space)
                    kinds.add(answer.kind)
                    got = answer.group.factors if answer.kind == GROUP else answer.group
                    assert (answer.kind, got) == expected, (family, i, n, space)
    assert kinds == {GROUP, TORSION_ONLY, OUT_OF_RANGE}


def test_provenance_is_always_present():
    for query in (("sp", 3, 1), ("sp", 99, 1), ("so", 7, 3), ("psp", 8, 1, "classifying")):
        assert pi_table(*query).provenance


def _pi_body(capsys, family, i, n):
    assert cli.main(["pi", "--family", family, "--n", str(n), "--i", str(i)]) == 0
    return json.loads(capsys.readouterr().out)


def test_json_shapes(capsys):
    assert _pi_body(capsys, "sp", 6, 1) == {
        "family": "sp", "n": 1, "i": 6, "space": "group",
        "group": [12],
        "provenance": pi_table("sp", 6, 1).provenance,
    }
    assert _pi_body(capsys, "sp", 1, 1)["group"] == []
    assert _pi_body(capsys, "so", 7, 3)["group"] == "torsion-only"
    assert _pi_body(capsys, "sp", 50, 1)["group"] == "out-of-range"


def test_bad_queries():
    families = "('sp', 'psp', 'so', 'o', 'u', 'gl')"
    for query, text in [
        (("sp", -1, 2), "degree must be nonnegative"),
        (("sp", 3, 0), "size parameter must be positive"),
        (("nope", 3, 2), f"unknown family 'nope'; expected one of {families}"),
        (("sp", 0, 2, "classifying"), "classifying-space degrees start at 1"),
        (("sp", 3, 2, "fibre"), "unknown space 'fibre'"),
        # precedence: the space, then the family, then the degree, then the size
        (("nope", 3, 2, "fibre"), "unknown space 'fibre'"),
        (("nope", 0, 2, "classifying"), f"unknown family 'nope'; expected one of {families}"),
        (("sp", 0, 0, "classifying"), "classifying-space degrees start at 1"),
        (("sp", -1, 0), "degree must be nonnegative"),
        (("psp", 3, 0, "classifying"), "size parameter must be positive"),
    ]:
        with pytest.raises(ValueError) as exc:
            pi_table(*query)
        assert str(exc.value) == text, query
