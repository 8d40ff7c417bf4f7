"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line (run with -s or -rP to see them).  All checks are exact;
the only tolerances here are the wall-clock budgets."""

import time
from math import factorial, gcd

from sympdec.abgroup import FgAbGroup
from sympdec.groups import (
    is_orthogonal,
    random_sp,
    tensor_sp_sp,
    verify_l_conjugation,
    verify_sj_conjugation,
)
from sympdec.homotopy import pi_table
from sympdec.lifting import (
    connectivity_j,
    decide_azumaya,
    no_section_witness,
    postnikov_degree_check,
)
from sympdec.matrix import ExactMatrix
from sympdec.suites import Bounds, run_bezout, run_closure, run_formulas, run_j_iso

from oracles import change_of_basis_p, dense_gram, transpose

SEED = 20250811


def _report(num: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_closure_suite():
    start = time.perf_counter()
    rep = run_closure(Bounds(2, 3, 2), samples=100, seed=SEED)
    elapsed = time.perf_counter() - start
    ok = rep.ok and elapsed < 60
    _report(1, ok, f"closure: {rep.cases} constructions, {len(rep.failures)} failures, "
                   f"{elapsed:.1f}s (budget 60s)")


def test_criterion_2_conjugation_lemmas():
    failures = 0
    cases = 0
    for n in range(1, 7):
        for r in range(2, 7):
            if r * n > 6:
                continue
            for j in range(1, r):
                for k in range(25):
                    cases += 1
                    a = random_sp(n, seed=f"acc2:sj:{n}:{r}:{j}:{k}")
                    failures += not verify_sj_conjugation(a, j, r)
    for m in range(1, 7):
        for n in range(1, 7):
            if m * n > 6:
                continue
            for k in range(25):
                cases += 1
                a = random_sp(m, seed=f"acc2:L:{m}:{n}:{k}")
                failures += not verify_l_conjugation(a, n)
    _report(2, failures == 0, f"conjugation identities: {cases} exact checks, {failures} failures")


def test_criterion_3_orthonormalization():
    ok = True
    for m, n in [(1, 1), (1, 2), (2, 2)]:
        p = change_of_basis_p(m, n)
        g = dense_gram(m).kron(dense_gram(n))
        ok = ok and transpose(p) @ g @ p == ExactMatrix.identity(4 * m * n)
        for k in range(25):
            a = random_sp(m, seed=f"acc3:{m}:{n}:{k}:a")
            b = random_sp(n, seed=f"acc3:{m}:{n}:{k}:b")
            ok = ok and is_orthogonal(tensor_sp_sp(a, b))
    _report(3, ok, "orthonormal change of basis exact; tensor outputs orthogonal (75 samples)")


def test_criterion_4_homotopy_tables():
    checks = []
    for n in (1, 2, 3):
        checks.append(pi_table("sp", 3, n).group == FgAbGroup((0,)))
    checks.append(pi_table("sp", 6, 1).group == FgAbGroup((12,)))
    checks.append(pi_table("sp", 4, 1).group == FgAbGroup((2,)))
    checks.append(pi_table("sp", 5, 1).group == FgAbGroup((2,)))
    for n in range(1, 7):
        boundary = FgAbGroup((2,)) if n % 2 else FgAbGroup(())
        checks.append(pi_table("sp", 4 * n, n).group == boundary)
        checks.append(pi_table("sp", 4 * n + 1, n).group == boundary)
        order = factorial(2 * n + 1) * (2 if n % 2 else 1)
        checks.append(pi_table("sp", 4 * n + 2, n).group == FgAbGroup((order,)))
        checks.append(pi_table("psp", 1, n).group == FgAbGroup((2,)))
    _report(4, all(checks), f"homotopy tables: {len(checks)} exact values")


def test_criterion_5_formula_consistency():
    rep = run_formulas(Bounds(5, 5, 1), samples=1, seed=SEED)
    _report(5, rep.ok, f"formula consistency: {rep.cases} matrix identities, "
                       f"{len(rep.failures)} failures (m, n up to 5)")


def test_criterion_6_bezout_exhaustive():
    rep = run_bezout(Bounds(), samples=1, seed=SEED)     # m <= 10, n <= 99
    _report(6, rep.ok and rep.cases > 400,
            f"witness identities: {rep.cases} coprime pairs, {len(rep.failures)} failures")


def test_criterion_7_pairing_map_invertibility():
    rep = run_j_iso(Bounds(max_m=2, max_n=4), samples=1, seed=SEED)     # m <= 4, n <= 23
    conn_ok = all(
        connectivity_j(m, n) == 7
        for m in range(2, 5)
        for n in range(9, 20, 2)
        if gcd(m, n) == 1
    )
    _report(7, rep.ok and conn_ok,
            f"pairing map: {rep.cases} isomorphism checks across degrees and both z values")


def test_criterion_8_no_section_images():
    first = no_section_witness(2, 13)
    second = no_section_witness(4, 3)
    ok = (first is not None and first.degree == 12 and str(first.image) == "2Z"
          and second is not None and second.degree == 8 and str(second.image) == "3Z")
    _report(8, ok, "no-section images: degree 12 gives 2Z, degree 8 gives 3Z")


def test_criterion_9_decision_disjointness():
    # a decomposable verdict (dimension cap 7) must never coexist with an
    # obstruction applicable at that dimension: the high-n case puts the
    # obstruction at degree 4m+4 >= 12 > 7, and the small-n case needs
    # n <= 7, which already fails the decomposition hypotheses
    clashes = []
    for m in range(1, 51):
        for n in range(1, 51):
            if n % 2 == 0:
                continue
            witness = no_section_witness(m, n)
            if witness is None:
                continue
            covered = decide_azumaya(m, n, 7).verdict == "decomposable"
            if covered and witness.degree <= 7:
                clashes.append((m, n))
            if witness.case == "sphere_C" and covered:
                clashes.append((m, n))
    _report(9, not clashes, f"decision disjointness over m, n <= 50: {len(clashes)} clashes")


def test_criterion_10_obstruction_degrees():
    start = time.perf_counter()
    ok = True
    for n in range(3, 100, 2):
        ok = ok and postnikov_degree_check(1, n)["pass"]
        for i in range(11, n - 1, 8):   # 11 is the first i = 3 (mod 8) above 3 with i > 1
            for off in (2, 6, 7, 8):
                ok = ok and (i + off) % 4 != 0
        if n > 4:
            for off in (2, 6, 7, 8):
                ok = ok and (3 + off) % 4 != 0
    elapsed = time.perf_counter() - start
    _report(10, ok and elapsed < 1.0,
            f"obstruction degrees avoid 0 mod 4 for every odd n <= 99 ({elapsed:.3f}s, budget 1s)")
