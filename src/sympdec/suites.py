"""Batch verification suites behind the CLI verify command.

Every sample derives its randomness from (seed, suite, case label, index):
its draws come from SHAKE-256 of that case label, by rejection sampling
(groups._Stream), so reruns and parallel execution produce identical
reports and every failure record replays from its recorded inputs.
run_suite holds matrix sizes to the exact-arithmetic guard
2 * max_m * max_n * max_r <= 64.
"""

from __future__ import annotations

import time
from math import gcd
from typing import NamedTuple

from sympdec import groups
from sympdec.abgroup import FgAbGroup
from sympdec.errors import BoundsTooLargeError
from sympdec.homotopy import pi_table
from sympdec.induced import (AbHom, ZDependent, bezout_uv, compose, diagonal_hom, hom, homs,
                             is_isomorphism)
from sympdec.intmatrix import IntMatrix
from sympdec.lifting import connectivity_j
from sympdec.matrix import ExactMatrix

SIZE_GUARD = 64


class Bounds(NamedTuple):
    max_m: int = 2
    max_n: int = 3
    max_r: int = 2

    def check(self):
        if min(self.max_m, self.max_n, self.max_r) < 1:
            raise BoundsTooLargeError("bounds must be at least 1")
        if 2 * self.max_m * self.max_n * self.max_r > SIZE_GUARD:
            raise BoundsTooLargeError(
                f"2*max_m*max_n*max_r = {2 * self.max_m * self.max_n * self.max_r} "
                f"exceeds the size guard {SIZE_GUARD}"
            )


class VerifyReport:
    """One suite's record: its case count, the inputs of each failing case,
    and the wall time run_suite took for it."""

    __slots__ = ("suite", "cases", "failures", "elapsed")

    def __init__(self, suite: str):
        self.suite = suite
        self.cases = 0
        self.failures: list[dict] = []
        self.elapsed = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def record(self, passed: bool, **inputs):
        self.cases += 1
        if not passed:
            self.failures.append(inputs)


def _case_seed(seed, suite: str, label: str, k: int) -> str:
    return f"{seed}:{suite}:{label}:{k}"


def run_closure(bounds: Bounds, samples: int, seed) -> VerifyReport:
    """Every construction lands in its claimed group, by exact predicate."""
    rep = VerifyReport("closure")

    def pick(label, k, lo, hi):
        return groups._Stream(_case_seed(seed, "closure", label, k)).randint(lo, hi)

    for k in range(samples):
        m = pick("ds:m", k, 1, bounds.max_m)
        n = pick("ds:n", k, 1, bounds.max_n)
        a = groups.random_sp(m, _case_seed(seed, "closure", "ds:A", k))
        b = groups.random_sp(n, _case_seed(seed, "closure", "ds:B", k))
        rep.record(groups.is_symplectic(groups.direct_sum_sp(a, b)),
                   op="direct-sum", k=k, m=m, n=n)

        n2 = pick("rf:n", k, 1, bounds.max_n)
        r = pick("rf:r", k, 1, bounds.max_r)
        a = groups.random_sp(n2, _case_seed(seed, "closure", "rf:A", k))
        rep.record(groups.is_symplectic(groups.r_fold_sum_sp(a, r)),
                   op="r-fold", k=k, n=n2, r=r)

        r = pick("sj:r", k, 1, bounds.max_r)
        j = pick("sj:j", k, 1, r)
        n3 = pick("sj:n", k, 1, bounds.max_n)
        a = groups.random_sp(n3, _case_seed(seed, "closure", "sj:A", k))
        rep.record(groups.is_symplectic(groups.stabilization_sj(a, j, r)),
                   op="stabilization-j", k=k, n=n3, r=r, j=j)

        n4 = pick("d:n", k, 1, 2 * bounds.max_n)
        b = groups.random_so(n4, _case_seed(seed, "closure", "d:A", k))
        rep.record(groups.is_symplectic(groups.doubling(b)),
                   op="doubling", k=k, n=n4)

        m5 = pick("to:m", k, 1, bounds.max_m)
        n5 = pick("to:n", k, 1, bounds.max_n)
        a = groups.random_sp(m5, _case_seed(seed, "closure", "to:A", k))
        b = groups.random_so(n5, _case_seed(seed, "closure", "to:B", k))
        rep.record(groups.is_symplectic(groups.tensor_sp_o(a, b)),
                   op="tensor-sp-o", k=k, m=m5, n=n5)

        m6 = pick("tt:m", k, 1, bounds.max_m)
        n6 = pick("tt:n", k, 1, bounds.max_n)
        a = groups.random_sp(m6, _case_seed(seed, "closure", "tt:A", k))
        b = groups.random_sp(n6, _case_seed(seed, "closure", "tt:B", k))
        rep.record(groups.is_orthogonal(groups.tensor_sp_sp(a, b)),
                   op="tensor-sp-sp", k=k, m=m6, n=n6)
    return rep


def run_lemmas(bounds: Bounds, samples: int, seed) -> VerifyReport:
    """Exact conjugation identities behind both stabilization lemmas."""
    rep = VerifyReport("lemmas")
    for n in range(1, bounds.max_n + 1):
        for r in range(2, bounds.max_r + 1):
            for j in range(1, r):
                for k in range(samples):
                    a = groups.random_sp(n, _case_seed(seed, "lemmas", f"sj:{n}:{r}:{j}", k))
                    rep.record(groups.verify_sj_conjugation(a, j, r),
                               op="sj-conjugation", n=n, r=r, j=j, k=k)
    for m in range(1, bounds.max_m + 1):
        for n in range(1, bounds.max_n + 1):
            for k in range(samples):
                a = groups.random_sp(m, _case_seed(seed, "lemmas", f"L:{m}:{n}", k))
                rep.record(groups.verify_l_conjugation(a, n),
                           op="L-conjugation", m=m, n=n, k=k)
    return rep


def run_mixed_product(bounds: Bounds, samples: int, seed) -> VerifyReport:
    """Kronecker mixed-product identity on random invertible matrices."""
    rep = VerifyReport("mixed-product")
    for k in range(samples):
        rng = groups._Stream(_case_seed(seed, "mixed-product", "pq", k))
        p = rng.randint(1, 2 * bounds.max_m)
        q = rng.randint(1, 2 * bounds.max_n)
        a = groups.random_gl(p, _case_seed(seed, "mixed-product", "A", k))
        b = groups.random_gl(q, _case_seed(seed, "mixed-product", "B", k))
        rep.record(groups.verify_mixed_product(a, b), op="mixed-product", k=k, p=p, q=q)
    return rep


def run_center(bounds: Bounds, samples: int, seed) -> VerifyReport:
    """The tensor product carries the center to the center."""
    rep = VerifyReport("center")
    for m in range(1, bounds.max_m + 1):
        for n in range(1, bounds.max_n + 1):
            neg = -ExactMatrix.identity(2 * m)
            got = groups.tensor_sp_o(neg, ExactMatrix.identity(n))
            rep.record(got == -ExactMatrix.identity(2 * m * n),
                       op="center-to-center", m=m, n=n)
            for k in range(samples):
                a = groups.random_sp(m, _case_seed(seed, "center", f"A:{m}:{n}", k))
                b = groups.random_so(n, _case_seed(seed, "center", f"B:{m}:{n}", k))
                rep.record(groups.tensor_sp_o(-a, b) == -groups.tensor_sp_o(a, b),
                           op="center-sign", m=m, n=n, k=k)
    return rep


def _tensor_decomposition_consistent(tensor: AbHom, left: AbHom, right: AbHom) -> bool:
    """tensor is [left | right]: left and right share a target, and tensor
    is the map on left's source beside right's whose rows are left's rows
    followed by right's, stated through the public constructors."""
    if left.target != right.target:
        return False
    rows = zip(left.matrix.row_lists(), right.matrix.row_lists())
    source = FgAbGroup.product(left.source, right.source)
    joined = IntMatrix(left.target.ngens, source.ngens, [x for a, b in rows for x in a + b])
    return tensor == AbHom(source, left.target, joined)


def _square_tensor_consistent(i: int, m: int) -> bool:
    """square tensor formula equals the two-variable formula composed with the diagonal."""
    square = hom("square-tensor", i, m=m)
    both = hom("tensor-sp-sp", i, m=m, n=m)
    return square == compose(both, diagonal_hom(pi_table("sp", i, m).group))


def run_formulas(bounds: Bounds, samples: int, seed) -> VerifyReport:
    """Structural consistency of the induced-map formula table."""
    del samples, seed  # the enumeration is exhaustive over the bounds
    rep = VerifyReport("formulas")
    top = max(bounds.max_m, bounds.max_n, 5)
    for m in range(1, top + 1):
        for n in range(1, top + 1):
            for i in range(0, min(4 * m + 2, n - 1)):
                # the n-fold sum on Sp(m) beside the m-fold sum of doubling on O(n)
                tensor = hom("tensor-sp-o", i, m=m, n=n)
                left = hom("r-fold", i, n=m, r=n)
                right = compose(hom("r-fold", i, n=n, r=m), hom("doubling", i, n=n))
                rep.record(_tensor_decomposition_consistent(tensor, left, right),
                           op="tensor-left-right", i=i, m=m, n=n)
        for i in range(0, min(4 * m + 2, 4 * m * m - 1)):
            rep.record(_square_tensor_consistent(i, m),
                       op="square-diagonal", i=i, m=m)
    return rep


def run_bezout(bounds: Bounds, samples: int, seed) -> VerifyReport:
    """Exhaustive witness identities over coprime m <= 5*max_m with odd n <= 33*max_n."""
    del samples, seed
    rep = VerifyReport("bezout")
    for m in range(1, 5 * bounds.max_m + 1):
        for n in range(3, 33 * bounds.max_n + 1, 2):
            if gcd(m, n) != 1:
                continue
            w = bezout_uv(m, n)
            identity = abs(w.v * n - 4 * w.u * m * m) == 1
            total = w.N == 4 * w.u * m * m + w.v * n
            again = bezout_uv(m, n)
            rep.record(identity and total and again == w and w.u > 0 and w.v > 0,
                       op="bezout", m=m, n=n, u=w.u, v=w.v, sign=w.sign, N=w.N)
    return rep


def run_j_iso(bounds: Bounds, samples: int, seed) -> VerifyReport:
    """Pairing map invertibility in every required degree, for both z values,
    over coprime 2 <= m <= max(2, 2*max_m) and odd 9 <= n <= max(9, 6*max_n).
    One record per (m, n, i, z); within an (m, n), a map that repeats across
    degrees reuses its verdict, as the certificate's does."""
    del samples, seed
    rep = VerifyReport("J-iso")
    for m in range(2, max(2, 2 * bounds.max_m) + 1):
        for n in range(9, max(9, 6 * bounds.max_n) + 1, 2):
            if gcd(m, n) != 1:
                continue
            w = bezout_uv(m, n)
            degrees = [i for i in range(1, min(4 * m + 3, n)) if i % 8]
            verdicts: dict[AbHom, bool] = {}   # one Smith normal form per distinct map
            for i, h in homs("J", degrees, m=m, n=n, u=w.u, v=w.v):
                # only degree 2 depends on z; elsewhere the one map stands for both
                for z, hz in h.candidates if isinstance(h, ZDependent) else ((0, h), (1, h)):
                    iso = verdicts.get(hz)
                    if iso is None:
                        iso = verdicts[hz] = is_isomorphism(hz)
                    rep.record(iso, op="J-iso", m=m, n=n, i=i, z=z)
            rep.record(connectivity_j(m, n) == 7, op="J-connectivity", m=m, n=n)
    return rep


_RUNNERS = {
    "closure": run_closure,
    "lemmas": run_lemmas,
    "mixed-product": run_mixed_product,
    "center": run_center,
    "formulas": run_formulas,
    "bezout": run_bezout,
    "J-iso": run_j_iso,
}
SUITES = (*_RUNNERS, "all")


def run_suite(name: str, bounds: Bounds, samples: int, seed) -> list[VerifyReport]:
    """Run one named suite (or all of them); returns one report per suite."""
    bounds.check()
    if samples < 1:
        raise ValueError("samples must be at least 1")
    names = list(_RUNNERS) if name == "all" else [name]
    if any(n not in _RUNNERS for n in names):
        raise ValueError(f"unknown suite {name!r}; expected one of {SUITES}")
    reports = []
    for n in names:
        start = time.perf_counter()
        rep = _RUNNERS[n](bounds, samples, seed)
        rep.elapsed = time.perf_counter() - start
        reports.append(rep)
    return reports
