#!/usr/bin/env python3
"""Time the structured constructions that `sympdec verify` builds its matrices with.

Usage: PYTHONPATH=src python benchmarks/bench_constructions.py [--seeds 8] [--reps 7]
       [--number 25]

Printed, in microseconds of thread time per call, best of --reps timings of
--number passes, each pass making one call per seeded input (seeds
0 .. --seeds - 1), at the shapes the verify suites use at their default
bounds (m <= 2, n <= 3, r <= 2):
- ExactMatrix.kron: A kron I_1 and A kron I_3 (verify lemmas), A kron B
  for B in SO(3) (tensor_sp_o) and in Sp(3) (tensor_sp_sp), and the three
  products of verify mixed-product at GL(4) and GL(6);
- stabilization_sj at Sp(1) in slot 2 of 2 and at Sp(3) in slot 1 and 2 of
  2, and r_fold_sum_sp of an Sp(2) element 3 times (verify lemmas, closure);
- both lemma gathers on their prebuilt inputs: s_j(A) at the index list of
  diag(P_j, P_j), and A^{(+n)} at that of the n,m shuffle;
- tensor_sp_sp at Sp(1) x Sp(1) and Sp(2) x Sp(3).
Inputs are drawn per seed from the seeded generators, as the suites draw
theirs, and carry their membership mark, so no predicate runs inside a
construction.  kron scales by a left entry that is not a rational integer
through kernels.matmul_num; every left factor here is an integer matrix, so
no row enters the kernel and one table covers both backends.
"""

import argparse
import time

from sympdec import groups
from sympdec.groups import (random_gl, random_so, random_sp, r_fold_sum_sp, stabilization_sj,
                            tensor_sp_sp)
from sympdec.matrix import ExactMatrix


def _cases(seeds: int):
    """(name, shape, calls) for each row: one zero-argument call per seed, inputs built once."""
    def draws(gen, k):
        return [gen(k, seed=f"bench:{k}:{s}") for s in range(seeds)]

    def sj_of(a, j):
        return stabilization_sj(a, j, 2)

    sp1, sp2, sp3 = draws(random_sp, 1), draws(random_sp, 2), draws(random_sp, 3)
    so3, gl4, gl6 = draws(random_so, 3), draws(random_gl, 4), draws(random_gl, 6)
    i1, i3, i4, i6 = (ExactMatrix.identity(k) for k in (1, 3, 4, 6))
    sj_idx = groups._doubled(groups._pj_cols(1, 3, 2))
    l_idx = groups._doubled(groups._pmn_cols(3, 2))
    sj = [stabilization_sj(a, 1, 2) for a in sp3]
    fold = [r_fold_sum_sp(a, 3) for a in sp2]
    return [
        ("kron", "Sp(2) x I_1", [lambda a=a: a.kron(i1) for a in sp2]),
        ("kron", "Sp(2) x I_3", [lambda a=a: a.kron(i3) for a in sp2]),
        ("kron", "Sp(2) x SO(3)", [lambda a=a, b=b: a.kron(b) for a, b in zip(sp2, so3)]),
        ("kron", "Sp(2) x Sp(3)", [lambda a=a, b=b: a.kron(b) for a, b in zip(sp2, sp3)]),
        ("kron", "GL(4) x I_6", [lambda a=a: a.kron(i6) for a in gl4]),
        ("kron", "I_4 x GL(6)", [lambda b=b: i4.kron(b) for b in gl6]),
        ("kron", "GL(4) x GL(6)", [lambda a=a, b=b: a.kron(b) for a, b in zip(gl4, gl6)]),
        ("stabilization_sj", "Sp(1), j=2, r=2", [lambda a=a: sj_of(a, 2) for a in sp1]),
        ("stabilization_sj", "Sp(3), j=1, r=2", [lambda a=a: sj_of(a, 1) for a in sp3]),
        ("stabilization_sj", "Sp(3), j=2, r=2", [lambda a=a: sj_of(a, 2) for a in sp3]),
        ("r_fold_sum_sp", "Sp(2), r=3", [lambda a=a: r_fold_sum_sp(a, 3) for a in sp2]),
        ("gather", "s_1(Sp(3)) at P_1", [lambda x=x: x.gather(sj_idx, sj_idx) for x in sj]),
        ("gather", "Sp(2)^(+3) at P_3,2", [lambda x=x: x.gather(l_idx, l_idx) for x in fold]),
        ("tensor_sp_sp", "Sp(1) x Sp(1)", [lambda a=a, b=b: tensor_sp_sp(a, b)
                                           for a, b in zip(sp1, sp1[1:] + sp1[:1])]),
        ("tensor_sp_sp", "Sp(2) x Sp(3)", [lambda a=a, b=b: tensor_sp_sp(a, b)
                                           for a, b in zip(sp2, sp3)]),
    ]


def _best_us(calls, number: int, reps: int) -> float:
    """Thread time per call over number passes through calls; best of reps."""
    best = float("inf")
    for _ in range(reps):
        start = time.thread_time()
        for _ in range(number):
            for call in calls:
                call()
        best = min(best, time.thread_time() - start)
    return best / (number * len(calls)) * 1e6


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=8)
    ap.add_argument("--reps", type=int, default=7)
    ap.add_argument("--number", type=int, default=25)
    args = ap.parse_args()

    print(f"{'call':<18}{'shape':<22}{'us/call':>10}   (thread time, {args.seeds} seeds, "
          f"{args.number} passes, best of {args.reps})")
    for name, shape, calls in _cases(args.seeds):
        print(f"{name:<18}{shape:<22}{_best_us(calls, args.number, args.reps):>10.1f}")


if __name__ == "__main__":
    main()
