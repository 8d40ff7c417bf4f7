#!/usr/bin/env python3
"""Time the induced-map layer on the connectivity certificate's run of J.

Usage: PYTHONPATH=src python benchmarks/bench_induced.py [--m 2000 40] [--reps 60]

For each m, n is the smallest odd number above 4m+3 coprime to m, so the
certificate reaches the top of the symplectic window, as in the
decide-large workload of bench_e2e.  The run is the certificate's list of
representative degrees (lifting._certificate_degrees), with the Bezout
witness of (m, n).  Printed, in microseconds of thread time per map
except where noted, best of --reps passes over the run:
- one: a one-degree induced.homs("J", [i], ...) run per degree, which
  binds the params each time, as a single `induced` query does;
- homs: one induced.homs("J", degrees, ...) run, which binds them once and
  builds one checked AbHom per distinct key (the part groups and the rule's
  rows) of the run, as the certificate does;
- built: the AbHom constructions of that run, counted by a wrapper put in
  place of induced._checked, the checking pass every AbHom goes through,
  for one untimed run;
- iso: induced.is_isomorphism on each distinct map of the run, counting
  both z candidates of the z-dependent degree;
- snf: intmatrix.smith_normal_form of each distinct map's presentation
  (induced._presentation_matrix), the part of iso that reduces;
- cert: one lifting._certify_pairing for the run's witness, the whole
  certificate (binding, builds, memo and verdicts), per call, not per map;
- lookup: per build-path table lookup (induced._groups), one for each part
  of J at each degree of the run; the lookups column counts them.
Before timing, it checks that the run gives the maps the one-degree runs
give.  Nothing here multiplies an ExactMatrix, so the timings do not depend
on the kernel backend.
"""

import argparse
import time

from sympdec import induced
from sympdec.induced import (FORMULAS, ZDependent, _bind, _groups, _presentation_matrix, homs,
                             is_isomorphism)
from sympdec.intmatrix import smith_normal_form
from sympdec.lifting import _certificate_degrees, _certify_pairing, bezout_uv


def _coprime_odd_above(m: int, low: int) -> int:
    n = low + 1 | 1
    while any(n % p == 0 and m % p == 0 for p in range(2, m + 1)):
        n += 2
    return n


def _best_us(fn, count: int, reps: int) -> float:
    """Thread time per item of fn(), which handles count items; best of reps."""
    best = float("inf")
    for _ in range(reps):
        start = time.thread_time()
        fn()
        best = min(best, time.thread_time() - start)
    return best / count * 1e6


def _constructions(degrees, params) -> int:
    """The AbHom constructions of one homs("J", degrees, **params) run."""
    count = 0
    real = induced._checked

    def counting(*args):
        nonlocal count
        count += 1
        return real(*args)

    induced._checked = counting
    try:
        for _ in homs("J", degrees, **params):
            pass
    finally:
        induced._checked = real
    return count


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--m", type=int, nargs="+", default=[2000, 40])
    ap.add_argument("--reps", type=int, default=60)
    args = ap.parse_args()

    print(f"{'m':>6}{'n':>7}{'maps':>6}{'one':>9}{'homs':>9}{'built':>7}{'distinct':>10}{'iso':>9}"
          f"{'snf':>9}{'lookups':>9}{'lookup':>9}{'cert':>9}"
          f"   (us each, thread time, best of {args.reps})")
    for m in args.m:
        n = _coprime_odd_above(m, 4 * m + 3)
        w = bezout_uv(m, n)
        params = {"m": m, "n": n, "u": w.u, "v": w.v}
        degrees = _certificate_degrees(m, n)
        run = list(homs("J", degrees, **params))
        if run != [pair for i in degrees for pair in homs("J", [i], **params)]:
            raise SystemExit(f"a run and its one-degree runs build different maps "
                             f"for (m, n) = ({m}, {n})")
        distinct = list(dict.fromkeys(c for _, h in run for _, c in
                                      (h.candidates if isinstance(h, ZDependent) else [(0, h)])))

        def per_degree():
            for i in degrees:
                for _ in homs("J", [i], **params):
                    pass

        def one_binding():
            for _ in homs("J", degrees, **params):
                pass

        def isos():
            for h in distinct:
                is_isomorphism(h)

        presentations = [_presentation_matrix(h) for h in distinct]

        def snfs():
            for p in presentations:
                smith_normal_form(p)

        # the parts each of the run's builds looks up, source parts before
        # target parts, as _build reads them
        binding, shift = _bind("J", params), FORMULAS["J"].shift
        parts = binding[4] + binding[5]
        count = len(parts) * len(degrees)

        def table_lookups():
            for i in degrees:
                _groups(parts, i - shift)

        row = (_best_us(per_degree, len(degrees), args.reps),
               _best_us(one_binding, len(degrees), args.reps),
               _best_us(isos, len(distinct), args.reps),
               _best_us(snfs, len(distinct), args.reps),
               _best_us(table_lookups, count, args.reps),
               _best_us(lambda: _certify_pairing(w), 1, args.reps))
        print(f"{m:>6}{n:>7}{len(degrees):>6}{row[0]:>9.1f}{row[1]:>9.1f}"
              f"{_constructions(degrees, params):>7}{len(distinct):>10}{row[2]:>9.1f}"
              f"{row[3]:>9.1f}{count:>9}{row[4]:>9.2f}{row[5]:>9.1f}")


if __name__ == "__main__":
    main()
