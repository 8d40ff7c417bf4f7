#!/usr/bin/env python3
"""Time the seeded random element generators and the stream they draw from.

Usage: PYTHONPATH=src python benchmarks/bench_random.py [--seeds 10] [--reps 5]

Printed, in microseconds of thread time per call, best of --reps passes,
each pass drawing seeds 0 .. --seeds - 1:
- random_sp at m in 1, 2, 3, 6, 16, 32 (matrices of size 2m);
- random_so at n in 1, 2, 3, 6, 12, 32, one rotation per coordinate plane;
- random_gl at k in 1, 4, 6;
- the seeded stream every draw reads (groups._rng): one construction from
  a label, timed over 1000 labels per seed, and one randrange(3) draw, the
  draw random_sp makes per generator, timed over 1000 draws from one stream
  per seed.
The small sizes are the ones `sympdec verify` draws at its default bounds;
random_so(32) and random_sp(16) are the largest it draws at the edge of its
size guard.  No generator calls kernels.matmul_num (each applies its
generators as row, column or plane operations on integer lists), so one
table covers both kernel backends.
"""

import argparse
import time

from sympdec.groups import _rng, random_gl, random_so, random_sp

REPEATS = 1000      # constructions or draws per timed call of a stream row

SIZES = (("random_sp", random_sp, (1, 2, 3, 6, 16, 32)),
         ("random_so", random_so, (1, 2, 3, 6, 12, 32)),
         ("random_gl", random_gl, (1, 4, 6)))


def _streams(count: int, seed) -> None:
    for t in range(count):
        _rng("bench", f"{seed}:{t}")


def _draws(count: int, seed) -> None:
    rng = _rng("bench", seed)
    for _ in range(count):
        rng.randrange(3)


def _best_us(fn, size: int, seeds: int, reps: int) -> float:
    """Thread time per call of fn(size, seed) over the seeds; best of reps."""
    best = float("inf")
    for _ in range(reps):
        start = time.thread_time()
        for seed in range(seeds):
            fn(size, seed)
        best = min(best, time.thread_time() - start)
    return best / seeds * 1e6


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--reps", type=int, default=5)
    args = ap.parse_args()

    print(f"{'generator':<11}{'size':>6}{'us/call':>12}"
          f"   (thread time, {args.seeds} seeds, best of {args.reps})")
    for name, fn, sizes in SIZES:
        for size in sizes:
            print(f"{name:<11}{size:>6}{_best_us(fn, size, args.seeds, args.reps):>12.1f}")
    for name, fn in (("_rng", _streams), ("randrange", _draws)):
        us = _best_us(fn, REPEATS, args.seeds, args.reps) / REPEATS
        print(f"{name:<11}{'':>6}{us:>12.2f}")


if __name__ == "__main__":
    main()
