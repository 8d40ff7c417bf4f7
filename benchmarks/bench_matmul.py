#!/usr/bin/env python3
"""Benchmark the compiled numerator kernel against the pure-Python fallback.

Usage: PYTHONPATH=src python benchmarks/bench_matmul.py [--sizes 8,16,32,64] [--reps 3]

Times the flat negacyclic matrix product on n x n inputs of four kinds:
- small: random dense entries that stay on the compiled 64-bit fast path;
- big: random dense entries that force the arbitrary-precision object path
  on both backends;
- perm: a signed permutation times a small dense matrix, the shape of the
  form J and the stabilization and shuffle permutations;
- blockdiag: a block-diagonal integer matrix (4 x 4 blocks) times a small
  dense matrix, the shape of direct sums and Kronecker products with I;
- gauss: random Gaussian-integer entries (z and z^3 components zero), the
  shape of random_so products;
- checker: each entry purely real or purely imaginary, by the parity of
  row + column, the shape of tensor_sp_sp outputs.
The Python kernel pays up to 16 products per entry pair on small and big,
and at most 4 (1 on checker) on the integer and Z[i] cases.

End to end, it times each membership predicate on its own, per call, with
kernels.matmul_num pointed at each backend in turn: both symplectic routes
(is_symplectic_gram, is_symplectic_blocks) on random_sp draws of Sp(1) to
Sp(6), the sizes `sympdec verify` checks, and of Sp(16); and is_orthogonal
on tensor_sp_sp outputs of size 4 x 4 to 24 x 24.

The compiled kernel is the installed sympdec._speedups if it imports;
otherwise the shipped _speedups.c is compiled with the system C compiler into
a temporary directory (nothing is written under src/), and without a
compiler only the pure-Python timings are shown.
"""

import argparse
import importlib.util
import random
import shutil
import subprocess
import sysconfig
import tempfile
import time
from pathlib import Path

from sympdec import _kernels_py, kernels
from sympdec.groups import (is_orthogonal, is_symplectic_blocks, is_symplectic_gram, random_sp,
                            tensor_sp_sp)

SPEEDUPS_C = Path(__file__).resolve().parents[1] / "src" / "sympdec" / "_speedups.c"


def _compiled_kernel(tmp: str):
    """The compiled matmul_num: installed, or built from the shipped .c into tmp."""
    try:
        from sympdec import _speedups
        return _speedups.matmul_num
    except ImportError:
        pass
    cc = shutil.which((sysconfig.get_config_var("CC") or "cc").split()[0]) or shutil.which("cc")
    if cc is None or not SPEEDUPS_C.is_file():
        return None
    out = Path(tmp) / ("_speedups" + sysconfig.get_config_var("EXT_SUFFIX"))
    includes = {sysconfig.get_paths()[key] for key in ("include", "platinclude")}
    build = subprocess.run([cc, "-O2", "-shared", "-fPIC", *(f"-I{d}" for d in sorted(includes)),
                            str(SPEEDUPS_C), "-o", str(out)], capture_output=True)
    if build.returncode != 0:
        return None
    spec = importlib.util.spec_from_file_location("sympdec._speedups", out)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.matmul_num


def _flat(n, magnitude, rng):
    return [rng.randint(-magnitude, magnitude) for _ in range(n * n * 4)]


def _signed_perm(n, rng):
    cols = list(range(n))
    rng.shuffle(cols)
    num = [0] * (n * n * 4)
    for i, c in enumerate(cols):
        num[4 * (i * n + c)] = rng.choice((1, -1))
    return num


def _int_block_diag(n, rng, block=4):
    num = [0] * (n * n * 4)
    for o in range(0, n, block):
        for i in range(o, min(o + block, n)):
            for j in range(o, min(o + block, n)):
                num[4 * (i * n + j)] = rng.randint(-3, 3)
    return num


def _gaussian(n, rng, checker=False):
    """Z[i] entries of up to 40 in each part; with checker, entry (r, c) keeps
    only its real part for r + c even and only its imaginary part otherwise."""
    num = [0] * (n * n * 4)
    for r in range(n):
        for c in range(n):
            p = 4 * (r * n + c)
            if not checker or (r + c) % 2 == 0:
                num[p] = rng.randint(-40, 40)
            if not checker or (r + c) % 2 == 1:
                num[p + 2] = rng.randint(-40, 40)
    return num


def _cases(n, rng):
    """(label, a, b) for one size."""
    yield "small", _flat(n, 40, rng), _flat(n, 40, rng)
    yield "big", _flat(n, 1 << 72, rng), _flat(n, 1 << 72, rng)
    yield "perm", _signed_perm(n, rng), _flat(n, 40, rng)
    yield "blockdiag", _int_block_diag(n, rng), _flat(n, 40, rng)
    yield "gauss", _gaussian(n, rng), _gaussian(n, rng)
    yield "checker", _gaussian(n, rng, checker=True), _gaussian(n, rng, checker=True)


def _time(fn, reps, number=1):
    """Best over reps of the mean time of number calls of fn."""
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        for _ in range(number):
            fn()
        best = min(best, (time.perf_counter() - start) / number)
    return best


def _membership_cases():
    """(label, predicate, matrix) for each end-to-end membership timing."""
    for m in (1, 2, 3, 4, 5, 6, 16):
        a = random_sp(m, seed=1)
        yield f"Sp({m}) {2 * m}x{2 * m}", is_symplectic_gram, a
        yield f"Sp({m}) {2 * m}x{2 * m}", is_symplectic_blocks, a
    for m, n in ((1, 1), (1, 2), (1, 3), (2, 2), (2, 3)):
        b = tensor_sp_sp(random_sp(m, seed=1), random_sp(n, seed=2))
        yield f"O {b.rows}x{b.rows}", is_orthogonal, b


def _time_membership(backends, reps, number=50):
    """Print the per-call time of each membership predicate on each backend."""
    names = [name for name, _ in backends]
    header = f"{'matrix':>14} {'predicate':>21}" + "".join(f" {n:>10}" for n in names)
    print(header)
    print("-" * len(header))
    active = kernels.matmul_num
    try:
        for label, predicate, m in _membership_cases():
            cells = []
            for _, kernel in backends:
                kernels.matmul_num = kernel
                cells.append(_time(lambda: predicate(m), reps, number))
            print(f"{label:>14} {predicate.__name__:>21}"
                  + "".join(f" {t * 1e6:>8.1f}us" for t in cells))
    finally:
        kernels.matmul_num = active


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--sizes", default="8,16,32,64")
    parser.add_argument("--reps", type=int, default=3)
    args = parser.parse_args()
    sizes = [int(s) for s in args.sizes.split(",")]

    with tempfile.TemporaryDirectory() as tmp:
        compiled = _compiled_kernel(tmp)
        if compiled is None:
            print("compiled kernel not available; showing pure-Python timings only")

        header = f"{'size':>5} {'entries':>9} {'python':>12} {'compiled':>12} {'speedup':>8}"
        print(header)
        print("-" * len(header))
        rng = random.Random(0)
        for n in sizes:
            for label, a, b in _cases(n, rng):
                t_py = _time(lambda: _kernels_py.matmul_num(a, b, n, n, n), args.reps)
                if compiled is not None:
                    t_c = _time(lambda: compiled(a, b, n, n, n), args.reps)
                    assert compiled(a, b, n, n, n) == _kernels_py.matmul_num(a, b, n, n, n)
                    print(f"{n:>5} {label:>9} {t_py * 1e3:>10.2f}ms {t_c * 1e3:>10.2f}ms "
                          f"{t_py / t_c:>7.1f}x")
                else:
                    print(f"{n:>5} {label:>9} {t_py * 1e3:>10.2f}ms {'-':>12} {'-':>8}")

        print()
        print("end-to-end: membership predicates, time per call on each backend")
        backends = [("python", _kernels_py.matmul_num)]
        if compiled is not None:
            backends.append(("compiled", compiled))
        _time_membership(backends, args.reps)


if __name__ == "__main__":
    main()
