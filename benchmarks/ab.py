#!/usr/bin/env python3
"""In-process A/B of this checkout against a git revision, on the benchmark workloads.

Usage, from the root of a git checkout:

    python3 benchmarks/ab.py --base REV [--workload W] [--rounds N]

The base tree is REV's src/, extracted with `git archive` into a temporary
directory; the head tree is the src/ of the checkout this script sits in.
Both load into this one interpreter: the base's `sympdec.cli` is imported,
every `sympdec*` module is taken out of sys.modules, then the head's is
imported and taken out in turn.  Each tree keeps its own module globals,
since every sympdec import sits at module level; before a tree runs, its
modules are put back into sys.modules.

The operations are those of bench_e2e/workloads.py, imported from this
checkout, so both trees get the same argv lists.  Round r draws OPS[W]
operations from the workload's stream with seed r and runs them on one
tree, then on the other; the base goes first in even rounds and the head
in odd ones.  Before each round both trees are imported afresh and warmed
up by one untimed run of the round's first operation: within one process,
two loaded copies of the same code can differ in speed by up to about 1%
for as long as they stay loaded, and a fresh import per round turns that
offset into noise between rounds.  Each operation is timed in thread time
around `sympdec.cli.main(argv)`, with stdout and stderr captured; the exit
code, stdout and stderr of the two trees must be equal on every operation.

Printed per workload: operations per round, the medians over rounds of
each tree's thread time per operation, the median and quartiles of the
per-round ratio head / base, and the rounds the head won.  Exit status 0
when every output agreed, 1 when any differed (the first few are named on
stderr).  Without --workload, the workloads BENCHMARK.json declares run.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import itertools
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench_e2e"))
from workloads import WORKLOADS, operations  # noqa: E402

# operations per round: about half a second of one tree's thread time each
OPS = {"verify-default": 6, "verify-edge": 1, "decide-large": 2000, "queries": 4000}


def _take_package() -> dict:
    """Remove every sympdec module from sys.modules and return them."""
    taken = {k: v for k, v in sys.modules.items() if k == "sympdec" or k.startswith("sympdec.")}
    for name in taken:
        del sys.modules[name]
    return taken


class Tree:
    """One copy of the package, loaded in this interpreter and kept out of sys.modules."""

    def __init__(self, name: str, src: Path):
        self.name, self.src = name, src
        self.load()

    def load(self) -> None:
        """A fresh import of the tree's package, replacing the one held before."""
        _take_package()
        sys.path.insert(0, str(self.src))
        try:
            import sympdec.cli as cli
        finally:
            sys.path.remove(str(self.src))
        if Path(cli.__file__).resolve().parent != (self.src / "sympdec").resolve():
            raise SystemExit(f"{self.name}: imported sympdec from {cli.__file__}, not from {self.src}")
        self.cli = cli
        self.backend = sys.modules["sympdec.kernels"].backend()
        self.modules = _take_package()

    def run(self, argvs) -> tuple[float, list]:
        """Thread time of all argvs in turn, and each one's (exit, stdout, stderr)."""
        _take_package()
        sys.modules.update(self.modules)
        gc.collect()
        total, outputs = 0.0, []
        main = self.cli.main
        for argv in argvs:
            out, err = io.StringIO(), io.StringIO()
            start = time.thread_time()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = main(list(argv))
                except SystemExit as exc:
                    rc = exc.code
                except Exception as exc:    # noqa: BLE001 - compared, not hidden
                    rc = f"raised {type(exc).__name__}: {exc}"
            total += time.thread_time() - start
            outputs.append((rc, out.getvalue(), err.getvalue()))
        _take_package()
        return total, outputs


def _extract(rev: str, into: Path) -> Path:
    """REV's src/ written under into, by git archive; returns the src directory."""
    proc = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
                          capture_output=True)
    if proc.returncode != 0:
        raise SystemExit(f"git archive {rev} failed: {proc.stderr.decode().strip()}")
    with tarfile.open(fileobj=io.BytesIO(proc.stdout)) as tar:
        tar.extractall(into, filter="data")
    return into / "src"


def _quartiles(xs: list[float]) -> tuple[float, float]:
    if len(xs) < 2:
        return xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q3


def compare(base: Tree, head: Tree, workload: str, rounds: int, mismatches: list) -> dict:
    """Alternating rounds of one workload; per-round ms per operation of each tree."""
    def check(argvs, a, b):
        for argv, x, y in zip(argvs, a, b):
            if x != y:
                mismatches.append((workload, argv, x, y))

    def draw(r):
        return [op.argv for op in itertools.islice(operations(workload, r), OPS[workload])]

    times = {"base": [], "head": []}
    for r in range(rounds):
        argvs = draw(r)
        first, second = (base, head) if r % 2 == 0 else (head, base)
        for tree in (first, second):
            tree.load()
            tree.run(argvs[:1])
        t1, out1 = first.run(argvs)
        t2, out2 = second.run(argvs)
        check(argvs, out1, out2)
        times[first.name].append(t1 / len(argvs) * 1e3)
        times[second.name].append(t2 / len(argvs) * 1e3)
    return times


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="git revision to compare against")
    ap.add_argument("--workload", choices=WORKLOADS, action="append",
                    help="repeatable; default: the workloads BENCHMARK.json declares")
    ap.add_argument("--rounds", type=int, default=10)
    args = ap.parse_args()
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    workloads = args.workload or [w["name"] for w in
                                  json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]

    with tempfile.TemporaryDirectory() as tmp:
        base = Tree("base", _extract(args.base, Path(tmp)))
        head = Tree("head", ROOT / "src")
        mismatches: list = []
        print(f"base {args.base} ({base.backend} kernel) vs this checkout ({head.backend} kernel); "
              f"thread time, {args.rounds} alternating rounds")
        print(f"{'workload':<16}{'ops':>6}{'base ms/op':>12}{'head ms/op':>12}{'ratio':>8}"
              f"{'ratio q1-q3':>16}{'head wins':>11}")
        for w in workloads:
            times = compare(base, head, w, args.rounds, mismatches)
            ratios = [h / b for b, h in zip(times["base"], times["head"])]
            q1, q3 = _quartiles(ratios)
            wins = sum(h < b for b, h in zip(times["base"], times["head"]))
            print(f"{w:<16}{OPS[w]:>6}{statistics.median(times['base']):>12.4f}"
                  f"{statistics.median(times['head']):>12.4f}{statistics.median(ratios):>8.3f}"
                  f"{f'{q1:.3f}-{q3:.3f}':>16}{f'{wins} of {args.rounds}':>11}")
    print("outputs:", f"{len(mismatches)} differ" if mismatches else "equal on every operation")
    for workload, argv, x, y in mismatches[:5]:
        print(f"{workload}: {' '.join(argv)}\n  base: {x!r:.300}\n  head: {y!r:.300}",
              file=sys.stderr)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
