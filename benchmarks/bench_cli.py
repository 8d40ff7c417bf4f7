#!/usr/bin/env python3
"""Time the CLI's fixed cost per command: parsing argv and writing the JSON.

Usage: PYTHONPATH=src python benchmarks/bench_cli.py [--per-kind 50] [--reps 5] [--seed 0]

Builds a fixed, seeded list of argvs in the shape of the `queries` mix of
bench_e2e (pi, induced, bezout, decide azumaya and bundle, connectivity,
postnikov), all canonical (see below), and prints, per command kind,
microseconds per call, best of --reps passes over the kind's argvs:
- parse, three routes: the full two-level parser,
  ``build_parser().parse_args(argv)``; the command's own parser on
  argv[1:]; and ``cli._parse_args(argv)`` as ``main`` runs it, which reads a
  canonical argv straight off the command parser's actions.  Canonical:
  the command, its positionals in order, then only pairs of one of its
  option strings and a value that does not start with "-", each value
  passing its action's type and choices, every required option given.
  Any other argv goes to the command's own parser and then the full one;
- emit: ``json.dumps(body, sort_keys=True, indent=2)``, which runs json's
  pure-Python encoder because of the indent, against the CLI's writer, on
  the body each argv prints;
- lookup, for the pi kind only: ``homotopy.pi_table`` on each pi argv's
  (family, i, n) in the group space and at i + 1 in the classifying space,
  which shifts onto the same group degree.
Before timing, it checks that each argv is canonical, that the three parses
give the same namespace and that both writers give the same text.  Neither
part multiplies a matrix, so the timings do not depend on the kernel
backend.
"""

import argparse
import contextlib
import functools
import io
import json
import random
import time

from sympdec import cli, homotopy


def _argvs(rng: random.Random, per_kind: int) -> dict[str, list[list[str]]]:
    def coprime_odd(m, lo, hi):
        while True:
            n = rng.randrange(lo | 1, hi, 2)
            if all(n % p for p in range(2, m + 1) if m % p == 0):
                return n

    def pi():
        family = rng.choice(("sp", "psp", "so", "o", "u", "gl"))
        n = rng.randint(1, 200)
        return ["--family", family, "--n", n, "--i", rng.randint(0, 2 * n)]

    def induced():
        op = rng.choice(("direct-sum", "doubling", "tensor-sp-o", "ttilde", "J"))
        m = rng.randint(2, 40)
        n = coprime_odd(m, 4 * m + 5, 4 * m + 99)
        flags = ["--n", n] if op == "doubling" else ["--m", m, "--n", n]
        return [op, "--i", rng.randint(1, 4 * m + 2), *flags]

    def sizes():
        m = rng.randint(2, 40)
        return ["--m", m, "--n", coprime_odd(m, 9, 4 * m + 41)]

    kinds = {
        "pi": lambda: ["pi", *pi()],
        "induced": lambda: ["induced", *induced()],
        "bezout": lambda: ["bezout", *sizes()],
        "decide": lambda: ["decide", rng.choice(("azumaya", "bundle")), *sizes(),
                           "--dim", rng.randint(0, 7)],
        "connectivity": lambda: ["connectivity", *sizes()],
        "postnikov": lambda: ["postnikov", "--n", rng.randrange(3, 400, 2),
                              "--m", rng.randint(1, 20)],
    }
    return {kind: [[str(w) for w in make()] for _ in range(per_kind)]
            for kind, make in kinds.items()}


def _body(argv):
    """The JSON body the command prints for argv, or None when it prints none."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        cli.main(argv)
    return json.loads(out.getvalue()) if out.getvalue() else None


def _best_us(fn, inputs, reps: int) -> float:
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        for x in inputs:
            fn(x)
        best = min(best, time.perf_counter() - start)
    return best / len(inputs) * 1e6


def _lookups(argvs) -> list[tuple]:
    """The pi_table queries of the pi argvs, in both spaces."""
    queries = []
    for argv in argvs:
        flags = dict(zip(argv[1::2], argv[2::2]))
        family, n, i = flags["--family"], int(flags["--n"]), int(flags["--i"])
        queries += [(family, i, n, "group"), (family, i + 1, n, "classifying")]
    return queries


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--per-kind", type=int, default=50)
    ap.add_argument("--reps", type=int, default=5)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    full = cli.build_parser()
    own = cli._parsers()[1]

    def own_parse(argv):
        args = own[argv[0]].parse_args(argv[1:])
        args.command = argv[0]
        return args

    dumps = functools.partial(json.dumps, sort_keys=True, indent=2)

    print(f"{'kind':<13}{'argvs':>6}{'full parse':>12}{'own parse':>11}{'main parse':>12}"
          f"{'json.dumps':>12}{'writer':>9}{'lookup':>9}   (us per call, best of {args.reps})")
    for kind, argvs in _argvs(random.Random(args.seed), args.per_kind).items():
        for argv in argvs:
            if cli._canonical(argv) is None:
                raise SystemExit(f"{argv} is not canonical")
            if not cli._parse_args(argv) == own_parse(argv) == full.parse_args(argv):
                raise SystemExit(f"the parses differ on {argv}")
        bodies = [b for b in map(_body, argvs) if b is not None]
        for body in bodies:
            if cli._json_text(body) != dumps(body):
                raise SystemExit(f"the writers differ on the body of a {kind} command")
        row = (_best_us(full.parse_args, argvs, args.reps),
               _best_us(own_parse, argvs, args.reps),
               _best_us(cli._parse_args, argvs, args.reps),
               _best_us(dumps, bodies, args.reps),
               _best_us(cli._json_text, bodies, args.reps))
        lookup = (f"{_best_us(lambda q: homotopy.pi_table(*q), _lookups(argvs), args.reps):>9.2f}"
                  if kind == "pi" else f"{'-':>9}")
        print(f"{kind:<13}{len(argvs):>6}{row[0]:>12.1f}{row[1]:>11.1f}{row[2]:>12.1f}"
              f"{row[3]:>12.1f}{row[4]:>9.1f}{lookup}")


if __name__ == "__main__":
    main()
