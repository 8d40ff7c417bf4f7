"""Golden record of every `sympdec` command other than `induced`.

Every case runs ``cli.main(argv)`` and must reproduce the recorded exit
code, stdout and stderr byte for byte.  The grid covers:

- `pi` for every family and both spaces, n in {0, ..., 5}, -1 <= i <= 23,
  plus the first unstable degrees of a larger n and the refused ones;
- `bezout`, `connectivity`, `decide azumaya|bundle` and `postnikov` on small
  sizes that reach every pass, every exit-1 hypothesis failure and every
  exit-2 domain message;
- `decide azumaya` and `connectivity` at m near 2000, where the pairing-map
  certificate spans thousands of degrees;
- `verify all` at small bounds for seeds 0, 1 and 2, and refused bounds.

The fixture has the layout of ``induced_golden.json`` (see
``test_induced_golden``): each distinct outcome once, as [exit code, stdout
parsed as JSON, stderr], plus one outcome index per case in grid order.
Re-record only on purpose: ``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

from __future__ import annotations

from pathlib import Path

from test_induced_golden import check, write

FIXTURE = Path(__file__).with_name("data") / "cli_golden.json"

FAMILIES = ("sp", "psp", "so", "o", "u", "gl")
SIZES_M = (-1, 0, 1, 2, 3, 4, 5, 6)
SIZES_N = (-1, 0, 1, 2, 3, 4, 5, 7, 8, 9, 11, 13, 15, 17, 21, 25, 33)
DIMS = (-1, 0, 7, 8, 13)
LARGE = ((2000, 8001), (1999, 8003), (2000, 4001), (1997, 7001), (2001, 8000), (2000, 8005))


def grid() -> list[list[str]]:
    cases = []
    for family in FAMILIES:
        for space in ("group", "classifying"):
            for n in (0, 1, 2, 3, 4, 5):
                for i in range(-1, 24):
                    cases.append(["pi", "--family", family, "--n", str(n), "--i", str(i),
                                  "--space", space])
            # the first unstable degrees of a larger n, and orders too long to print
            for n, i in ((40, 161), (40, 162), (40, 163), (40, 164), (41, 166), (41, 168),
                         (780, 3122), (779, 3119)):
                cases.append(["pi", "--family", family, "--n", str(n), "--i", str(i),
                              "--space", space])
    for m in SIZES_M:
        for n in SIZES_N:
            sizes = ["--m", str(m), "--n", str(n)]
            cases.append(["bezout", *sizes])
            cases.append(["connectivity", *sizes])
            cases.append(["postnikov", *sizes])
            for kind in ("azumaya", "bundle"):
                for dim in DIMS:
                    cases.append(["decide", kind, *sizes, "--dim", str(dim)])
    cases += [["postnikov", "--n", str(n)] for n in (3, 9, 41)]
    for m, n in LARGE:
        sizes = ["--m", str(m), "--n", str(n)]
        cases.append(["connectivity", *sizes])
        cases += [["decide", "azumaya", *sizes, "--dim", dim] for dim in ("7", "8")]
    for seed in ("0", "1", "2"):
        cases.append(["verify", "all", "--samples", "2", "--seed", seed])
        cases.append(["verify", "all", "--max-m", "1", "--max-n", "2", "--max-r", "1",
                      "--samples", "3", "--seed", seed])
    cases += [["verify", "all", "--max-m", "9", "--max-n", "9", "--max-r", "9"],
              ["verify", "closure", "--samples", "0"]]
    return cases


def test_cli_matches_golden():
    check(FIXTURE, grid())


def record() -> None:
    write(FIXTURE, grid())


if __name__ == "__main__":
    record()
