"""Golden record of `--output human` for every command.

Every case runs ``cli.main([*argv, "--output", "human"])`` and must
reproduce the recorded exit code, stdout and stderr byte for byte.  The JSON
goldens sort their keys and parse stdout, so only this record pins the
order of the keys and the text in which the human writer prints a body.
The grid is a subset of the grids of ``test_cli_golden`` and
``test_induced_golden``:

- `pi` for n in {0, 1, 3, 40, 41}, which reaches the trivial group, Z,
  Z/2, long cyclic orders, the torsion-only and out-of-range markers and
  refused queries;
- `bezout`, `connectivity`, `decide` and `postnikov` for m in {0, 1, 2}
  and every n of the full grid, the `postnikov` cases without m, and the
  large cases at m = 2000;
- every `verify` case;
- `induced` for m (or r) in {1, 2} and n in {1, 3, 9}, with every variant,
  and the cases with missing flags.

`verify` prints one timing line per suite after its body.  Those lines are
left out of the comparison of stdout; each must match TIMING for the suite
recorded in its place.

The fixture stores each distinct outcome once, as [exit code, stdout
without timing lines, stderr, the suites of the timing lines], plus one
outcome index per case in grid order.
Re-record only on purpose: ``PYTHONPATH=src python tests/test_human_golden.py``.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import test_cli_golden
import test_induced_golden
from test_induced_golden import digest, run

FIXTURE = Path(__file__).with_name("data") / "human_golden.json"

# the timing line of one suite; {} stands for the suite's name
TIMING = r"^{}: \d+ cases, \d+ failures, \d+\.\d\ds$"
_ANY_TIMING = re.compile(TIMING.format(r"([\w-]+)"))

_PI_N = {"0", "1", "3", "40", "41"}
_SIZED_M = {None, "0", "1", "2", "2000"}
_INDUCED_M = {None, "1", "2"}
_INDUCED_N = {None, "1", "3", "9"}


def grid() -> list[list[str]]:
    cases = []
    for argv in test_cli_golden.grid() + test_induced_golden.grid():
        flags = dict(zip(argv, argv[1:]))
        if argv[0] == "pi":
            keep = flags["--n"] in _PI_N
        elif argv[0] == "induced":
            keep = (flags.get("--m", flags.get("--r")) in _INDUCED_M
                    and flags.get("--n") in _INDUCED_N)
        elif argv[0] == "verify":
            keep = True
        else:
            keep = flags.get("--m") in _SIZED_M
        if keep:
            cases.append([*argv, "--output", "human"])
    return cases


def outcome(argv) -> tuple[int | str, str, str, list[str]]:
    """(exit code, stdout without the trailing timing lines, stderr, the suite
    each timing line names)."""
    code, out, err = run(argv)
    lines = out.splitlines(keepends=True)
    suites = []
    while argv[0] == "verify" and lines and (match := _ANY_TIMING.match(lines[-1])):
        suites.insert(0, match[1])
        lines.pop()
    return code, "".join(lines), err, suites


def test_human_output_matches_golden():
    cases = grid()
    golden = json.loads(FIXTURE.read_text())
    assert digest(cases) == golden["argv_sha256"], "the grid changed; re-record on purpose"
    outcomes = [tuple(o) for o in golden["outcomes"]]
    wrong = [argv for argv, k in zip(cases, golden["case_outcome"], strict=True)
             if outcome(argv) != outcomes[k]]
    assert not wrong, f"{len(wrong)} cases differ, first: {' '.join(wrong[0])}"


def record() -> None:
    cases = grid()
    outcomes, index, case_outcome = [], {}, []
    for argv in cases:
        key = json.dumps(outcome(argv))
        if key not in index:
            index[key] = len(outcomes)
            outcomes.append(json.loads(key))
        case_outcome.append(index[key])
    FIXTURE.write_text(json.dumps({
        "argv_sha256": digest(cases),
        "outcomes": outcomes,
        "case_outcome": case_outcome,
    }, separators=(",", ":")) + "\n")
    print(f"{len(cases)} cases, {len(outcomes)} distinct outcomes -> {FIXTURE}")


if __name__ == "__main__":
    record()
