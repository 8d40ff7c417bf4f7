"""Golden record of `sympdec induced` over a fixed grid of inputs.

Every case runs ``cli.main(["induced", ...])`` and must reproduce the
recorded exit code, stdout and stderr byte for byte.  The grid covers every
op, m in {1, 2, 3} (the r of r-fold), n in {1, ..., 5, 8, 9, 11, 13} and
-1 <= i <= 15; ttilde and J also run with z pinned to 0 and 1, with a bad
(u, v) and with a lone --u, which the Bezout default overrides.

The fixture stores each distinct outcome once, as [exit code, stdout parsed
as JSON (null when empty), stderr], plus one outcome index per case in grid
order.  The check renders each parsed body with
``json.dumps(body, sort_keys=True, indent=2)``, an oracle independent of the
CLI's own JSON writer, and compares bytes; recording checks that the parsed
form gives back the exact bytes.
Re-record only on purpose: ``PYTHONPATH=src python tests/test_induced_golden.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

from sympdec import cli

FIXTURE = Path(__file__).with_name("data") / "induced_golden.json"

OPS = ("direct-sum", "r-fold", "doubling", "tensor-sp-o", "tensor-quotient",
       "tensor-sp-sp", "square-tensor", "ttilde", "J")
SIZES_M = (1, 2, 3)
SIZES_N = (1, 2, 3, 4, 5, 8, 9, 11, 13)
DEGREES = range(-1, 16)
PAIRING_VARIANTS = ((), ("--z", "0"), ("--z", "1"), ("--u", "1", "--v", "1"), ("--u", "5"))


def grid() -> list[list[str]]:
    cases = []
    for op in OPS:
        variants = PAIRING_VARIANTS if op in ("ttilde", "J") else ((),)
        for m in SIZES_M:
            for n in SIZES_N:
                sizes = ("--n", str(n), "--r", str(m)) if op == "r-fold" else \
                        ("--m", str(m), "--n", str(n))
                for i in DEGREES:
                    for extra in variants:
                        cases.append(["induced", op, "--i", str(i), *sizes, *extra])
    # flags missing, and an r outside its domain
    cases += [["induced", op, "--i", "3"] for op in OPS]
    cases += [["induced", "r-fold", "--i", "3", "--n", "2", "--r", r] for r in ("0", "-1")]
    return cases


def digest(cases) -> str:
    return hashlib.sha256(json.dumps(cases).encode()).hexdigest()


def run(argv) -> tuple[int | str, str, str]:
    """(exit code, stdout, stderr); an escaping exception stands in for the code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:  # recorded, so a traceback is a visible change
            code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def printed(body) -> str:
    return "" if body is None else json.dumps(body, sort_keys=True, indent=2) + "\n"


def check(fixture: Path, cases) -> None:
    """Every case reproduces its recorded outcome byte for byte."""
    golden = json.loads(fixture.read_text())
    assert digest(cases) == golden["argv_sha256"], "the grid changed; re-record on purpose"
    outcomes = [(code, printed(body), err) for code, body, err in golden["outcomes"]]
    wrong = [argv for argv, k in zip(cases, golden["case_outcome"], strict=True)
             if run(argv) != outcomes[k]]
    assert not wrong, f"{len(wrong)} cases differ, first: {' '.join(wrong[0])}"


def write(fixture: Path, cases) -> None:
    """Run every case and store its outcome in the fixture."""
    outcomes, index, case_outcome = [], {}, []
    for argv in cases:
        code, out, err = run(argv)
        body = json.loads(out) if out else None
        assert printed(body) == out, argv
        key = json.dumps([code, body, err])
        if key not in index:
            index[key] = len(outcomes)
            outcomes.append([code, body, err])
        case_outcome.append(index[key])
    fixture.parent.mkdir(exist_ok=True)
    fixture.write_text(json.dumps({
        "argv_sha256": digest(cases),
        "outcomes": outcomes,
        "case_outcome": case_outcome,
    }, separators=(",", ":")) + "\n")
    print(f"{len(cases)} cases, {len(outcomes)} distinct outcomes -> {fixture}")


def test_induced_cli_matches_golden():
    check(FIXTURE, grid())


def record() -> None:
    write(FIXTURE, grid())


if __name__ == "__main__":
    record()
