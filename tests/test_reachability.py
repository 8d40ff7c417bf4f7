"""Every function in the library is entered by some command.

A function stays in src/sympdec when a command runs it; the Python API the
README documents (sympdec.__all__, induced.homs, whose one-degree case is
homs(op, [i], ...), and homotopy.pi_table) is what the commands run as well.  A reference construction that only a test needs lives in
tests/oracles.py.  This test runs a short fixed list of argv through
cli.main in a fresh interpreter under sys.setprofile, import included, and
fails, naming them, if any function or lambda defined in src/sympdec/*.py
was never entered.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import sympdec

SRC = Path(sympdec.__file__).resolve().parent

# functions no command can enter, each with the reason it stays
EXEMPT = {
    "abgroup.py:FgAbGroup.__setattr__": "immutability guard: runs only when code assigns a field",
    "abgroup.py:FgAbGroup.__hash__": ("the hash that goes with the equality a command uses: "
                                      "runs only when code hashes a group"),
}


def _argv(*words) -> list[str]:
    return [str(w) for w in words]


def commands() -> list[list[str]]:
    cases = []
    for family in ("sp", "psp", "so", "o", "u", "gl"):
        for space in ("group", "classifying"):
            # (2, 1), (9, 3) and (2, 12) read the psp fundamental group, the
            # orthogonal stable table and the recorded psp constant, so that
            # every provenance template is formatted
            for n, i in ((2, 0), (2, 1), (2, 3), (2, 8), (2, 9), (2, 10), (2, 12), (2, 30),
                         (1, 6), (3, 7), (3, 8), (9, 3), (2, -1), (0, 3), (5000, 20002)):
                cases.append(_argv("pi", "--family", family, "--n", n, "--i", i, "--space", space))
    cases.append(_argv("pi", "--family", "sp", "--n", 1, "--i", 6, "--output", "human"))
    ops = {
        "direct-sum": ("--m", 2, "--n", 3),
        "r-fold": ("--n", 2, "--r", 3),
        "doubling": ("--n", 9),
        "tensor-sp-o": ("--m", 2, "--n", 9),
        "tensor-quotient": ("--m", 2, "--n", 9),
        "tensor-sp-sp": ("--m", 2, "--n", 3),
        "square-tensor": ("--m", 2),
        "ttilde": ("--m", 2, "--n", 9),
        "J": ("--m", 2, "--n", 9),
    }
    for op, flags in ops.items():
        for i in (0, 1, 2, 3, 4, 7, 40):
            cases.append(_argv("induced", op, "--i", i, *flags))
    cases += [
        _argv("induced", "J", "--i", 3, "--m", 2, "--n", 9, "--u", 4, "--v", 7, "--z", 1),
        _argv("induced", "ttilde", "--i", 1, "--m", 2, "--n", 9, "--output", "human"),
        _argv("induced", "ttilde", "--i", 3, "--m", 2, "--n", 9, "--u", 1, "--v", 1),
        _argv("induced", "tensor-quotient", "--i", 3, "--m", 2, "--n", 8),
        _argv("induced", "tensor-sp-sp", "--i", 3, "--m", 3, "--n", 2),
        _argv("induced", "J", "--i", 3, "--m", 3, "--n", 9),
        _argv("induced", "J", "--i", 3, "--m", 2, "--n", 10),
        _argv("induced", "r-fold", "--i", 3, "--n", 2, "--r", 0),
        _argv("induced", "direct-sum", "--i", 3, "--m", 2),
    ]
    for m, n in ((2, 9), (-1, 9), (2, 4), (3, 9)):
        cases.append(_argv("bezout", "--m", m, "--n", n))
    for m, n in ((2, 9), (1, 9), (2, 5), (2, 4), (3, 9), (-1, 9)):
        cases.append(_argv("connectivity", "--m", m, "--n", n))
    for m, n in ((1, 11), (2, 4), (1, -1)):
        cases.append(_argv("postnikov", "--m", m, "--n", n))
    for kind in ("azumaya", "bundle"):
        for m, n, dim in ((2, 9, 7), (2, 13, 12), (4, 3, 7), (2, 2, 7), (1, 9, 7), (3, 9, 7),
                          (2, 8, 7), (3, 11, 12), (2, 9, -1), (2000, 8001, 7)):
            cases.append(_argv("decide", kind, "--m", m, "--n", n, "--dim", dim))
    cases += [
        _argv("verify", "all", "--samples", 1, "--output", "human"),
        _argv("verify", "all", "--max-m", 9, "--max-n", 9, "--max-r", 9),
        _argv("verify", "closure", "--samples", 0),
        _argv("--version"),
    ]
    return cases


def _defined(path: Path) -> dict[tuple[int, str], str]:
    """(first line of the code object, code name) -> qualified name, for every
    function, method and lambda the file defines."""
    out = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # a decorated function's code starts at its first decorator
                line = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[line, child.name] = f"{prefix}{child.name}"
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.Lambda):
                out[child.lineno, "<lambda>"] = f"{prefix}<lambda> (line {child.lineno})"
                visit(child, prefix)
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text()), "")
    return out


# reads [source directory, argv list] on stdin and prints, as JSON, (file name,
# first line, name) of each code object of that directory it entered; the
# import is profiled too, since FORMULAS calls some helpers only while it is built
PROFILED_RUN = """
import contextlib, io, json, os, sys
sys.modules["sympdec._speedups"] = None   # the Python kernel: the fallback without the extension
src, cases = json.load(sys.stdin)
entered, in_src = set(), {}

def profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        name = code.co_filename
        if name not in in_src:
            in_src[name] = os.path.dirname(os.path.realpath(name)) == src
        if in_src[name]:
            entered.add((os.path.basename(name), code.co_firstlineno, code.co_name))

sys.setprofile(profile)
from sympdec.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for argv in cases:
        try:
            main(argv)
        except SystemExit:
            pass
sys.setprofile(None)
print(json.dumps(sorted(entered)))
"""


def test_every_library_function_is_entered_by_a_command():
    env = {k: v for k, v in os.environ.items() if k != "SYMPDEC_SEED"}
    proc = subprocess.run([sys.executable, "-c", PROFILED_RUN],
                          input=json.dumps([str(SRC), commands()]),
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    entered = {tuple(code) for code in json.loads(proc.stdout)}
    missing = [f"{path.name}:{qual}" for path in sorted(SRC.glob("*.py"))
               for (line, name), qual in _defined(path).items()
               if (path.name, line, name) not in entered]
    missing = [qual for qual in missing if qual not in EXEMPT]
    assert not missing, (f"{len(missing)} library functions no command enters:\n  "
                         + "\n  ".join(missing))

