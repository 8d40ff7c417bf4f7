"""Command-line surface: table queries, induced-map matrices, decomposability
decisions, witnesses, and the batch verification suites.

Only this module decides what a command prints.  main runs the command's
handler in COMMANDS, which returns the library's result and the exit code,
and emits the result once, through _plain, the one rule both writers use; a
ValueError or SympdecError, from the handler or the writer, becomes exit 2.
JSON goes to stdout (sorted keys, so equal inputs give byte-identical
output); pass --output human for readable text in field order.  The JSON
text is exactly ``json.dumps(body, sort_keys=True, indent=2)``, written by
``_json_text`` without json's pure-Python indenting encoder; no command
emits a float.
Exit codes: 0 success, 1 verification or hypothesis failure, 2 usage error.

argparse is the one grammar.  _parse_args reads a canonical argv (the
command, its positionals in order, then only pairs of a full option string
and a value that does not start with "-") straight off the actions of the
command's own parser, and gives the namespace the full parser would; every
other argv, help, abbreviations, "--flag=value", negative values and every
refusal included, goes to argparse itself.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii

from sympdec import __version__, homotopy, induced, lifting, suites
from sympdec.abgroup import FgAbGroup
from sympdec.errors import HypothesisFailureError, SympdecError
from sympdec import kernels


def _default_seed() -> int:
    text = os.environ.get("SYMPDEC_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"SYMPDEC_SEED must be an integer; got {text!r}") from None


def _plain(obj):
    """obj as both writers print it: a NamedTuple as the dict of its fields, an
    FgAbGroup as its list of cyclic orders and any other tuple as a list, all
    the way down through such values; plain dicts and lists are not entered."""
    if isinstance(obj, FgAbGroup):
        return list(obj.factors)
    if isinstance(obj, tuple):
        if hasattr(obj, "_fields"):
            return dict(zip(obj._fields, map(_plain, obj)))
        return list(map(_plain, obj))
    return obj


def _emit(result, output: str, human_tail=()) -> None:
    """Print result as JSON, or as human text followed by the lines of
    human_tail.  The text is formed in full before any of it is printed, so
    a value that cannot be written leaves stdout empty."""
    obj = _plain(result)
    text = (_json_text(obj) if output == "json"
            else "\n".join(chain(_human_lines(obj), human_tail)))
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone (`sympdec verify all | head -1`): send the rest of
        # the output, and the flush at exit, to devnull so that no traceback
        # follows, as the SIGPIPE note of the signal module's docs suggests
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _json_text(obj, pad: str = "\n") -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)`` for the str keys, str,
    int, bool and None scalars, lists and tuples a command emits; pad is the
    newline plus indent that ends the value's last line.  Anything else,
    floats included, raises TypeError."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = pad + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [_json_text(value, inner) for value in obj]
        return f"[{inner}{(',' + inner).join(items)}{pad}]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        # the C encoder raises TypeError for a key that is not a str
        items = [f"{encode_basestring_ascii(key)}: {_json_text(value, inner)}"
                 for key, value in sorted(obj.items())]
        return f"{{{inner}{(',' + inner).join(items)}{pad}}}"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _human_lines(obj, indent: int = 0):
    pad = "  " * indent
    if isinstance(obj, dict):
        for key in obj:
            value = obj[key]
            if isinstance(value, (dict, list)) and value:
                yield f"{pad}{key}:"
                yield from _human_lines(value, indent + 1)
            else:
                yield f"{pad}{key}: {_scalar(value)}"
    elif isinstance(obj, list):
        for item in obj:
            if isinstance(item, (dict, list)):
                yield f"{pad}-"
                yield from _human_lines(item, indent + 1)
            else:
                yield f"{pad}- {_scalar(item)}"
    else:
        yield f"{pad}{_scalar(obj)}"


def _scalar(value):
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, (dict, list)):
        return value if value else "[]"
    return value


def _add_output(p: argparse.ArgumentParser):
    p.add_argument("--output", choices=("json", "human"), default="json")


def build_parser() -> argparse.ArgumentParser:
    """The full two-level parser: options, then a command and its flags."""
    return _parsers()[0]


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The full parser, and each command's own parser by command name."""
    parser = argparse.ArgumentParser(
        prog="sympdec",
        description="Exact symplectic decomposability toolkit",
    )
    parser.add_argument("--version", action="version",
                        version=f"sympdec {__version__} (kernels: {kernels.describe()})")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pi", help="homotopy table query")
    p.add_argument("--family", required=True, choices=homotopy.FAMILIES)
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--i", required=True, type=int)
    p.add_argument("--space", choices=("group", "classifying"), default="group")
    _add_output(p)

    p = sub.add_parser("induced", help="induced-map matrix for one operation")
    p.add_argument("op", choices=tuple(induced.FORMULAS))
    p.add_argument("--i", required=True, type=int)
    for q in dict.fromkeys(q for f in induced.FORMULAS.values() for q in f.params):
        p.add_argument(f"--{q}", type=int, choices=(0, 1) if q == "z" else None)
    _add_output(p)

    p = sub.add_parser("decide", help="decomposability decision report")
    p.add_argument("kind", choices=("azumaya", "bundle"))
    p.add_argument("--m", required=True, type=int)
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--dim", required=True, type=int)
    _add_output(p)

    p = sub.add_parser("bezout", help="minimal positive witness |v*n - 4*u*m^2| = 1")
    p.add_argument("--m", required=True, type=int)
    p.add_argument("--n", required=True, type=int)
    _add_output(p)

    p = sub.add_parser("connectivity", help="certify the pairing map 7-connected")
    p.add_argument("--m", required=True, type=int)
    p.add_argument("--n", required=True, type=int)
    _add_output(p)

    p = sub.add_parser("postnikov", help="obstruction-degree bookkeeping")
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--m", type=int, default=1)
    _add_output(p)

    p = sub.add_parser("verify", help="batch verification suites")
    p.add_argument("suite", choices=suites.SUITES)
    p.add_argument("--max-m", type=int, default=2)
    p.add_argument("--max-n", type=int, default=3)
    p.add_argument("--max-r", type=int, default=2)
    p.add_argument("--samples", type=int, default=25)
    p.add_argument("--seed", type=int, default=None, help="default: $SYMPDEC_SEED or 0")
    _add_output(p)

    return parser, sub.choices


_MISSING = object()   # the start value of a required action's dest in _canonical


@functools.cache
def _grammars() -> dict[str, tuple]:
    """Per command, what its own parser's actions say, for _canonical: the
    positional actions in order, the option actions by option string, the
    dests of the required actions, and the values argparse starts its
    namespace from, with _MISSING for a required action.  The help action is
    left out, so -h and --help are never read."""
    grammars = {}
    for name, parser in _parsers()[1].items():
        actions = [a for a in parser._actions if not isinstance(a, argparse._HelpAction)]
        grammars[name] = (tuple(a for a in actions if not a.option_strings),
                          {s: a for a in actions for s in a.option_strings},
                          tuple(a.dest for a in actions if a.required),
                          {a.dest: _MISSING if a.required else a.default for a in actions
                           if a.default is not argparse.SUPPRESS})
    return grammars


def _canonical(argv: list) -> argparse.Namespace | None:
    """The namespace the full parser gives a canonical argv, or None for any
    other argv.  Canonical: a command, its positionals in order, then only
    pairs of one of its option strings, exactly, and a value that does not
    start with "-"; each value passes its action's type and choices, and
    every required option is given."""
    grammar = _grammars().get(argv[0]) if argv else None
    if grammar is None:
        return None
    positionals, options, required, start = grammar
    k = len(positionals) + 1
    if len(argv) < k or (len(argv) - k) % 2:
        return None
    values = dict(start)
    for action, word in zip([*positionals, *map(options.get, argv[k::2])],
                            argv[1:k] + argv[k + 1::2]):
        if action is None or word[:1] == "-":
            return None
        try:
            value = action.type(word) if action.type else word
        except (TypeError, ValueError, argparse.ArgumentTypeError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value
    for dest in required:
        if values[dest] is _MISSING:
            return None
    args = argparse.Namespace()
    vars(args).update(values, command=argv[0])   # Namespace(**values) costs 4x as much
    return args


def _parse_args(argv) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``: read straight off the command's
    actions when argv is canonical (see _canonical), otherwise at the cost
    of one parser level when argv starts with a command that its own parser
    parses in full, and by the full parser for everything else."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _canonical(argv)
    if args is not None:
        return args
    command = _parsers()[1].get(argv[0]) if argv else None
    if command is not None:
        args, extras = command.parse_known_args(argv[1:])
        if not extras:
            args.command = argv[0]
            return args
    return build_parser().parse_args(argv)


def _pi(args):
    answer = homotopy.pi_table(args.family, args.i, args.n, args.space)
    group = list(answer.group.factors) if answer.kind == homotopy.GROUP else answer.kind
    return {"family": args.family, "n": args.n, "i": args.i, "space": args.space,
            "group": group, "provenance": answer.provenance}, 0


def _induced(args):
    missing = [f"--{q}" for q in induced.REQUIRED[args.op] if getattr(args, q) is None]
    if missing:
        raise SympdecError(f"missing required flags: {', '.join(missing)}")
    return induced.describe(args.op, args.i, **{q: getattr(args, q)
                                                for q in induced.FORMULAS[args.op].params}), 0


def _decide(args):
    decide = lifting.decide_azumaya if args.kind == "azumaya" else lifting.decide_bundle
    return decide(args.m, args.n, args.dim), 0


def _connectivity(args):
    body = {"m": args.m, "n": args.n}
    try:
        return {**body, "connectivity": lifting.connectivity_j(args.m, args.n)}, 0
    except HypothesisFailureError as exc:
        return {**body, "connectivity": None, "hypothesis_failure": str(exc)}, 1


def _postnikov(args):
    report = lifting.postnikov_degree_check(args.m, args.n)
    return report, 0 if report["pass"] else 1


def _verify(args):
    """The body, the exit code and the human-only timing lines, one per suite;
    the JSON leaves the clock out, so equal inputs and seed give equal bytes."""
    seed = _default_seed() if args.seed is None else args.seed
    bounds = suites.Bounds(args.max_m, args.max_n, args.max_r)
    reports = suites.run_suite(args.suite, bounds, args.samples, seed)
    ok = all(r.ok for r in reports)
    body = {"seed": seed, "samples": args.samples, "bounds": bounds._asdict(),
            "suites": [{"suite": r.suite, "cases": r.cases, "failures": r.failures, "ok": r.ok}
                       for r in reports],
            "ok": ok}
    timing = [f"{r.suite}: {r.cases} cases, {len(r.failures)} failures, {r.elapsed:.2f}s"
              for r in reports]
    return body, 0 if ok else 1, timing


# each handler returns (result, exit code), and verify its timing lines as well
COMMANDS = {"pi": _pi, "induced": _induced, "decide": _decide,
            "bezout": lambda args: (lifting.bezout_uv(args.m, args.n), 0),
            "connectivity": _connectivity, "postnikov": _postnikov, "verify": _verify}


def _reason(exc: ValueError) -> str:
    """exc's text; Python's refusal to write an integer of more decimal digits
    than sys.get_int_max_str_digits() allows becomes the package's statement
    of that bound, as pi states it for the degree-4n+2 order."""
    if str(exc).startswith("Exceeds the limit ("):
        return (f"an integer to be printed has more than {sys.get_int_max_str_digits()} digits, "
                "the integer string conversion limit")
    return str(exc)


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        result, code, *timing = COMMANDS[args.command](args)
        _emit(result, args.output, *timing)
    except ValueError as exc:
        print(f"error: {_reason(exc)}", file=sys.stderr)
        return 2
    except SympdecError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
