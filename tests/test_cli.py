import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import oracles
import test_cli_golden
import test_induced_golden
from sympdec import cli, homotopy, induced, suites
from sympdec.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


def test_pi_command(capsys):
    code, body = run_json(capsys, "pi", "--family", "sp", "--n", "1", "--i", "6")
    assert code == 0
    assert body["group"] == [12]
    assert body["provenance"]


def test_pi_psp_and_out_of_range(capsys):
    code, body = run_json(capsys, "pi", "--family", "psp", "--n", "4", "--i", "1")
    assert code == 0 and body["group"] == [2]
    code, body = run_json(capsys, "pi", "--family", "so", "--n", "9", "--i", "20")
    assert code == 0 and body["group"] == "out-of-range"


def test_pi_classifying_space(capsys):
    code, body = run_json(capsys, "pi", "--family", "psp", "--n", "2", "--i", "12",
                          "--space", "classifying")
    assert code == 0 and body["group"] == [2]


def test_induced_tensor_quotient(capsys):
    code, body = run_json(capsys, "induced", "tensor-quotient", "--m", "2", "--n", "5", "--i", "3")
    assert code == 0
    assert body["matrix"] == [[5, 4]]
    assert body["source"] == [0, 0] and body["target"] == [0]


def test_induced_j_has_unit_determinant(capsys):
    code, body = run_json(capsys, "induced", "J", "--m", "2", "--n", "9", "--i", "4")
    assert code == 0
    ((a, b), (c, d)) = body["matrix"]
    assert abs(a * d - b * c) == 1
    assert body["valid_range"]


def test_induced_doubling_zero_map(capsys):
    code, body = run_json(capsys, "induced", "doubling", "--n", "9", "--i", "5")
    assert code == 0
    assert body["source"] == [] and body["target"] == [2]


def test_induced_z_dependent_candidates(capsys):
    code, body = run_json(capsys, "induced", "ttilde", "--m", "2", "--n", "9", "--i", "1")
    assert code == 0 and body["z_dependent"]
    assert body["candidates"]["0"]["matrix"] == [[0, 1]]
    assert body["candidates"]["1"]["matrix"] == [[1, 1]]


def test_induced_out_of_range_is_usage_error(capsys):
    code, _ = run_cli(capsys, "induced", "doubling", "--n", "9", "--i", "50")
    assert code == 2
    code, _ = run_cli(capsys, "induced", "direct-sum", "--i", "3")  # missing flags
    assert code == 2


def test_decide_commands(capsys):
    code, body = run_json(capsys, "decide", "azumaya", "--m", "2", "--n", "9", "--dim", "7")
    assert code == 0 and body["verdict"] == "decomposable"
    code, body = run_json(capsys, "decide", "bundle", "--m", "3", "--n", "11", "--dim", "11")
    assert code == 0 and body["verdict"] == "decomposable"
    code, body = run_json(capsys, "decide", "azumaya", "--m", "2", "--n", "13", "--dim", "12")
    assert code == 0 and body["verdict"] == "not-covered"
    assert body["obstruction"]["degree"] == 12


def test_bezout_command(capsys):
    code, body = run_json(capsys, "bezout", "--m", "2", "--n", "9")
    assert code == 0 and (body["u"], body["v"], body["N"]) == (4, 7, 127)
    code, _ = run_cli(capsys, "bezout", "--m", "2", "--n", "8")
    assert code == 2


def test_out_of_domain_sizes_exit_two(capsys):
    for argv in (("bezout", "--m", "-1", "--n", "3"),
                 ("bezout", "--m", "0", "--n", "1"),
                 ("decide", "bundle", "--m", "0", "--n", "3", "--dim", "-5"),
                 ("decide", "azumaya", "--m", "2", "--n", "9", "--dim", "-1"),
                 ("postnikov", "--m", "-4", "--n", "5"),
                 ("connectivity", "--m", "-1", "--n", "9"),
                 ("connectivity", "--m", "2", "--n", "-3"),
                 ("connectivity", "--m", "0", "--n", "9"),
                 ("pi", "--family", "sp", "--n", "100000000", "--i", "400000002"),
                 ("pi", "--family", "psp", "--n", "780", "--i", "3122"),
                 ("pi", "--family", "sp", "--n", "779", "--i", "3119", "--space", "classifying"),
                 # v and N have more digits than Python prints; m, n and u do not
                 ("bezout", "--m", str(10 ** 2200), "--n", "1"),
                 ("bezout", "--m", str(10 ** 2200), "--n", "1", "--output", "human"),
                 # the size mn of the target part has more digits than Python prints
                 ("induced", "tensor-sp-sp", "--m", str(10 ** 2200), "--n", str(10 ** 2200),
                  "--i", "3")):
        code = main(list(argv))
        out, err = capsys.readouterr()
        assert (code, out) == (2, ""), argv
        if str(10 ** 2200) in argv:
            # the package states the bound; Python's advice to raise it is not passed on
            assert f"more than {sys.get_int_max_str_digits()} digits" in err, argv
            assert "set_int_max_str_digits" not in err, argv
    # the domain is checked before coprimality
    main(["connectivity", "--m", "0", "--n", "9"])
    assert "m and n must be positive" in capsys.readouterr().err


def test_connectivity_command(capsys):
    code, body = run_json(capsys, "connectivity", "--m", "2", "--n", "9")
    assert code == 0 and body["connectivity"] == 7
    code, body = run_json(capsys, "connectivity", "--m", "1", "--n", "9")
    assert code == 1 and body["connectivity"] is None
    assert "m > 1" in body["hypothesis_failure"]


def test_postnikov_command(capsys):
    code, body = run_json(capsys, "postnikov", "--n", "11")
    assert code == 0 and body["pass"]


def test_verify_command(capsys):
    code, body = run_json(capsys, "verify", "lemmas", "--max-m", "2", "--max-n", "2",
                          "--max-r", "2", "--samples", "2", "--seed", "42")
    assert code == 0 and body["ok"]
    assert body["suites"][0]["failures"] == []


def test_verify_output_is_byte_stable(capsys):
    args = ("verify", "closure", "--samples", "3", "--seed", "7")
    _, first = run_cli(capsys, *args)
    _, second = run_cli(capsys, *args)
    assert first == second


def test_verify_bad_bounds_usage_error(capsys):
    code, _ = run_cli(capsys, "verify", "closure", "--max-m", "9", "--max-n", "9",
                      "--max-r", "9")
    assert code == 2


def test_seed_env_default(capsys, monkeypatch):
    # the environment is read per call, not when the (cached) parser is built
    for seed in (123, 456):
        monkeypatch.setenv("SYMPDEC_SEED", str(seed))
        code, body = run_json(capsys, "verify", "bezout", "--max-m", "1", "--max-n", "1")
        assert code == 0 and body["seed"] == seed
    code, body = run_json(capsys, "verify", "bezout", "--max-m", "1", "--max-n", "1",
                          "--seed", "7")
    assert code == 0 and body["seed"] == 7


@pytest.mark.parametrize("value", ["abc", "1.5"])
def test_malformed_seed_env_is_usage_error(capsys, monkeypatch, value):
    monkeypatch.setenv("SYMPDEC_SEED", value)
    code = main(["verify", "bezout", "--max-m", "1", "--max-n", "1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "SYMPDEC_SEED" in captured.err and repr(value) in captured.err
    # the variable is read only when --seed is absent
    code, body = run_json(capsys, "verify", "bezout", "--max-m", "1", "--max-n", "1",
                          "--seed", "7")
    assert code == 0 and body["seed"] == 7


def test_human_output(capsys):
    code, out = run_cli(capsys, "pi", "--family", "sp", "--n", "1", "--i", "6",
                        "--output", "human")
    assert code == 0
    assert "group" in out and "{" not in out


def test_bad_flags_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["pi", "--family", "nope", "--n", "1", "--i", "1"])
    assert exc.value.code == 2


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "sympdec.cli", "bezout", "--m", "1", "--n", "3"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["N"] == 7


@pytest.mark.parametrize("output", ["json", "human"])
def test_closed_stdout_exits_quietly(output):
    read, write = os.pipe()
    os.close(read)      # the reader is gone before the command writes a byte
    with os.fdopen(write, "wb") as closed:
        proc = subprocess.run(
            [sys.executable, "-m", "sympdec.cli", "verify", "all", "--samples", "1",
             "--output", output],
            stdout=closed, stderr=subprocess.PIPE, text=True, timeout=60,
        )
    assert (proc.returncode, proc.stderr) == (0, "")


def _flags(**values):
    return [x for q, v in values.items() if v is not None
            for x in (f"--{q.replace('_', '-')}", str(v))]


# the grid the integers of an argv are drawn from: -1, 0, 1, small sizes on
# both sides of the hypotheses (n > 7, odd n, gcd(m, n) = 1), and values too
# large for any table; 10^2200 prints, but its square does not
_LARGE = (10 ** 30 + 1, 10 ** 2200)
_SMALL = (-1, 0, 1, 2, 3, 4, 5, 7, 8, 9, 11)
_SIZES = st.sampled_from(_SMALL + _LARGE)


def _n_near(m, cap=None):
    """n from the grid, with the sizes next to 4m+3; cap bounds n where the
    work grows with n (postnikov and decide bundle list one stage per 8
    degrees up to n, so n = 10^30 + 1 runs out of memory: ROADMAP item 4)."""
    grid = (*_SMALL, m - 1, 4 * m + 3, 4 * m + 4, 4 * m + 5, *_LARGE)
    return st.sampled_from([n for n in grid if cap is None or n <= cap])


def _degree_near(m, n):
    """A degree from the boundary grid of sizes m and n."""
    return st.sampled_from((-1, 0, 1, 4 * n, 4 * n + 1, 4 * n + 2, 4 * n + 4, n - 1, 4 * m + 3,
                            *_LARGE))


def _induced_value(q, m, n, _):
    """A value of induced's flag --q: the drawn sizes for m and n (and r, the
    number of summands), the grid for the Bezout pair u, v, and -1..2 for z."""
    return {"m": st.just(m), "n": st.just(n), "r": st.just(m), "z": st.integers(-1, 2)}.get(
        q, _SIZES)


def _sized(make, cap=None):
    """argvs make(m, n, degree) over the grid: m, then n near m, then a degree near both."""
    return _SIZES.flatmap(lambda m: _n_near(m, cap).flatmap(
        lambda n: _degree_near(m, n).map(lambda d: make(m, n, d))))


_ARGVS = st.one_of(
    st.builds(lambda f, argv, space: ["pi", *_flags(family=f), *argv, *_flags(space=space)],
              st.sampled_from(homotopy.FAMILIES),
              _sized(lambda m, n, i: _flags(n=n, i=i)), st.sampled_from(("group", "classifying"))),
    _sized(lambda m, n, _: ["bezout", *_flags(m=m, n=n)]),
    st.sampled_from(("azumaya", "bundle")).flatmap(lambda kind: _sized(
        lambda m, n, dim: ["decide", kind, *_flags(m=m, n=n, dim=dim)],
        cap=1000 if kind == "bundle" else None)),
    _sized(lambda m, n, _: ["connectivity", *_flags(m=m, n=n)]),
    _sized(lambda m, n, _: ["postnikov", *_flags(m=m, n=n)], cap=1000),
    st.sampled_from(tuple(induced.FORMULAS)).flatmap(
        lambda op: _sized(lambda *sizes: sizes).flatmap(lambda sizes: st.builds(
            lambda values: ["induced", op, *_flags(i=sizes[2], **values)],
            st.fixed_dictionaries({q: st.none() | _induced_value(q, *sizes)
                                   for q in induced.FORMULAS[op].params})))),
    st.builds(lambda suite, m, n, samples, seed: ["verify", suite, *_flags(
                  max_m=m, max_n=n, max_r=1, samples=samples, seed=seed)],
              st.sampled_from(suites.SUITES), st.integers(1, 2), st.integers(1, 2),
              st.integers(1, 2), st.sampled_from((-1, 0, 1, 2 ** 64))),
)

# the commands whose answer can be a failed verification or hypothesis
_EXIT_ONE = {"connectivity", "postnikov", "verify"}


def _outcome(argv):
    """(exit code, stdout, stderr) of main(argv); argparse's refusal exits 2."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:   # argparse refusing a flag
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=400, deadline=None)
@given(_ARGVS, st.sampled_from(("json", "human")))
def test_no_cli_input_produces_a_traceback(argv, output):
    """Every input ends in an answer (exit 0, or 1 from a command that can
    fail a verification or hypothesis) with an empty stderr, or in exit 2
    with a reason and an empty stdout.  The human text ends as the JSON
    does, and every pi, bezout and decide azumaya answer agrees with an
    oracle that does not call the package."""
    code, out, err = _outcome(argv)
    assert code in (0, 1, 2), argv
    if code == 2:
        assert out == "" and err and "set_int_max_str_digits" not in err, argv
    else:
        assert err == "" and (code == 0 or argv[0] in _EXIT_ONE), argv
        body = json.loads(out)
    if output == "human":
        human = _outcome([*argv, "--output", "human"])
        assert (human[0], bool(human[1]), human[2]) == (code, code != 2, err), argv
    if code == 0 and argv[0] == "pi":
        kind, orders = oracles.tabulated(body["family"], body["i"], body["n"], body["space"])
        assert body["group"] == (list(orders) if kind == "group" else kind), argv
    if code == 0 and argv[0] == "bezout":
        m, n, u, v = body["m"], body["n"], body["u"], body["v"]
        if n <= 10 ** 4:    # the search runs over u up to n
            assert (u, v) == oracles.brute_force_witness(m, n), argv
        else:
            assert abs(v * n - 4 * u * m * m) == 1 and 0 < u <= n and v > 0, argv
    if code == 0 and argv[:2] == ["decide", "azumaya"]:
        m, n = body["m"], body["n"]
        covered = body["dim"] <= 7 and gcd(m, n) == 1 and m > 1 and n > 7 and n % 2 == 1
        assert body["verdict"] == ("decomposable" if covered else "not-covered"), argv


_PI = ["pi", "--family", "sp", "--n", "2", "--i", "3"]
_EDGE_ARGVS = (
    [], ["--version"], ["-h"], ["pi", "-h"], ["frobnicate", "--n", "1"], ["pi"],
    [*_PI, "extra"], [*_PI, "--version"], ["--version", *_PI],
    ["pi", "--fam", "sp", "--n", "2", "--i", "3"],
    ["pi", "--family=sp", "--n", "2", "--i", "3"],
    ["pi", "--family", "sp", "--n", "two", "--i", "3"],
    [*_PI, "--"], ["pi", "--", *_PI[1:]], ["--", *_PI],
    ["induced", "J", "--i", "3", "--m", "2", "--n", "9", "--u"],
    ["verify", "all", "--max", "2"], ["decide", "azumaya", "--m", "2"],
    # canonical in shape, but argparse reads the value as a flag or refuses it
    ["pi", "--family", "sp", "--n", "-3_0", "--i", "3"],
    ["pi", "--family", "spx", "--n", "2", "--i", "3"],
    ["induced", "J", "--i", "3", "--m", "2", "--n", "9", "--z", "2"],
    ["pi", "--family", "sp", "--n", "", "--i", "3"],
    # accepted by int() as argparse accepts them, and a repeated flag's last value
    ["pi", "--family", "sp", "--n", " 3", "--i", "+3_0"], [*_PI, "--n", "٣"], [*_PI, "--n", "-1"],
    # positionals after the flags
    ["decide", "--m", "2", "--n", "9", "--dim", "7", "azumaya"],
)


def _parse_outcome(parse, argv):
    """(namespace or exit code, stdout, stderr) of one parse."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = parse(argv)
        except SystemExit as exc:
            result = ("SystemExit", exc.code)
    return result, out.getvalue(), err.getvalue()


def test_parse_path_matches_the_full_parser():
    full = cli.build_parser().parse_args
    argvs = [*test_cli_golden.grid(), *test_induced_golden.grid(), *_EDGE_ARGVS]
    wrong = [argv for argv in argvs
             if _parse_outcome(cli._parse_args, argv) != _parse_outcome(full, argv)]
    assert not wrong, f"{len(wrong)} argvs parse differently, first: {wrong[0]}"


_ODD_VALUES = ("-1", "-3_0", "-x", "", " 3", "+3", "3_0", "\u0663", "nope")
_CHANGES = ("odd value", "outside the choices", "abbreviated flag", "joined by =",
            "dropped flag", "positionals last", "dangling flag", "extra token", "help")


@st.composite
def _vocabulary_argvs(draw):
    """An argv of one command drawn from its own vocabulary: a canonical argv
    (positionals, the required flags and up to three more, repeats allowed,
    in any order), then up to two changes from _CHANGES.  An odd value is one
    of _ODD_VALUES: negative, "-"-prefixed, empty, padded, signed,
    underscored, non-ASCII and non-numeric words; an abbreviation never
    leaves a bare "--"."""
    name, parser = draw(st.sampled_from(sorted(cli._parsers()[1].items())))
    positionals = [a for a in parser._actions if not a.option_strings]
    options = {a.option_strings[-1]: a for a in parser._actions
               if a.option_strings and a.nargs != 0}

    def good(action):
        return draw(st.sampled_from([str(c) for c in action.choices]) if action.choices
                    else st.integers(0, 12).map(str))

    chosen = ([a for a in options.values() if a.required]
              + draw(st.lists(st.sampled_from(list(options.values())), max_size=3)))
    pairs = draw(st.permutations([[a.option_strings[-1], good(a)] for a in chosen]))
    words, tail, last = [good(a) for a in positionals], [], False
    for change in draw(st.lists(st.sampled_from(_CHANGES), max_size=2)):
        # (the list holding a value, its index, its action)
        values = ([(words, i, a) for i, a in enumerate(positionals)]
                  + [(p, 1, options[p[0]]) for p in pairs if p[0] in options])
        if change == "outside the choices":
            values = [v for v in values if v[2].choices]
        if change in ("odd value", "outside the choices") and values:
            seq, at, action = draw(st.sampled_from(values))
            seq[at] = (draw(st.sampled_from(_ODD_VALUES)) if change == "odd value"
                       else "7" if action.type else "nope")
        elif change == "abbreviated flag" and pairs:
            pair = draw(st.sampled_from(pairs))
            pair[0] = pair[0][:draw(st.integers(3, max(3, len(pair[0]) - 1)))]
        elif change == "joined by =" and pairs:
            pair = draw(st.sampled_from(pairs))
            pair[:] = ["=".join(pair)]
        elif change == "dropped flag" and pairs:
            pairs.remove(draw(st.sampled_from(pairs)))
        elif change == "positionals last":
            last = True
        elif change == "dangling flag":
            tail.append(draw(st.sampled_from(sorted(options))))
        elif change == "extra token":
            tail.append("extra")
        elif change == "help":
            tail.append("-h")
    flags = [w for pair in pairs for w in pair]
    return [name, *(flags + words if last else words + flags), *tail]


@settings(max_examples=500, deadline=None)
@given(_vocabulary_argvs())
def test_parse_path_matches_the_full_parser_property(argv):
    assert (_parse_outcome(cli._parse_args, argv)
            == _parse_outcome(cli.build_parser().parse_args, argv)), argv


def test_every_command_action_is_help_or_a_single_value_store():
    # the only kinds of action cli._canonical reads; a new kind of flag must
    # be taught to it, or it would be read wrong
    for name, parser in cli._parsers()[1].items():
        assert not parser._defaults, name
        for action in parser._actions:
            assert (isinstance(action, argparse._HelpAction)
                    or (type(action) is argparse._StoreAction
                        and action.nargs is None and action.const is None)), (name, action.dest)


@pytest.mark.parametrize("argv", [[*_PI, "--=x"], ["verify", "all", "--="]])
def test_ambiguous_option_is_refused_by_the_commands_own_parser(argv):
    # the full parser would refuse "--=x" as ambiguous between --help and
    # --version, options the command does not take
    result, out, err = _parse_outcome(cli._parse_args, argv)
    assert (result, out) == (("SystemExit", 2), "")
    assert err.startswith(f"usage: sympdec {argv[0]} ") and "--version" not in err


def test_parse_path_reads_sys_argv_by_default(monkeypatch):
    monkeypatch.setattr(sys, "argv", ["sympdec", *_PI])
    assert cli._parse_args(None) == cli.build_parser().parse_args(_PI)


_TEXT = st.text() | st.sampled_from(('"', "\\", "\x00\n\t\x1f\x7f", "é", "日本", "\U0001f600",
                                     "\ud800", 'a"b\\c'))
_BODIES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-2 ** 200, 2 ** 200) | _TEXT,
    lambda inner: (st.lists(inner) | st.lists(inner).map(tuple)
                   | st.dictionaries(_TEXT, inner)),
    max_leaves=40)


@settings(max_examples=150, deadline=None)
@given(_BODIES)
def test_json_writer_matches_json_dumps(body):
    assert cli._json_text(body) == json.dumps(body, sort_keys=True, indent=2)


@pytest.mark.parametrize("body", [1.5, float("nan"), {"a": [0.0]}, {1, 2}, b"x", [b"x"],
                                  frozenset(), {1: 2}, {"a": {None: 1}}, {True: 1}, {(1,): 2},
                                  {"a": 1, 2: 3}])
def test_json_writer_refuses_other_types(body):
    with pytest.raises(TypeError):
        cli._json_text(body)
