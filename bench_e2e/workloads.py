"""The four workloads: seeded CLI argument lists and an independent check per
operation.

An operation is one CLI-equivalent command, given as the argv list that
``sympdec.cli.main`` receives.  Each check looks only at the exit code and
stdout and recomputes what it can from first principles (factorials, the
Bezout identity, Bott periodicity), never by calling the package.

No operation of a workload is expected to fail, so a failure in ``failed``
is always news.  Inputs that hit defects which are known and not yet fixed
are kept apart in ``KNOWN_DEFECT_PROBES``: every run executes them, with the
same checks, and reports which still fail, so that the defects show and a
fix shows too.
"""

from __future__ import annotations

import json
import random
import sys
from bisect import bisect_left
from dataclasses import dataclass
from math import factorial, gcd
from typing import Callable, Iterator

WORKLOADS = ("verify-default", "verify-edge", "decide-large", "queries")

# the most digits Python prints (4300 by default; 0 for no limit)
_DIGIT_LIMIT = sys.get_int_max_str_digits()


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    check: Callable[[int, str], bool]


def _json(out: str):
    try:
        return json.loads(out)
    except ValueError:
        return None


def _argv(*parts) -> tuple[str, ...]:
    return tuple(str(p) for p in parts)


# -- checks ------------------------------------------------------------------

def _check_verify(rc, out):
    body = _json(out)
    return (rc == 0 and body is not None and body["ok"] is True and body["suites"]
            and all(s["cases"] > 0 and s["ok"] for s in body["suites"]))


def _bezout_holds(w, m, n):
    return (w["m"] == m and w["n"] == n and w["u"] > 0 and w["v"] > 0
            and abs(w["v"] * n - 4 * w["u"] * m * m) == 1
            and w["N"] == 4 * w["u"] * m * m + w["v"] * n)


def _check_azumaya(m, n):
    def check(rc, out):
        body = _json(out)
        return (rc == 0 and body is not None and body["verdict"] == "decomposable"
                and body["witness"] is not None and _bezout_holds(body["witness"], m, n))
    return check


def _check_bezout(m, n):
    def check(rc, out):
        body = _json(out)
        return rc == 0 and body is not None and _bezout_holds(body, m, n)
    return check


def _check_usage_error(rc, out):
    return rc == 2 and out == ""


# Bott periodicity, degree mod 8; 0 stands for Z, k >= 2 for Z/k
_SP_STABLE = ([], [], [], [0], [2], [2], [], [0])
_SO_STABLE = ([2], [2], [], [0], [], [], [], [0])


def _pi_expected(family: str, n: int, i: int):
    if family in ("u", "gl"):
        return [] if i == 0 or i % 2 == 0 else [0]
    if family in ("so", "o"):
        if i == 0:
            return [2] if family == "o" else []
        return _SO_STABLE[i % 8]
    if family == "psp" and i <= 1:
        return [] if i == 0 else [2]
    if i < 4 * n:
        return _SP_STABLE[i % 8]
    if i < 4 * n + 2:
        return [2] if n % 2 else []
    return [factorial(2 * n + 1) * (2 if n % 2 else 1)]


def _check_pi(family, n, i):
    want = _pi_expected(family, n, i)

    def check(rc, out):
        body = _json(out)
        return rc == 0 and body is not None and body["group"] == want
    return check


def _check_induced(rc, out):
    body = _json(out)
    if rc != 0 or body is None:
        return False
    homs = body["candidates"].values() if body.get("z_dependent") else [body]
    for h in homs:
        if len(h["matrix"]) != len(h["target"]) or not h["valid_range"]:
            return False
        for row, order in zip(h["matrix"], h["target"]):
            if len(row) != len(h["source"]):
                return False
            if order and any(not 0 <= x < order for x in row):
                return False
    return True


def _check_bundle(m, n, dim):
    def check(rc, out):
        body = _json(out)
        if rc != 0 or body is None:
            return False
        if dim > n:
            return body["verdict"] == "not-covered"
        return body["verdict"] == "decomposable" and body["evidence"]["rank"] == 2 * m * n
    return check


def _check_connectivity(rc, out):
    body = _json(out)
    return rc == 0 and body is not None and body["connectivity"] == 7


def _check_postnikov(m, n):
    def check(rc, out):
        body = _json(out)
        if rc != 0 or body is None or body["pass"] is not True or body["rank"] != 2 * m * n:
            return False
        stages = [s["i"] for s in body["stages"]]
        degrees = [t["degree"] for s in body["stages"] for t in s["targets"]]
        return stages == list(range(3, n - 1, 8)) and all(d % 4 for d in degrees)
    return check


# -- input generators ----------------------------------------------------------

def _coprime_odd(rng: random.Random, m: int, lo: int, hi: int) -> int:
    while True:
        n = rng.randrange(lo | 1, hi + 1, 2)
        if gcd(m, n) == 1:
            return n


def _verify_default(rng):
    while True:
        yield Op(_argv("verify", "all", "--seed", rng.randrange(10 ** 6)),
                 _check_verify)


def _verify_edge(rng):
    # (1, 16, 1): the largest bounds whose biggest built matrix is 64x64
    while True:
        yield Op(_argv("verify", "all", "--max-m", 1, "--max-n", 16, "--max-r", 1,
                                 "--samples", 1, "--seed", rng.randrange(10 ** 6)),
                 _check_verify)


def _decide_large(rng):
    # n > 4m+3 makes the certificate loop run every degree below 4m+3
    m, n = 2000, 8001
    while True:
        yield Op(_argv("decide", "azumaya", "--m", m, "--n", n, "--dim", 7),
                 _check_azumaya(m, n))
        m = rng.randint(1900, 2000)
        n = _coprime_odd(rng, m, 4 * m + 5, 4 * m + 99)


def _top_order(n: int) -> int:
    """The order of pi_{4n+2} Sp(n): (2n+1)!, times 2 for odd n."""
    return factorial(2 * n + 1) * (2 if n % 2 else 1)


# the largest n whose top order prints: 778 at the default digit limit; above
# it the CLI exits 2 (the pi-huge-order probe below)
_MAX_TOP_N = bisect_left(range(1, 1001), True,
                         key=lambda n: bool(_DIGIT_LIMIT) and _top_order(n) >= 10 ** _DIGIT_LIMIT)


def _pi_op(rng):
    family = rng.choice(("sp", "psp", "so", "o", "u", "gl"))
    n = rng.randint(1, 1000)
    if family in ("sp", "psp"):
        if rng.random() < 0.5:
            n = rng.randint(1, _MAX_TOP_N)
            i = 4 * n + 2
        else:
            i = rng.randint(0, 4 * n + 1)
    elif family in ("so", "o"):
        i = rng.randint(0, max(0, n - 2))
    else:
        i = rng.randint(0, 2 * n - 1)
    return Op(_argv("pi", "--family", family, "--n", n, "--i", i), _check_pi(family, n, i))


def _induced_op(rng):
    """One of the nine induced-map ops, with inputs inside its validity window."""
    while True:
        op = rng.choice(("direct-sum", "r-fold", "doubling", "tensor-sp-o",
                         "tensor-quotient", "tensor-sp-sp", "square-tensor", "ttilde", "J"))
        m, n = rng.randint(1, 40), rng.randint(3, 200)
        if op == "direct-sum":
            top, flags = 4 * min(m, n) + 2, ("--m", m, "--n", n)
        elif op == "r-fold":
            top, flags = 4 * n + 2, ("--n", n, "--r", rng.randint(1, 6))
        elif op == "doubling":
            top, flags = n - 1, ("--n", n)
        elif op == "tensor-sp-o":
            top, flags = min(4 * m + 2, n - 1), ("--m", m, "--n", n)
        elif op == "tensor-quotient":
            n |= 1
            top, flags = min(4 * m + 2, n - 1), ("--m", m, "--n", n)
        elif op == "tensor-sp-sp":
            m, n = min(m, n), max(m, n)
            top, flags = min(4 * m + 2, 4 * m * n - 1), ("--m", m, "--n", n)
        elif op == "square-tensor":
            top, flags = min(4 * m + 2, 4 * m * m - 1), ("--m", m)
        else:
            m = max(m, 2)
            n = _coprime_odd(rng, m, 9, 201)
            top = min(4 * m + 2, n - 1) if op == "ttilde" else min(4 * m + 3, n)
            flags = ("--m", m, "--n", n)
        lo = 1 if op == "J" else 0
        if top > lo:
            i = rng.randrange(lo, top)
            return Op(_argv("induced", op, "--i", i, *flags), _check_induced)


def _out_of_domain_op(rng):
    """Inputs outside every domain; each must exit 2 with nothing on stdout."""
    k = rng.randrange(5)
    n = rng.randrange(3, 200, 2)
    if k == 0:
        argv = ("pi", "--family", rng.choice(("sp", "so", "u")), "--n", 0, "--i", 3)
    elif k == 1:
        argv = ("pi", "--family", "sp", "--n", n, "--i", -rng.randint(1, 9))
    elif k == 2:
        argv = ("induced", "direct-sum", "--m", 2, "--n", 3, "--i", 14 + rng.randint(0, 9))
    elif k == 3:
        argv = ("bezout", "--m", rng.randint(1, 50), "--n", 2 * rng.randint(2, 99))
    else:
        argv = ("connectivity", "--m", 3, "--n", 2 * rng.randint(5, 99))
    return Op(_argv(*argv), _check_usage_error)


def _queries(rng):
    while True:
        r = rng.random()
        if r < 0.30:
            yield _pi_op(rng)
        elif r < 0.55:
            yield _induced_op(rng)
        elif r < 0.63:
            m = rng.randint(1, 200)
            n = _coprime_odd(rng, m, 3, 2001)
            yield Op(_argv("bezout", "--m", m, "--n", n), _check_bezout(m, n))
        elif r < 0.71:
            m = rng.randint(2, 40)
            n = _coprime_odd(rng, m, 9, 4 * m + 41)
            yield Op(_argv("decide", "azumaya", "--m", m, "--n", n, "--dim", rng.randint(0, 7)),
                     _check_azumaya(m, n))
        elif r < 0.76:
            m, n = rng.randint(1, 20), rng.randrange(3, 120, 2)
            dim = rng.randint(0, n + 3)
            yield Op(_argv("decide", "bundle", "--m", m, "--n", n, "--dim", dim),
                     _check_bundle(m, n, dim))
        elif r < 0.83:
            m = rng.randint(2, 40)
            n = _coprime_odd(rng, m, 9, 4 * m + 41)
            yield Op(_argv("connectivity", "--m", m, "--n", n), _check_connectivity)
        elif r < 0.90:
            m, n = rng.randint(1, 20), rng.randrange(3, 400, 2)
            yield Op(_argv("postnikov", "--n", n, "--m", m), _check_postnikov(m, n))
        else:
            yield _out_of_domain_op(rng)


# Inputs on which the CLI is known to answer wrongly, each with the check it
# would get in a workload.  They are not in any workload's timed mix, since
# their failures would make ``failed`` vary with how many operations a run
# fits; every run executes all of them once after the timed loop.
KNOWN_DEFECT_PROBES = (
    ("pi-huge-order",
     "pi at degree 4n+2 exits 2 once the order has more than 4300 digits (sp/psp, n > 778)",
     tuple(Op(_argv("pi", "--family", f, "--n", n, "--i", 4 * n + 2), _check_pi(f, n, 4 * n + 2))
           for f, n in (("sp", 779), ("psp", 780), ("sp", 1000)))),
    ("bezout-negative-m",
     "bezout --m -1 returns a witness instead of exiting 2",
     tuple(Op(_argv("bezout", "--m", -1, "--n", n), _check_usage_error) for n in (3, 199))),
    ("bundle-negative-dim",
     "decide bundle --dim -5 returns a verdict instead of exiting 2",
     (Op(_argv("decide", "bundle", "--m", 0, "--n", 3, "--dim", -5), _check_usage_error),)),
)


_GENERATORS = {
    "verify-default": _verify_default,
    "verify-edge": _verify_edge,
    "decide-large": _decide_large,
    "queries": _queries,
}


def operations(workload: str, seed: int) -> Iterator[Op]:
    """Endless, seeded stream of operations for one workload."""
    return _GENERATORS[workload](random.Random(f"bench_e2e:{workload}:{seed}"))
