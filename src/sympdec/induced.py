"""Homomorphisms induced on homotopy groups by the group operations.

The formulas form one table, FORMULAS, keyed by CLI op.  One build path
turns an entry into an AbHom: an integer matrix on the chosen generators of
finitely generated abelian groups, with entries reduced modulo the target
orders, and nothing else.  A build has two halves.  The binding does what
does not depend on the degree, once: it checks the param names, takes the
Bezout default, runs the checks listed before the window and resolves each
part to its table and size.  The per-degree step checks the window, looks
each part up in its table and applies the rule, which gives integer rows
and an unformatted provenance; the checks listed after the window read
only the binding, so they run once, at its first degree.  The AbHom is
made straight from the part groups and the rows, in one checking pass
(below).  homs(op, degrees, **params), the one builder, runs the
per-degree step over a run of degrees from one binding and makes one AbHom
per distinct (part groups, rows) of the run; one degree is homs(op, [i],
**params).  describe(op, i, **params) adds the text the induced command
prints: generator names, the rule's provenance and the window's bound, the
only text a build formats.  Formulas refuse degrees outside their validity
windows instead of extrapolating; the windows are part of the mathematics.

The entries ttilde and J take a Bezout witness (u, v) with
|v*n - 4*u*m^2| = 1.  It is made here too: bezout_uv(m, n) makes the
minimal one, which is their default, and their checks refuse a given
(u, v) that is not a witness.

Every AbHom is made by one checking pass over its integers, _checked:
those homs() builds, straight from the rule's rows with no
IntMatrix checked on the way, and those the public constructor
AbHom(source, target, IntMatrix) makes, including the results of compose
and diagonal_hom.  The pass applies operator.index to each entry, reduces
it modulo its target order and checks well-definedness (each generator of
finite order a maps to an element that a kills), and forms the map's key,
(source factors, target factors, reduced entries), and its hash, which
equality and hash use.

A build looks its parts up through the case functions of homotopy.TABLES,
which hand it the group and keep the provenance unformatted; it formats a
table's provenance only for the error that refuses a part.

Generators are identified along the stabilization maps, so a formula's
matrix is stated relative to that identification.  Trivial factors carry
no generators: a map written (x, y) -> v*y on 0 x Z/2 is emitted as the
1 x 1 matrix [v mod 2].
"""

from __future__ import annotations

from math import gcd, prod
from operator import attrgetter, index
from types import SimpleNamespace
from typing import Callable, NamedTuple

from sympdec.abgroup import FgAbGroup
from sympdec.errors import (
    BadBezoutError,
    EvenNError,
    MalformedHomError,
    NotCoprimeError,
    OutOfRangeError,
    ShapeMismatchError,
)
from sympdec.homotopy import GROUP, TABLES
from sympdec.intmatrix import IntMatrix, smith_normal_form

_FACTORS = attrgetter("factors")


# -- homomorphisms of finitely generated abelian groups -----------------------

class AbHom:
    """A homomorphism source -> target: matrix columns are indexed by source
    generators, rows by target generators.

    The constructor checks the matrix's shape against the groups and makes
    the map by the checking pass every AbHom goes through (_checked), which
    keeps the key (source factors, target factors, reduced entries) and its
    hash; equality and hash use the key, so equal maps compare and hash
    equal.  Assignment raises AttributeError.
    """

    __slots__ = ("source", "target", "matrix", "_key", "_hash")
    __setattr__ = FgAbGroup.__setattr__

    def __init__(self, source: FgAbGroup, target: FgAbGroup, matrix: IntMatrix):
        src, tgt = source.factors, target.factors
        if matrix.rows != len(tgt) or matrix.cols != len(src):
            raise MalformedHomError(
                f"matrix is {matrix.rows}x{matrix.cols}, need {len(tgt)}x{len(src)}")
        # one part per generator on each side, one coefficient per entry
        _checked(self, source, target, [*zip(src)], zip(tgt), matrix.row_lists())

    def __eq__(self, other):
        if not isinstance(other, AbHom):
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return self._hash


# the slots' own descriptors store each field past the immutability guard
_set_source, _set_target, _set_matrix, _set_key, _set_hash = (
    AbHom.__dict__[name].__set__ for name in AbHom.__slots__)


def _checked(h: AbHom, source: FgAbGroup, target: FgAbGroup, source_parts, target_parts,
             rows) -> AbHom:
    """Make h the map source -> target whose rows give one coefficient per
    source part, one row per target part, where a part is a tuple of cyclic
    orders and source and target are the products of the parts.

    One pass over the coefficients expands each over its parts' factors,
    applies operator.index (a float raises TypeError), reduces it modulo
    the target order and checks well-definedness: a generator of finite
    order a must map to an element that a kills.  A wrong number of entries
    raises ShapeMismatchError, an ill-defined map MalformedHomError, naming
    the first offending entry in column order.  Returns h.
    """
    src, tgt = source.factors, target.factors
    cols = len(src)
    data = []
    bad = []   # (column, row, order, entry) of each ill-defined entry
    for tf, row in zip(target_parts, rows):
        for t in tf:
            for sf, x in zip(source_parts, row):
                for a in sf:
                    e = index(x) % t if t else index(x)
                    if a and (a * e % t if t else e):
                        bad.append((len(data) % cols, len(data) // cols, a, e))
                    data.append(e)
    if len(data) != len(tgt) * cols:
        raise ShapeMismatchError(f"expected {len(tgt) * cols} entries, got {len(data)}")
    if bad:
        _, r, a, e = min(bad)
        raise MalformedHomError(f"generator of order {a} maps to an element of infinite or "
                                f"incompatible order (entry {e} at row {r})")
    key = (src, tgt, tuple(data))
    _set_source(h, source)
    _set_target(h, target)
    _set_matrix(h, IntMatrix._raw(len(tgt), cols, data))
    _set_key(h, key)
    _set_hash(h, hash(key))   # the certificate looks each map up many times
    return h


class ZDependent(NamedTuple):
    """A homomorphism that depends on an undetermined mod-2 parameter z.

    Decisions must be evaluated for both candidates and agree; otherwise
    the caller reports the question as z-sensitive.
    """

    z0: AbHom
    z1: AbHom

    @property
    def candidates(self) -> tuple[tuple[int, AbHom], tuple[int, AbHom]]:
        return ((0, self.z0), (1, self.z1))


def diagonal_hom(g: FgAbGroup) -> AbHom:
    """x -> (x, x) into the doubled group."""
    n = g.ngens
    ident = IntMatrix.identity(n).data
    return AbHom(g, FgAbGroup.product(g, g), IntMatrix._raw(2 * n, n, ident + ident))


def compose(outer: AbHom, inner: AbHom) -> AbHom:
    if inner.target != outer.source:
        raise MalformedHomError("composition chain mismatch")
    return AbHom(inner.source, outer.target, outer.matrix @ inner.matrix)


def _presentation_matrix(h: AbHom) -> IntMatrix:
    """[matrix | target-order relation columns], built straight from the
    matrix's entries: row r is the map's row r, then the order of target
    generator r in its own relation column and 0 in the others."""
    m, tgt = h.matrix, h.target.factors
    c, entries = m.cols, m.data
    orders = [order for order in tgt if order]
    data, k = [], 0
    for r, order in enumerate(tgt):
        data += entries[r * c:(r + 1) * c]
        relations = [0] * len(orders)
        if order:
            relations[k] = order
            k += 1
        data += relations
    return IntMatrix._raw(m.rows, c + len(orders), data)


def is_isomorphism(h: AbHom) -> bool:
    """h: A -> B is an isomorphism exactly when it is onto and A and B have
    the same rank and the same torsion order.

    Onto between equal ranks leaves a finite kernel, so every preimage of a
    torsion element is torsion: h maps the torsion of A onto that of B with
    the whole kernel, and equal orders make it trivial.  h is onto when the
    presentation [matrix | target relations] has target.ngens invariant
    factors, all 1; its Smith normal form runs only when both counts agree.
    """
    a, b = h.source.factors, h.target.factors
    if a.count(0) != b.count(0) or prod(filter(None, a)) != prod(filter(None, b)):
        return False
    factors = smith_normal_form(_presentation_matrix(h))
    return len(factors) == len(b) and all(x == 1 for x in factors)


# -- the Bezout witness --------------------------------------------------------

class BezoutWitness(NamedTuple):
    m: int
    n: int
    u: int
    v: int
    sign: int
    N: int


def _check_domain(m: int, n: int, dim: int = 0) -> None:
    """Sizes are positive and dimensions nonnegative; ValueError otherwise."""
    if m < 1 or n < 1:
        raise ValueError(f"m and n must be positive; got m = {m}, n = {n}")
    if dim < 0:
        raise ValueError(f"dim must be nonnegative; got dim = {dim}")


def _coprime(m, n):
    if gcd(m, n) != 1:
        raise NotCoprimeError(f"need gcd(m, n) = 1; got gcd({m}, {n}) = {gcd(m, n)}")


def bezout_uv(m: int, n: int) -> BezoutWitness:
    """Minimal positive witness with |v*n - 4*u*m^2| = 1 and N = 4*u*m^2 + v*n.

    Requires gcd(m, n) = 1 and odd n, so gcd(4m^2, n) = 1.  Among the two
    solution families (one per sign) the witness takes the smallest u > 0,
    breaking ties by the smaller v.
    """
    _check_domain(m, n)
    if n % 2 == 0:
        raise EvenNError("witness requires odd n")
    _coprime(m, n)
    mm4 = 4 * m * m
    b = pow(mm4, -1, n)   # b*4m^2 = 1 (mod n)
    candidates = []
    for sign in (1, -1):
        # v*n - 4*u*m^2 = sign, so u = -sign*b (mod n)
        u = (-sign * b) % n
        if u == 0:
            u = n
        v = (sign + mm4 * u) // n
        assert v * n - mm4 * u == sign and v > 0
        candidates.append((u, v, sign))
    u, v, sign = min(candidates, key=lambda t: (t[0], t[1]))
    return BezoutWitness(m, n, u, v, sign, mm4 * u + v * n)


# -- the formula table ---------------------------------------------------------

_FAMILIES = {f: (TABLES[f], name)
             for f, name in (("sp", "Sp"), ("psp", "PSp"), ("so", "SO"), ("o", "O"))}

_SIZES = {
    "m": lambda p: p.m,
    "n": lambda p: p.n,
    "m+n": lambda p: p.m + p.n,
    "rn": lambda p: p.r * p.n,
    "mn": lambda p: p.m * p.n,
    "4mn": lambda p: 4 * p.m * p.n,
    "4m^2": lambda p: 4 * p.m * p.m,
    "N": lambda p: 4 * p.u * p.m * p.m + p.v * p.n,
}

_WINDOW = "window"


class Formula(NamedTuple):
    """One induced-map formula; FORMULAS holds one per CLI op.

    A part is (homotopy family, size rule); the size rule's key also names
    the size in lookup errors.  A window clause is (bound text, exclusive
    upper limit of i, or None where the clause does not apply at i).
    rule(i, p) returns one coefficient row per target part, one coefficient
    per source part, and the provenance as a str.format template and its
    arguments, which only describe formats.

    From degree period_from on, every part the entry reads lies in its
    family's stable range, where the table depends only on i mod 8 (Bott,
    "The stable homotopy of the classical groups", Ann. of Math. 70, 1959),
    and so does the rule.  So wherever i >= period_from and i + 8 both lie
    in the window, the maps at i and i + 8 have the same source, target and
    matrix.  Below it the connected components and fundamental groups of the
    parts, or a z-dependent degree, break the pattern.
    """

    params: tuple[str, ...]                 # the names homs takes after the degrees
    sources: tuple[tuple[str, str], ...]
    targets: tuple[tuple[str, str], ...]
    window: tuple[tuple[str, Callable], ...]
    rule: Callable
    checks: tuple = (_WINDOW,)              # run in order; _WINDOW tests the window
    shift: int = 0                          # 1: i is a classifying degree, parts sit at i - 1
    z_degree: int | None = None             # the degree whose map depends on z
    label: Callable = lambda i: f"pi_{i}"   # generator-name prefix at degree i
    period_from: int = 0                    # maps at i and i + 8 agree from here on


def _holds(text, cond):
    def check(p):
        if not cond(p):
            raise OutOfRangeError(f"violated bound: {text}")
    return check


def _odd_n(message):
    def check(p):
        if p.n % 2 == 0:
            raise EvenNError(message)
    return check


def _bezout(p):
    if p.u < 1 or p.v < 1 or abs(p.v * p.n - 4 * p.u * p.m * p.m) != 1:
        raise BadBezoutError(
            f"need positive u, v with |v*n - 4*u*m^2| = 1; got u={p.u}, v={p.v}")


def _ttilde_rule(i, p):
    r = i % 8
    if i == 1:
        return [(p.z, 1)], "auxiliary map in degree 1: z*x + y with z = {}", (p.z,)
    if i > 1 and r in (0, 1):
        return [(0, p.v)], "auxiliary map: v*y in degrees 0, 1 (mod 8)", ()
    if r == 3:
        return [(2 * p.u * p.m, p.v)], "auxiliary map: 2um*x + v*y in degree 3 (mod 8)", ()
    if r == 7:
        return [(8 * p.u * p.m, p.v)], "auxiliary map: 8um*x + v*y in degree 7 (mod 8)", ()
    return [(0, 0)], "auxiliary map: zero in degrees 2, 4, 5, 6 (mod 8)", ()


def _pairing_rule(i, p):
    """The quotient tensor row over the auxiliary row, one group degree down."""
    if i == 2:
        return [(1, 0), (p.z, 1)], "pairing map in degree 2: (x, z*x + y) with z = {}", (p.z,)
    g = i - 1
    rows = FORMULAS["tensor-quotient"].rule(g, p)[0] + FORMULAS["ttilde"].rule(g, p)[0]
    if i == 1:
        return rows, "pairing map in degree 1: trivial groups", ()
    return rows, "pairing map at classifying degree {} (group degree {})", (i, g)


FORMULAS = {
    "direct-sum": Formula(
        ("m", "n"), (("sp", "m"), ("sp", "n")), (("sp", "m+n"),),
        (("i < 4*min(m,n)+2", lambda i, p: 4 * min(p.m, p.n) + 2),),
        lambda i, p: ([(1, 1)], "direct sum: x + y", ())),
    "r-fold": Formula(
        ("n", "r"), (("sp", "n"),), (("sp", "rn"),),
        (("i < 4n+2", lambda i, p: 4 * p.n + 2),),
        lambda i, p: ([(p.r,)], "{0}-fold direct sum: {0}*x", (p.r,)),
        checks=(_holds("r >= 1", lambda p: p.r >= 1), _WINDOW)),
    "doubling": Formula(
        ("n",), (("o", "n"),), (("sp", "n"),),
        (("i < n-1", lambda i, p: p.n - 1),),
        lambda i, p: ([(2 if i % 8 in (3, 7) else 0,)],
                      "doubling: 2*x onto the even part in degrees 3, 7 (mod 8); zero otherwise",
                      ())),
    "tensor-sp-o": Formula(
        ("m", "n"), (("sp", "m"), ("o", "n")), (("sp", "mn"),),
        (("i < 4m+2", lambda i, p: 4 * p.m + 2), ("i < n-1", lambda i, p: p.n - 1)),
        lambda i, p: ([(p.n, 2 * p.m)], "tensor product: n*x + 2m*y", ())),
    "tensor-quotient": Formula(
        ("m", "n"), (("psp", "m"), ("so", "n")), (("psp", "mn"),),
        (("i < 4m+2", lambda i, p: 4 * p.m + 2),
         ("i < n-1", lambda i, p: p.n - 1 if i >= 2 else None)),
        lambda i, p: ([(0, 0)], "quotient tensor product: zero in degrees 0, 1", ()) if i <= 1
        else ([(p.n, 2 * p.m)], "quotient tensor product: n*x + 2m*y", ()),
        checks=(_odd_n("quotient tensor product needs odd n"), _WINDOW), period_from=2),
    "tensor-sp-sp": Formula(
        ("m", "n"), (("sp", "m"), ("sp", "n")), (("o", "4mn"),),
        (("i < 4m+2", lambda i, p: 4 * p.m + 2), ("i < 4mn-1", lambda i, p: 4 * p.m * p.n - 1)),
        lambda i, p: ([{3: (p.n, p.m), 7: (4 * p.n, 4 * p.m)}.get(i % 8, (0, 0))],
                      "orthonormalized tensor product: n*x + m*y in degree 3, "
                      "4(n*x + m*y) in degree 7 (mod 8), zero otherwise", ()),
        checks=(_holds("m <= n", lambda p: p.m <= p.n), _WINDOW)),
    "square-tensor": Formula(
        ("m",), (("sp", "m"),), (("o", "4m^2"),),
        (("i < 4m+2", lambda i, p: 4 * p.m + 2), ("i < 4m^2-1", lambda i, p: 4 * p.m * p.m - 1)),
        lambda i, p: ([({3: 2 * p.m, 7: 8 * p.m}.get(i % 8, 0),)],
                      "squared tensor product: 2m*x in degree 3, 8m*x in degree 7 (mod 8), "
                      "zero otherwise", ())),
    # the auxiliary homomorphism into SO(N), N = 4um^2 + vn; in degree 1 the
    # first coefficient is an undetermined z in Z/2
    "ttilde": Formula(
        ("m", "n", "u", "v", "z"), (("psp", "m"), ("so", "n")), (("so", "N"),),
        (("i < min(4m+2, n-1)", lambda i, p: min(4 * p.m + 2, p.n - 1)),),
        _ttilde_rule,
        checks=(_bezout, _WINDOW), z_degree=1, period_from=2),
    # the classifying-space pairing of tensor-quotient with ttilde; i is a
    # classifying-space degree over group degree i - 1, and degree 2 depends
    # on z exactly as ttilde's degree 1 does
    "J": Formula(
        ("m", "n", "u", "v", "z"), (("psp", "m"), ("so", "n")), (("psp", "mn"), ("so", "N")),
        (("0 < i < min(4m+3, n)", lambda i, p: min(4 * p.m + 3, p.n)),),
        _pairing_rule,
        checks=(_odd_n("pairing map needs odd n"), lambda p: _coprime(p.m, p.n), _WINDOW,
                _bezout),
        # degree 2 is stated on the classifying spaces, higher degrees on the groups
        shift=1, z_degree=2, label=lambda i: "pi_2 B" if i == 2 else f"pi_{i - 1}",
        period_from=3),
}
# the params homs needs, per op: u, v default to the Bezout witness and z to both candidates
REQUIRED = {op: tuple(q for q in f.params if q not in ("u", "v", "z"))
            for op, f in FORMULAS.items()}


def _bound(f: Formula, limits) -> str:
    """The window's bound text, one clause per limit that applies."""
    return " and ".join(f"{text} = {limit}" for (text, _), limit in zip(f.window, limits)
                        if limit is not None)


# per op: the checks listed before _WINDOW, those listed after it, and the
# source and target parts, each as (table case, family name, size text, size
# rule), where a table case is a homotopy.TABLES case function
_PLANS = {op: (f.checks[:f.checks.index(_WINDOW)], f.checks[f.checks.index(_WINDOW) + 1:],
               *(tuple((*_FAMILIES[family], size, _SIZES[size]) for family, size in parts)
                 for parts in (f.sources, f.targets)))
          for op, f in FORMULAS.items()}


def _bind(op: str, params: dict) -> tuple:
    """The degree-free half of a build: the param names, the Bezout default,
    the checks listed before _WINDOW, and each part's size.

    Returns the binding (formula, params namespace, z as given, checks
    listed after _WINDOW still to run, source parts, target parts), where a
    part is (table case, family name, size text, size).  A param passed as
    None counts as left out, so a required one raises TypeError.
    """
    f = FORMULAS[op]
    if params.keys() - f.params or None in map(params.get, REQUIRED[op]):
        raise TypeError(f"{op} takes {', '.join(f.params)}; got {', '.join(params) or 'none'}")
    p = SimpleNamespace(**params)
    if "u" in f.params and (params.get("u") is None or params.get("v") is None):
        w = bezout_uv(p.m, p.n)
        p.u, p.v = w.u, w.v
    before, after, sources, targets = _PLANS[op]
    for check in before:
        check(p)
    return (f, p, params.get("z"), [*after],
            [(case, name, size, k(p)) for case, name, size, k in sources],
            [(case, name, size, k(p)) for case, name, size, k in targets])


def _groups(parts, degree: int) -> list[FgAbGroup]:
    """The group of each part at degree, read off its table's case function;
    refuses a degree where a table answers no group, and only then formats
    that table's provenance."""
    groups = []
    for case, name, size, k in parts:
        kind, group, template, args = case(degree, k)
        if kind != GROUP:
            raise OutOfRangeError(f"pi_i {name}({size}): {template.format(*args)}")
        groups.append(group)
    return groups


def _build(b: tuple, i: int):
    """The per-degree half of a build, on the binding b: the window, one
    table lookup per part and the rule once per z candidate.  The checks
    listed after the window read only the binding's params, so they run at
    the binding's first degree that passes the window, and then never again.
    Returns (window limits, source groups, target groups, [(rows,
    provenance template, template args) per z candidate]); two candidates,
    for z = 0 and z = 1, mean the map depends on z."""
    f, p, pinned, after, source_parts, target_parts = b
    limits = [limit(i, p) for _, limit in f.window]
    if i < f.shift:
        # J's window text states its lower bound (0 < i); the other texts state none
        raise OutOfRangeError(f"violated bound: {_bound(f, limits) if f.shift else 'i >= 0'}")
    for limit in limits:
        if limit is not None and i >= limit:
            raise OutOfRangeError(f"violated bound: {_bound(f, limits)}")
    if after:
        for check in after:
            check(p)
        after.clear()
    d = i - f.shift
    sources, targets = _groups(source_parts, d), _groups(target_parts, d)
    rules = []
    for z in (0, 1) if i == f.z_degree and pinned is None else (pinned and pinned % 2,):
        p.z = z
        rules.append(f.rule(i, p))
    return limits, sources, targets, rules


def _hom(sources, targets, rows) -> AbHom:
    """The AbHom that a rule's rows give on the part groups, made by the one
    checking pass straight from the rows."""
    return _checked(object.__new__(AbHom), FgAbGroup.product(*sources),
                    FgAbGroup.product(*targets), [*map(_FACTORS, sources)],
                    map(_FACTORS, targets), rows)


def homs(op: str, degrees, **params):
    """Build table entry op at each i of degrees, in order, from one binding
    of the entry to params, and yield (i, map); e.g. homs("tensor-sp-o", [3],
    m=2, n=5) is the one degree 3.

    params are the entry's FORMULAS[op].params, passed by name; a name the
    entry does not take, or a missing required one (None counts as missing),
    raises TypeError.  u and v default to the minimal Bezout witness of
    (m, n), which replaces both when either is missing.  z pins the
    undetermined mod-2 coefficient of the entry's z-dependent degree; left
    unset there, the map is a ZDependent holding both candidates, and
    otherwise an AbHom.

    The params are checked once, when the first map is asked for, so an
    empty run checks them too, and the checks listed after the window run
    once, at the first degree.  Each degree still gets its own window check,
    table lookups and rule rows, and raises what a run of that degree alone
    would raise.  The checked AbHom is built once per distinct key (the part
    groups and the rule's rows) of the run: a degree whose key an earlier
    degree of the run had gets that degree's map, the same object.  The memo
    lives as long as the generator.
    """
    b = _bind(op, params)
    built = {}
    for i in degrees:
        _, sources, targets, rules = _build(b, i)
        groups = tuple(map(_FACTORS, sources + targets))
        maps = []
        for rows, _, _ in rules:
            key = (groups, *rows)
            h = built.get(key)
            if h is None:
                h = built[key] = _hom(sources, targets, rows)
            maps.append(h)
        yield i, ZDependent(*maps) if len(maps) == 2 else maps[0]


def describe(op: str, i: int, **params) -> dict:
    """What `sympdec induced` prints for the map homs(op, [i], **params)
    yields: each map with its generator names (degree label and part, once
    per factor of the part's group), the rule's provenance and the window's
    bound text."""
    b = _bind(op, params)
    limits, sources, targets, rules = _build(b, i)
    source_parts, target_parts = b[4:]
    label = FORMULAS[op].label(i)
    source_names, target_names = ([f"{label} {name}({k})" for (_, name, _, k), g in sides
                                   for _ in g.factors]
                                  for sides in (zip(source_parts, sources),
                                                zip(target_parts, targets)))
    bound = _bound(b[0], limits)

    def text(rows, template, args):
        h = _hom(sources, targets, rows)
        return {"source": list(h.source.factors), "target": list(h.target.factors),
                "source_names": source_names, "target_names": target_names,
                "matrix": h.matrix.row_lists(), "provenance": template.format(*args),
                "valid_range": bound}

    if len(rules) == 1:
        return {"op": op, "i": i, **text(*rules[0])}
    return {"op": op, "i": i, "z_dependent": True,
            "candidates": {str(z): text(*rule) for z, rule in enumerate(rules)}}
