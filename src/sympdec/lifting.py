"""Decision layer: pairing-map connectivity, decomposability verdicts,
no-section obstructions, and obstruction-degree bookkeeping.

A report never claims more than its rule proves: failing the hypotheses of
a decomposition rule yields a not-covered verdict, possibly with obstruction
data attached as evidence.  The obstruction rules out a section of the
universal tensor map, not the decomposition of the given input, so it never
becomes the verdict.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from sympdec.abgroup import FgAbGroup
from sympdec.errors import EvenNError, HypothesisFailureError
from sympdec.homotopy import SO_TORSION_PAIRS
from sympdec.induced import (FORMULAS, AbHom, BezoutWitness, ZDependent, _check_domain,
                             bezout_uv, homs, is_isomorphism)

DECOMPOSABLE = "decomposable"
NOT_COVERED = "not-covered"

# the small odd sizes whose orthogonal homotopy is recorded as torsion-only,
# each with its classifying-space degree
SMALL_ODD_CASES = {n: i + 1 for i, n in SO_TORSION_PAIRS}

KIND_HIGH_N = "sphere_4m+4"
KIND_SMALL_N = "sphere_C"


class Obstruction(NamedTuple):
    degree: int
    image: str
    case: str
    source: FgAbGroup
    target: FgAbGroup
    note: str


class DecisionReport(NamedTuple):
    verdict: str
    rule: str
    m: int
    n: int
    dim: int | None = None
    witness: BezoutWitness | None = None
    obstruction: Obstruction | None = None
    factors: tuple[str, str] | None = None
    notes: tuple[str, ...] = ()
    evidence: dict | None = None


def connectivity_j(m: int, n: int) -> int:
    """Certify the pairing map as 7-connected and return 7.

    The pairing map must be an isomorphism on homotopy in every degree
    0 < i < T = min(4m+3, n) with i not divisible by 8; multiples of 8 are
    the first degrees where invertibility can genuinely fail, hence the
    certificate stops at 7.

    The window lies in the stable range of every part: PSp(m) up to group
    degree 4m+1 (the boundary degrees 4m, 4m+1 give the stable group of
    their residue), SO(n) below n-1, and the larger targets.  There each
    table depends only on i mod 8 (Bott, "The stable homotopy of the
    classical groups", Ann. of Math. 70, 1959) and so does the formula, so
    from the J entry's period_from = 3 on, the map at i + 8 has the same
    source, target and matrix as the map at i.  Every degree of the window
    therefore carries the map of a degree below period_from + 8 = 11, and
    those degrees are certified.  The nine degrees below T, where the
    symplectic side reaches its boundary, are certified as well.  That is
    at most 17 maps, whatever m and n are, visited in ascending order so
    that a failure names the smallest failing degree of the whole window.

    The degrees are built as one run of induced.homs, from one binding of
    the J formula to (m, n, u, v): the params are checked, the Bezout check
    runs and each part is resolved to its table and size once, while each
    degree still gets its own window check, table lookups and rule rows.
    The maps repeat across degrees, and the run makes one checked AbHom per
    distinct map (part groups and rows), handing a later degree with the
    same key the same object.  Each degree is built once with the mod-2
    parameter z left unset: only degree 2 depends on it, and there both
    candidates are checked.  Verdicts are memoised for this call on the
    map, so each distinct map gets at most one Smith normal form.
    """
    _check_domain(m, n)
    if n % 2 == 0:
        raise EvenNError("connectivity certificate requires odd n")
    w = bezout_uv(m, n)   # refuses m and n that are not coprime
    if m <= 1:
        raise HypothesisFailureError("m > 1 required")
    if n <= 7:
        raise HypothesisFailureError("n > 7 required")
    return _certify_pairing(w)


def _certificate_degrees(m: int, n: int) -> list[int]:
    """The degrees connectivity_j builds, ascending: those of the window below
    period_from + 8 and the nine below its top, skipping multiples of 8."""
    top = min(4 * m + 3, n)
    period = FORMULAS["J"].period_from + 8
    return [i for i in sorted({*range(1, min(period, top)), *range(max(1, top - 9), top)})
            if i % 8]


def _certify_pairing(w: BezoutWitness) -> int:
    """The certificate of connectivity_j for the witness w of (w.m, w.n), whose
    hypotheses the caller has checked; returns 7 or raises HypothesisFailureError."""
    verdicts: dict[AbHom, bool] = {}
    for i, h in homs("J", _certificate_degrees(w.m, w.n), m=w.m, n=w.n, u=w.u, v=w.v):
        for z, hz in h.candidates if isinstance(h, ZDependent) else ((None, h),):
            iso = verdicts.get(hz)
            if iso is None:
                iso = verdicts[hz] = is_isomorphism(hz)
            if not iso:
                at = f"degree {i}" if z is None else f"degree {i} (z = {z})"
                raise HypothesisFailureError(
                    f"pairing map fails to be an isomorphism at {at}"
                )
    return 7


def no_section_witness(m: int, n: int) -> Obstruction | None:
    """Obstruction showing the tensor classifying map admits no section.

    At one classifying degree the map is recorded as multiplication by a
    coefficient k on Z, so its image is kZ, a proper subgroup of Z only for
    k >= 2.  Case one: 1 < m and 4m+4 < n; at degree 4m+4 the source is
    Z/2 x Z, whose torsion column is forced to zero while the free column
    carries k = m.  Case two: n in {3, 5, 7}, whose orthogonal factor is
    torsion at the recorded degree and contributes nothing, and k = n; the
    degree must be stable on the symplectic side (at most 4m+2), or the
    table cannot justify the free source.  Returns None when neither case
    applies.
    """
    if n % 2 == 0:
        raise EvenNError("no-section cases require odd n")
    if 1 < m and 4 * m + 4 < n:
        case, degree, k, name, source = KIND_HIGH_N, 4 * m + 4, m, "m", FgAbGroup((2, 0))
    elif n in SMALL_ODD_CASES and SMALL_ODD_CASES[n] <= 4 * m + 2:
        case, degree, k, name, source = KIND_SMALL_N, SMALL_ODD_CASES[n], n, "n", FgAbGroup((0,))
    else:
        return None
    return Obstruction(
        degree=degree,
        image=f"{k}Z",
        case=case,
        source=source,
        target=FgAbGroup((0,)),
        note=f"image {name}*Z = {k}Z is a proper subgroup of Z, so no section exists",
    )


def _first_failing_azumaya_hypothesis(m: int, n: int, dim: int) -> str | None:
    if dim > 7:
        return f"dim = {dim} exceeds 7"
    if gcd(m, n) != 1:
        return f"gcd({m}, {n}) = {gcd(m, n)} is not 1"
    if m <= 1:
        return f"m = {m} is not greater than 1"
    if n <= 7:
        return f"n = {n} is not greater than 7"
    if n % 2 == 0:
        return f"n = {n} is even"
    return None


def decide_azumaya(m: int, n: int, dim: int) -> DecisionReport:
    """Decomposability verdict for degree-2mn algebras with symplectic involution.

    Decomposable when dim <= 7, gcd(m, n) = 1, m > 1 and n > 7 odd; the
    report then carries the Bezout witness behind the certificate.
    Otherwise the verdict is not-covered naming the first failing
    hypothesis, with any applicable no-section obstruction attached as
    evidence (the obstruction rules out the universal section, not the
    given input, so it does not upgrade the verdict).
    """
    _check_domain(m, n, dim)
    rule = "azumaya-decomposition (dim <= 7; coprime; m > 1; odd n > 7)"
    failing = _first_failing_azumaya_hypothesis(m, n, dim)
    if failing is None:
        w = bezout_uv(m, n)
        _certify_pairing(w)
        return DecisionReport(
            verdict=DECOMPOSABLE,
            rule=rule,
            m=m, n=n, dim=dim,
            witness=w,
            factors=(
                f"degree {2 * m} algebra with symplectic involution",
                f"degree {n} algebra with orthogonal involution, Brauer-trivial",
            ),
            notes=("pairing map certified 7-connected",),
        )
    obstruction = no_section_witness(m, n) if n % 2 else None
    notes = [f"hypothesis failed: {failing}"]
    if obstruction is not None:
        notes.append("no-section obstruction applies to the universal tensor map")
    return DecisionReport(
        verdict=NOT_COVERED,
        rule=rule,
        m=m, n=n, dim=dim,
        obstruction=obstruction,
        notes=tuple(notes),
    )


def decide_bundle(m: int, n: int, dim: int) -> DecisionReport:
    """Decomposability verdict for rank-2mn symplectic bundles: odd n, dim <= n."""
    _check_domain(m, n, dim)
    rule = "bundle-decomposition (odd n; dim <= n)"
    failing = (f"n = {n} is even" if n % 2 == 0
               else f"dim = {dim} exceeds n = {n}" if dim > n else None)
    if failing is not None:
        return DecisionReport(
            verdict=NOT_COVERED, rule=rule, m=m, n=n, dim=dim,
            notes=(f"hypothesis failed: {failing}",),
        )
    evidence = postnikov_degree_check(m, n)
    return DecisionReport(
        verdict=DECOMPOSABLE,
        rule=rule,
        m=m, n=n, dim=dim,
        factors=(
            f"symplectic bundle of rank {2 * m}",
            f"orthogonal bundle of rank {n}",
        ),
        notes=("all obstruction degrees avoid the nonzero cohomology of the skeleton",),
        evidence=evidence,
    )


def postnikov_degree_check(m: int, n: int) -> dict:
    """Confirm every tower obstruction lands in a degree not divisible by 4.

    For each degree i = 3 (mod 8) with 1 < i < n-1 the relevant stages
    target cohomology in degrees i+2, i+6, i+7 and i+8; the base stage
    targets degree 3 and is reported separately because the skeleton
    factorization handles it.
    """
    _check_domain(m, n)
    if n % 2 == 0:
        raise EvenNError("obstruction bookkeeping requires odd n")
    stages = []
    ok = True
    for i in range(3, n - 1, 8):
        degrees = []
        for off in (2, 6, 7, 8):
            deg = i + off
            passed = deg % 4 != 0
            ok = ok and passed
            degrees.append({"degree": deg, "mod4": deg % 4, "pass": passed})
        stages.append({"i": i, "targets": degrees})
    base = {"degree": 3, "mod4": 3, "pass": True,
            "note": "base stage; handled by the skeleton factorization"}
    return {"m": m, "n": n, "rank": 2 * m * n, "stages": stages,
            "base_stage": base, "pass": ok}
