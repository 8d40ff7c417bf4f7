import json
from collections import defaultdict
from math import gcd
from types import SimpleNamespace

import pytest

from oracles import brute_force_witness
from sympdec import cli, induced, lifting, suites
from sympdec.errors import EvenNError, HypothesisFailureError, NotCoprimeError
from sympdec.homotopy import pi_table
from sympdec.induced import FORMULAS, ZDependent, hom, homs, is_isomorphism
from sympdec.intmatrix import smith_normal_form
from sympdec.lifting import (
    KIND_HIGH_N,
    KIND_SMALL_N,
    SMALL_ODD_CASES,
    bezout_uv,
    connectivity_j,
    decide_azumaya,
    decide_bundle,
    no_section_witness,
    postnikov_degree_check,
)


def test_bezout_frozen_examples():
    w = bezout_uv(1, 3)
    assert (w.u, w.v, w.sign, w.N) == (1, 1, -1, 7)
    w = bezout_uv(2, 5)
    assert (w.u, w.v, w.sign, w.N) == (1, 3, -1, 31)
    w = bezout_uv(1, 5)
    assert (w.u, w.v, w.sign, w.N) == (1, 1, 1, 9)


def test_bezout_matches_brute_force_minimum():
    for m in range(1, 7):
        for n in range(3, 26, 2):
            if gcd(m, n) != 1:
                continue
            w = bezout_uv(m, n)
            assert abs(w.v * n - 4 * w.u * m * m) == 1
            assert w.N == 4 * w.u * m * m + w.v * n
            assert (w.u, w.v) == brute_force_witness(m, n), (m, n)


def test_bezout_input_validation():
    with pytest.raises(EvenNError):
        bezout_uv(1, 4)
    with pytest.raises(NotCoprimeError):
        bezout_uv(3, 9)


def test_connectivity_certificate():
    assert connectivity_j(2, 9) == 7
    assert connectivity_j(3, 11) == 7


def test_connectivity_hypothesis_failures():
    with pytest.raises(HypothesisFailureError, match="m > 1"):
        connectivity_j(1, 3)
    with pytest.raises(HypothesisFailureError, match="n > 7"):
        connectivity_j(2, 7)
    with pytest.raises(NotCoprimeError):
        connectivity_j(3, 9)


def _window_degrees(m, n):
    return [i for i in range(1, min(4 * m + 3, n)) if i % 8]


def _representative_degrees(m, n):
    """The window's degrees below 3 + 8, where J turns 8-periodic, and the nine
    just below its top."""
    top = min(4 * m + 3, n)
    return [i for i in _window_degrees(m, n) if i < 11 or i >= top - 9]


def exhaustive_certificate(m, n, verdict):
    """The certificate as it was before periodicity: every degree of the window.

    Returns the message connectivity_j raises (None when it passes) and the
    set of distinct maps over the whole window.
    """
    w = bezout_uv(m, n)
    verdicts, failure = {}, None
    for i in _window_degrees(m, n):
        h = hom("J", i, m=m, n=n, u=w.u, v=w.v)
        for z, hz in h.candidates if isinstance(h, ZDependent) else ((None, h),):
            if hz not in verdicts:
                verdicts[hz] = verdict(hz)
            if not verdicts[hz] and failure is None:
                at = f"degree {i}" if z is None else f"degree {i} (z = {z})"
                failure = f"pairing map fails to be an isomorphism at {at}"
    return failure, set(verdicts)


def _spy_builds(monkeypatch):
    """Record (degree, map) for each map the certificate's run of J builds."""
    built = []

    def spy_homs(op, degrees, **params):
        assert op == "J"
        for i, h in homs(op, degrees, **params):
            built.append((i, h))
            yield i, h

    monkeypatch.setattr(lifting, "homs", spy_homs)
    return built


def _maps(built):
    return {c for _, h in built
            for _, c in (h.candidates if isinstance(h, ZDependent) else [(0, h)])}


@pytest.mark.parametrize("m, n", [(2, 9), (3, 11), (50, 201), (2000, 8001)])
def test_certificate_builds_each_degree_once_and_one_snf_per_distinct_map(monkeypatch, m, n):
    presentations = []

    def spy_snf(matrix):
        presentations.append(matrix)
        return smith_normal_form(matrix)

    built = _spy_builds(monkeypatch)
    monkeypatch.setattr(induced, "smith_normal_form", spy_snf)
    assert connectivity_j(m, n) == 7
    assert [i for i, _ in built] == _representative_degrees(m, n)
    assert len(built) <= 17
    # z changes the map only at degree 2, where both candidates come back
    assert [i for i, h in built if isinstance(h, ZDependent)] == [2]
    distinct = _maps(built)
    assert len(distinct) == 5
    assert len(presentations) <= len(distinct)
    assert len(set(presentations)) == len(presentations)


def _run_keys(m, n):
    """The distinct (part groups, rule rows) of the certificate's run of J:
    the groups as pi_table answers them one degree down, and the rows of
    each z the degree reads."""
    w, f = bezout_uv(m, n), FORMULAS["J"]
    parts = (("psp", m), ("so", n), ("psp", m * n), ("so", w.N))
    keys = set()
    for i in _representative_degrees(m, n):
        groups = tuple(pi_table(family, i - 1, k).group.factors for family, k in parts)
        for z in (0, 1) if i == f.z_degree else (None,):
            rows = f.rule(i, SimpleNamespace(m=m, n=n, u=w.u, v=w.v, z=z))[0]
            keys.add((groups, tuple(rows)))
    return keys


@pytest.mark.parametrize("m, n", [(2, 9), (3, 11), (50, 201), (2000, 8001)])
def test_certificate_constructs_one_abhom_per_distinct_key(monkeypatch, m, n):
    constructed, presentations = [], []
    checked = induced._checked

    def spy_checked(*args):
        h = checked(*args)
        constructed.append(h)
        return h

    def spy_snf(matrix):
        presentations.append(matrix)
        return smith_normal_form(matrix)

    built = _spy_builds(monkeypatch)
    monkeypatch.setattr(induced, "_checked", spy_checked)
    monkeypatch.setattr(induced, "smith_normal_form", spy_snf)
    assert connectivity_j(m, n) == 7
    assert len(constructed) == len(_run_keys(m, n))
    # every map the run hands out went through the checking pass: it is one
    # of the checked objects, not an equal copy
    handed_out = {id(c) for _, h in built
                  for _, c in (h.candidates if isinstance(h, ZDependent) else [(0, h)])}
    assert handed_out == {id(h) for h in constructed}
    assert len(presentations) <= 5


@pytest.mark.parametrize("i, z", [(5, None), (2, 0), (2, 1)])
def test_certificate_reports_a_rejected_map_at_its_degree(monkeypatch, i, z):
    w = bezout_uv(2, 9)
    bad = hom("J", i, m=2, n=9, u=w.u, v=w.v, z=z)
    monkeypatch.setattr(lifting, "is_isomorphism",
                        lambda h: h != bad and is_isomorphism(h))
    with pytest.raises(HypothesisFailureError) as exc:
        connectivity_j(2, 9)
    where = f"degree {i}" if z is None else f"degree {i} (z = {z})"
    assert str(exc.value) == f"pairing map fails to be an isomorphism at {where}"


def _reject_some(h):
    """A stand-in verdict that fails the Z/2 map at degree 5, and the free map
    at degree 4 when 3 divides n."""
    if h.source.factors == (2,) or (h.source.factors == (0, 0) and h.matrix.row_lists()[0][0] % 3 == 0):
        return False
    return is_isomorphism(h)


def _reject_z1(h):
    """A stand-in verdict that fails only degree 2's z = 1 map, (x, y) -> (x, x + y)
    on Z/2 x Z/2; its z = 0 map is the identity there."""
    if h.source.factors == (2, 2) and h.matrix.row_lists() == [[1, 0], [1, 1]]:
        return False
    return is_isomorphism(h)


@pytest.mark.parametrize("verdict", [is_isomorphism, _reject_some, _reject_z1])
def test_certificate_agrees_with_the_j_iso_suite(monkeypatch, verdict):
    records = defaultdict(list)

    def record(self, passed, op, m, n, i=None, z=None):
        if op == "J-iso":
            records[m, n].append((i, z, passed))

    monkeypatch.setattr(suites.VerifyReport, "record", record)
    # the suite's own J-connectivity record calls the certificate; checked below instead
    monkeypatch.setattr(suites, "connectivity_j", lambda m, n: 7)
    monkeypatch.setattr(suites, "is_isomorphism", verdict)
    monkeypatch.setattr(lifting, "is_isomorphism", verdict)
    # m <= 2*max_m = 6 and n <= 6*max_n = 42; run_j_iso does not apply the size guard
    suites.run_j_iso(suites.Bounds(max_m=3, max_n=7, max_r=1), 1, 0)
    pairs = {(m, n) for m in range(1, 7) for n in range(1, 42, 2) if gcd(m, n) == 1}
    assert set(records) == {(m, n) for m, n in pairs if m > 1 and n > 7}
    first_failures = set()
    for m, n in sorted(pairs):
        if (m, n) not in records:
            with pytest.raises(HypothesisFailureError, match="required"):
                connectivity_j(m, n)
            continue
        assert [(i, z) for i, z, _ in records[m, n]] == [
            (i, z) for i in _window_degrees(m, n) for z in (0, 1)]
        failed = [(i, z) for i, z, passed in records[m, n] if not passed]
        if verdict is _reject_z1:
            assert failed == [(2, 1)], (m, n)
        if not failed:
            assert connectivity_j(m, n) == 7
            continue
        i, z = failed[0]
        first_failures.add(i)
        where = f"degree {i} (z = {z})" if i == 2 else f"degree {i}"
        with pytest.raises(HypothesisFailureError) as exc:
            connectivity_j(m, n)
        assert str(exc.value).endswith(f"at {where}"), (m, n)
    expected = {is_isomorphism: set(), _reject_some: {4, 5}, _reject_z1: {2}}
    assert first_failures == expected[verdict]


@pytest.mark.parametrize("verdict", [is_isomorphism, _reject_some])
def test_certificate_agrees_with_the_exhaustive_loop(monkeypatch, verdict):
    monkeypatch.setattr(lifting, "is_isomorphism", verdict)
    first_failures = set()
    for m in range(2, 12):
        for n in range(9, 120, 2):
            if gcd(m, n) != 1:
                continue
            failure, window_maps = exhaustive_certificate(m, n, verdict)
            built = _spy_builds(monkeypatch)
            if failure is None:
                assert connectivity_j(m, n) == 7, (m, n)
            else:
                with pytest.raises(HypothesisFailureError) as exc:
                    connectivity_j(m, n)
                assert str(exc.value) == failure, (m, n)
                first_failures.add(failure)
                continue
            # a passing certificate has seen every map of the window
            assert _maps(built) == window_maps, (m, n)
    assert first_failures == (set() if verdict is is_isomorphism else {
        "pairing map fails to be an isomorphism at degree 4",
        "pairing map fails to be an isomorphism at degree 5"})


def test_no_section_witness_high_n_case():
    ob = no_section_witness(2, 13)
    assert ob.degree == 12
    assert str(ob.image) == "2Z"
    assert ob.case == KIND_HIGH_N


def test_no_section_witness_small_n_case():
    ob = no_section_witness(4, 3)
    assert ob.degree == 8 and str(ob.image) == "3Z" and ob.case == KIND_SMALL_N
    ob = no_section_witness(3, 5)
    assert ob.degree == 12 and str(ob.image) == "5Z"
    ob = no_section_witness(4, 7)
    assert ob.degree == 16 and str(ob.image) == "7Z"


def test_no_section_witness_none_cases():
    assert no_section_witness(2, 9) is None
    # small-n degree outside the stable symplectic side is refused, not guessed
    assert no_section_witness(1, 3) is None
    assert no_section_witness(2, 5) is None
    with pytest.raises(EvenNError):
        no_section_witness(2, 4)


def test_decide_azumaya_positive():
    r = decide_azumaya(2, 9, 7)
    assert r.verdict == "decomposable"
    assert r.witness is not None and r.witness.N == 127
    assert r.factors is not None and "symplectic" in r.factors[0]
    assert "orthogonal" in r.factors[1] and "Brauer-trivial" in r.factors[1]


@pytest.mark.parametrize("m, n", [(2, 9), (3, 11), (2000, 8001)])
def test_decomposable_verdict_computes_one_bezout_witness(monkeypatch, m, n):
    calls = []

    def spy_bezout(m, n):
        calls.append((m, n))
        return bezout_uv(m, n)

    monkeypatch.setattr(lifting, "bezout_uv", spy_bezout)
    r = decide_azumaya(m, n, 7)
    assert r.verdict == "decomposable" and r.witness == bezout_uv(m, n)
    assert calls == [(m, n)]
    # the certificate alone still computes its own witness
    calls.clear()
    assert connectivity_j(m, n) == 7
    assert calls == [(m, n)]


def test_decide_azumaya_not_covered_with_obstruction_data():
    r = decide_azumaya(2, 13, 12)
    assert r.verdict == "not-covered"
    assert any("dim" in note for note in r.notes)
    assert r.obstruction is not None
    assert r.obstruction.degree == 12 and str(r.obstruction.image) == "2Z"


def test_decide_azumaya_not_covered_plain():
    r = decide_azumaya(2, 2, 7)
    assert r.verdict == "not-covered" and r.obstruction is None
    r = decide_azumaya(1, 9, 7)
    assert r.verdict == "not-covered"
    assert any("m = 1" in note for note in r.notes)


def test_decide_bundle():
    r = decide_bundle(3, 11, 11)
    assert r.verdict == "decomposable"
    assert r.evidence is not None and r.evidence["pass"]
    assert decide_bundle(3, 11, 12).verdict == "not-covered"
    assert decide_bundle(3, 4, 3).verdict == "not-covered"


def test_postnikov_degrees():
    rep = postnikov_degree_check(1, 11)
    degrees = [t["degree"] for s in rep["stages"] for t in s["targets"]]
    assert degrees == [5, 9, 10, 11]
    assert all(t["pass"] for s in rep["stages"] for t in s["targets"])
    assert rep["pass"] and rep["base_stage"]["degree"] == 3
    with pytest.raises(EvenNError):
        postnikov_degree_check(1, 4)
    for n in range(3, 100, 2):
        assert postnikov_degree_check(1, n)["pass"]


def test_decomposable_verdict_never_meets_an_applicable_obstruction():
    # the universal no-section witness lives above the dimension cap of the
    # decomposition rule, so both can hold for the same (m, n) but never
    # contradict each other on a space the rule covers
    for m in range(1, 21):
        for n in range(1, 21):
            if n % 2 == 0:
                continue
            covered = decide_azumaya(m, n, 7).verdict == "decomposable"
            witness = no_section_witness(m, n)
            if covered and witness is not None:
                assert witness.degree > 7, (m, n)


def test_every_obstruction_names_a_proper_subgroup():
    # kZ is proper in Z only for k >= 2; m = 1 gives no obstruction
    for m in range(1, 51):
        for n in range(1, 100, 2):
            ob = no_section_witness(m, n)
            if ob is None:
                continue
            if ob.case == KIND_HIGH_N:
                k, degree = m, 4 * m + 4
            else:
                assert ob.case == KIND_SMALL_N, (m, n)
                k, degree = n, SMALL_ODD_CASES[n]
            assert k >= 2 and ob.degree == degree, (m, n)
            assert str(ob.image) == f"{k}Z", (m, n)
            assert f"= {k}Z is a proper subgroup of Z" in ob.note, (m, n)
    assert decide_azumaya(1, 9, 7).obstruction is None


def _decide_body(capsys, m, n, dim):
    assert cli.main(["decide", "azumaya", "--m", str(m), "--n", str(n), "--dim", str(dim)]) == 0
    return json.loads(capsys.readouterr().out)


def test_reports_serialize(capsys):
    body = _decide_body(capsys, 2, 9, 7)
    assert set(body) == set(lifting.DecisionReport._fields)
    assert body["verdict"] == "decomposable" and body["witness"]["N"] == 127
    assert body["witness"] == bezout_uv(2, 9)._asdict()
    assert body["factors"] == list(decide_azumaya(2, 9, 7).factors)
    body = _decide_body(capsys, 2, 13, 12)
    assert body["obstruction"]["image"] == "2Z"
    assert body["obstruction"]["source"] == [2, 0] and body["obstruction"]["target"] == [0]
    assert body["witness"] is None and body["factors"] is None and body["evidence"] is None
