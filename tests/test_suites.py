import json

import pytest

from sympdec import cli, suites
from sympdec.errors import BoundsTooLargeError
from sympdec.induced import compose
from sympdec.suites import Bounds, run_suite

from oracles import hom


def test_bounds_guard():
    Bounds(2, 3, 2).check()
    with pytest.raises(BoundsTooLargeError):
        Bounds(4, 4, 3).check()
    with pytest.raises(BoundsTooLargeError):
        Bounds(0, 1, 1).check()


def test_each_suite_runs_clean():
    for name in ("closure", "lemmas", "mixed-product", "center", "formulas", "bezout", "J-iso"):
        reports = run_suite(name, Bounds(2, 2, 2), 3, 1)
        assert len(reports) == 1
        rep = reports[0]
        assert rep.suite == name
        assert rep.cases > 0
        assert rep.ok, rep.failures[:3]


def test_all_runs_every_suite():
    reports = run_suite("all", Bounds(2, 2, 2), 2, 5)
    assert [r.suite for r in reports] == list(suites._RUNNERS)
    assert all(r.ok for r in reports)


def test_tensor_left_right_check_reads_each_block():
    # at (i, m, n) = (3, 2, 9) both factor sources are Z, so swapped blocks keep every shape:
    # the tensor map is [9 4], the 9-fold sum [9] and the doubled 2-fold sum [4]
    tensor = hom("tensor-sp-o", 3, m=2, n=9)
    left = hom("r-fold", 3, n=2, r=9)
    right = compose(hom("r-fold", 3, n=9, r=2), hom("doubling", 3, n=9))
    assert suites._tensor_decomposition_consistent(tensor, left, right)
    for a, b in ((right, left), (left, left), (right, right)):
        assert not suites._tensor_decomposition_consistent(tensor, a, b)


@pytest.mark.parametrize("bounds", [Bounds(1, 1, 1), Bounds(1, 7, 1)])
def test_formulas_records_every_degree_of_both_windows_in_order(monkeypatch, bounds):
    """run_formulas joins one homs run per entry over each window; its records
    are still one per degree, in order, all passing.  n <= 2 leaves the
    tensor window empty, and at m = 1 square-tensor's window stops at 4m^2 - 1."""
    records = []

    def record(self, passed, op, i, m, n=None):
        records.append((op, i, m, n, passed))

    monkeypatch.setattr(suites.VerifyReport, "record", record)
    suites.run_formulas(bounds, 1, 0)
    top = max(*bounds, 5)
    want = []
    for m in range(1, top + 1):
        want += [("tensor-left-right", i, m, n) for n in range(1, top + 1)
                 for i in range(min(4 * m + 2, n - 1))]
        want += [("square-diagonal", i, m, None) for i in range(min(4 * m + 2, 4 * m * m - 1))]
    assert [r[:4] for r in records] == want
    assert all(r[4] for r in records)
    assert [i for op, i, m, _ in want if op == "square-diagonal" and m == 1] == [0, 1, 2]


def test_unknown_suite():
    with pytest.raises(ValueError):
        run_suite("nope", Bounds(), 1, 0)
    with pytest.raises(ValueError):
        run_suite("closure", Bounds(), 0, 0)


def _verify(capsys, *argv):
    """(exit code, JSON body) of `sympdec verify` with argv."""
    code = cli.main(["verify", *argv])
    return code, json.loads(capsys.readouterr().out)


def test_reports_are_deterministic_per_seed(capsys):
    a = _verify(capsys, "closure", "--samples", "4", "--seed", "99")
    b = _verify(capsys, "closure", "--samples", "4", "--seed", "99")
    assert a == b and a[0] == 0 and [s["suite"] for s in a[1]["suites"]] == ["closure"]


def test_failures_carry_replayable_inputs(monkeypatch, capsys):
    from sympdec import groups

    from oracles import with_perturbed_entry

    real = groups.doubling

    def broken(a):
        # corrupt every doubled matrix so its membership check fails
        return with_perturbed_entry(real(a))

    monkeypatch.setattr(groups, "doubling", broken)
    rep = run_suite("closure", Bounds(1, 3, 1), 4, 7)[0]
    doubles = [f for f in rep.failures if f["op"] == "doubling"]
    assert len(doubles) == 4 and not rep.ok
    for record in doubles:
        assert {"op", "k", "n"} <= set(record)
    code, body = _verify(capsys, "closure", "--max-m", "1", "--max-n", "3", "--max-r", "1",
                         "--samples", "4", "--seed", "7")
    assert code == 1 and body["ok"] is False
    assert body["suites"] == [{"suite": "closure", "cases": rep.cases,
                               "failures": rep.failures, "ok": False}]


def test_json_report_has_no_clock_fields(capsys):
    rep = run_suite("bezout", Bounds(1, 1, 1), 1, 0)[0]
    assert rep.elapsed >= 0
    code, body = _verify(capsys, "bezout", "--max-m", "1", "--max-n", "1", "--max-r", "1",
                         "--samples", "1", "--seed", "0")
    assert code == 0 and set(body) == {"seed", "samples", "bounds", "suites", "ok"}
    assert [set(s) for s in body["suites"]] == [{"suite", "cases", "failures", "ok"}]
